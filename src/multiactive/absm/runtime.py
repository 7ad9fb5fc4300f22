"""Runtime configurations of the cooperative active-object engine.

Objects are global configuration entries (no per-activity store); a cog
entry names the single object allowed to run. Futures map to their value
or stay unresolved. Immutability discipline as in the sibling engine:
`steps` memoizes on each `Ob` the successor object of every step that
rewrites only that object (`_next`, see `steplabel.memo_step`: with the
cog entry that `Activate` reads and writes, the destiny that `Return`
reads and resolves, and the future that `Await-*` and `Read-Fut` read; a
successor first held weakly, strongly once it had to be rebuilt), and
`canon` its shape (`_canon`) and, on a cog's first member, the cog's
shape (`_cog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..lang.ast_abs import AbsMethod, AbsProgram, AReturn, aseq_list
from ..lang.ast_expr import Lit
from ..values import FutRef, ObjRef, evolve


@dataclass(frozen=True)
class Process:
    locals: dict  # includes this, destiny, maybe cont
    stmts: tuple

    def with_stmts(self, stmts: tuple) -> "Process":
        return Process(self.locals, stmts)

    def with_local(self, name, value) -> "Process":
        l = dict(self.locals)
        l[name] = value
        return Process(l, self.stmts)


@dataclass(frozen=True)
class RGFut:
    """Runtime guard on a future value (sync-call continuations)."""

    value: FutRef


@dataclass(frozen=True)
class Ob:
    name: ObjRef
    cls: Optional[str]
    fields: dict  # always carries "cog"
    active: Optional[Process]
    queue: Tuple[Process, ...]

    def update(self, **kw) -> "Ob":
        return evolve(self, kw)


@dataclass(frozen=True)
class AbsConfig:
    program: AbsProgram
    objects: dict  # ObjRef -> Ob, creation order
    cogs: dict  # cog name -> ObjRef | None (the running object)
    futures: dict  # future name -> value | UNRESOLVED
    cog_counter: int = 1
    fut_counter: int = 1
    id_counters: dict = field(default_factory=dict)  # cog -> next object id

    def update(self, **kw) -> "AbsConfig":
        return evolve(self, kw)

    def with_object(self, *obs: Ob, **kw) -> "AbsConfig":
        """Successor with ``obs`` put in place by name and ``kw`` changed."""
        objects = dict(self.objects)
        for ob in obs:
            objects[ob.name] = ob
        return evolve(self, {**kw, "objects": objects})


def flatten_abs_body(stmt) -> tuple:
    parts = aseq_list(stmt)
    if not parts or not isinstance(parts[-1], AReturn):
        parts = parts + [AReturn(Lit(None))]
    return tuple(parts)


def lookup_abs_method(program: AbsProgram, cls_name, method) -> Optional[AbsMethod]:
    if cls_name is None:
        return None
    cls = program.cls(cls_name)
    if cls is None:
        return None
    return cls.method(method)


def abs_bind(program: AbsProgram, o: ObjRef, cls_name, future: str, method: str, args: tuple):
    """Instantiated method body with destiny bound; None if unbindable."""
    m = lookup_abs_method(program, cls_name, method)
    if m is None or len(args) != len(m.params):
        return None
    locals_ = {"this": o, "destiny": FutRef(future)}
    locals_.update(zip(m.params, args))
    for x in m.locals:
        locals_[x] = None
    return Process(locals_, flatten_abs_body(m.body))
