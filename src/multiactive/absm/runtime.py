"""Runtime configurations of the cooperative active-object engine.

A configuration holds each cog as one immutable node (`Cog`): its
running object, the ident its next object takes, and its objects by
ident. Futures map to their value or stay unresolved. Immutability
discipline as in the sibling engine, where a `Cog` plays the part of an
`Activity`: `steps` memoizes on each `Cog` the successor cog of every
step that rewrites only that cog (`_next`, see `steplabel.memo_step`:
with the destiny that `Return` reads and resolves, and the future that
`Await-*` and `Read-Fut` read; a successor first held weakly, strongly
once it had to be rebuilt), `canon` the shapes of a cog, an object and
a process (`_canon`), `explore` what one-active-per-cog finds in a cog,
and `equiv` its verdicts against a cog's objects (`_cog_memo` on the
activity, keyed on the cog's object table). The future a memoized step
read matches by value (`values.same`), and a cog that `canon` finds
interchangeable with one it shaped before borrows that cog's memos,
`_next` by reference, as an activity does.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class Cog:
    name: str
    running: Optional[ObjRef]  # the one object allowed to run; None while free
    next_id: int  # the ident of the next object created in this cog
    objects: dict  # ident -> Ob, in ident order

    def update(self, **kw) -> "Cog":
        return evolve(self, kw)

    def with_object(self, *obs: Ob, **kw) -> "Cog":
        """Successor with ``obs`` put in place by ident and ``kw`` changed."""
        objects = dict(self.objects)
        for ob in obs:
            objects[ob.name.ident] = ob
        return evolve(self, {**kw, "objects": objects})


@dataclass(frozen=True)
class AbsConfig:
    program: AbsProgram
    cogs: dict  # cog name -> Cog, creation order
    futures: dict  # future name -> value | UNRESOLVED
    cog_counter: int = 1
    fut_counter: int = 1

    def update(self, **kw) -> "AbsConfig":
        return evolve(self, kw)

    def with_cog(self, *cogs: Cog, **kw) -> "AbsConfig":
        """Successor with ``cogs`` put in place by name and ``kw`` changed."""
        table = dict(self.cogs)
        for cog in cogs:
            table[cog.name] = cog
        return evolve(self, {**kw, "cogs": table})

    def ob(self, name: ObjRef) -> Optional[Ob]:
        """The object named ``name``, None if there is none."""
        cog = self.cogs.get(name.cog)
        return None if cog is None else cog.objects.get(name.ident)


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
