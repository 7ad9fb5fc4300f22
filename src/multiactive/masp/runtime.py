"""Runtime configurations of the multi-active object engine.

All structures are treated as immutable: step application builds new
objects and copies any dict it touches, so configurations can be shared
freely between exploration branches.

Because an `Activity` never changes, other modules memoize what they
derive from it on the instance itself, outside the dataclass fields:
`steps` its own enabled labels and future cells (`_labels`, which read
only the activity and the program) and the successor activity of each
local step applied to it (`_next`, see `steplabel.memo_step`: with the
future binder that `Update` and `Return` read, and the one `Return`
writes; a successor first held weakly, strongly once it had to be
rebuilt), `canon` its shape (`_canon`), `explore` what its
store-closure, safe-parallelism and thread-limits checks find, and
`equiv` its verdicts against cooperative cogs (`_cog_memo`). `update`
copies only the fields, so no memo reaches a successor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..lang.ast_expr import Lit
from ..lang.ast_masp import MaspMethod, MaspProgram, MReturn, Origin, mseq_list
from ..policy import DEFAULT_POLICY, ResolvedPolicy
from ..values import UNRESOLVED, Loc, evolve

# methods of the COG class whose bodies live in the engine
NATIVE_ARITY = {"freshId": 0, "register": 2, "retrieve": 1}


@dataclass(frozen=True)
class Obj:
    """A passive object in a store: class name plus field map."""

    cls: Optional[str]
    fields: dict

    def with_field(self, name: str, value) -> "Obj":
        f = dict(self.fields)
        f[name] = value
        return Obj(self.cls, f)


@dataclass(frozen=True)
class Request:
    future: str
    method: str
    args: tuple


@dataclass(frozen=True)
class MHole:
    """The runtime-only `x = •` marker heading interrupted frames; it
    keeps the origin of the call it stands for."""

    target: str
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Frame:
    locals: dict
    stmts: tuple

    def with_local(self, name: str, value) -> "Frame":
        l = dict(self.locals)
        l[name] = value
        return Frame(l, self.stmts)

    def with_stmts(self, stmts: tuple) -> "Frame":
        return Frame(self.locals, stmts)


@dataclass(frozen=True)
class Thread:
    request: Request
    state: str  # "A" | "P"
    stack: Tuple[Frame, ...]  # executing frame first


@dataclass(frozen=True)
class FutBinder:
    value: object = UNRESOLVED
    piece: Optional[dict] = None  # serialised store fragment when resolved
    method: str = ""  # provenance for Method(f)

    @property
    def resolved(self) -> bool:
        return self.value is not UNRESOLVED


@dataclass(frozen=True)
class Activity:
    name: str
    cls: Optional[str]
    active_loc: Loc
    store: dict  # Loc -> storable
    current: dict  # request future -> Thread, in service order
    queue: Tuple[Request, ...]
    limit: str = "S"  # "S" | "H"
    policy: ResolvedPolicy = DEFAULT_POLICY
    loc_counter: int = 0  # last used location index
    id_counter: int = 1  # next object identifier handed out by freshId
    registry: dict = field(default_factory=dict)  # object id -> Loc

    def update(self, **kw) -> "Activity":
        return evolve(self, kw)


@dataclass(frozen=True)
class MaspConfig:
    program: MaspProgram
    activities: dict  # name -> Activity, in creation order
    futures: dict  # future name -> FutBinder
    act_counter: int = 1
    fut_counter: int = 1

    def update(self, **kw) -> "MaspConfig":
        return evolve(self, kw)

    def with_activity(self, *acts: Activity, **kw) -> "MaspConfig":
        """Successor with ``acts`` put in place by name and ``kw`` changed."""
        activities = dict(self.activities)
        for act in acts:
            activities[act.name] = act
        return evolve(self, {**kw, "activities": activities})


def flatten_body(stmt) -> tuple:
    """Flatten a statement into executable form, ensuring the tail returns."""
    parts = mseq_list(stmt)
    if not parts or not isinstance(parts[-1], MReturn):
        parts = parts + [MReturn(Lit(None))]
    return tuple(parts)


def is_native(cls_name: Optional[str], method: str) -> bool:
    return cls_name == "COG" and method in NATIVE_ARITY


def lookup_method(program: MaspProgram, cls_name, method) -> Optional[MaspMethod]:
    if cls_name is None:
        return None
    cls = program.cls(cls_name)
    if cls is None:
        return None
    return cls.method(method)


def bindable(program: MaspProgram, cls_name, method: str, args: tuple) -> bool:
    """Would bind() succeed for this invocation target?"""
    if is_native(cls_name, method):
        return len(args) == NATIVE_ARITY[method]
    m = lookup_method(program, cls_name, method)
    if m is None:
        return False
    if m.vararg is not None:
        return len(args) >= len(m.params)
    return len(args) == len(m.params)


def bind(program: MaspProgram, o: Loc, cls_name, method: str, args: tuple):
    """Fresh execution context for a non-native method, or None."""
    m = lookup_method(program, cls_name, method)
    if m is None:
        return None
    locals_ = {"this": o}
    if m.vararg is not None:
        if len(args) < len(m.params):
            return None
        locals_.update(zip(m.params, args[: len(m.params)]))
        locals_[m.vararg] = tuple(args[len(m.params) :])
    else:
        if len(args) != len(m.params):
            return None
        locals_.update(zip(m.params, args))
    for x in m.locals:
        locals_[x] = None
    return Frame(locals_, flatten_body(m.body))
