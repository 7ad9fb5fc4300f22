"""Abstract syntax of the multi-active object language.

Statement sequences are kept in normal form: ``MSeq(first, rest)`` where
``first`` is never itself a sequence, ending in a plain statement.
``mseq`` and ``mseq_list`` are the sequence helpers of ``ast_expr``,
which both languages share, bound to ``MSeq``. The hole marker
``x = •`` used by the runtime call stack is not representable here;
runtime frames use their own marker.

Every statement class carries an ``origin`` beside its ``pos``: where the
translator took the statement from (``Origin``), or None for statements
it did not emit. Like ``pos``, it takes no part in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple, Union

from ..diagnostics import NO_POS, Pos
from .ast_expr import Expr, seq, seq_list


@dataclass(frozen=True)
class MInvoke:
    target: Expr
    method: Optional[str]  # static method name, or None for dynamic dispatch
    method_var: Optional[str] = None  # variable holding the method name
    args: Tuple[Expr, ...] = ()
    vararg: Optional[str] = None  # variable expanded into trailing arguments
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class MNew:
    cls: str
    args: Tuple[Expr, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class MNewActive:
    cls: str
    args: Tuple[Expr, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


MRhs = Union[Expr, MInvoke, MNew, MNewActive]


@dataclass(frozen=True)
class Origin:
    """The cooperative construct a translated statement came from, and
    whether its step realises that construct's cooperative rule (else it
    is plumbing around the rule)."""

    # "skip", "return", "if", "assign", "new", "async", "get", "await",
    # "guard", "suspend" or "sync"
    construct: str
    step: bool = False


@dataclass(frozen=True)
class MSkip:
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MAssign:
    target: str
    rhs: MRhs
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MReturn:
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MSetLimit:
    kind: str  # "S" | "H"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MIf:
    cond: Expr
    then: "MStmt"
    els: "MStmt"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MSeq:
    first: "MStmt"
    rest: "MStmt"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    origin: Optional[Origin] = field(default=None, compare=False, repr=False)


MStmt = Union[MSkip, MAssign, MReturn, MSetLimit, MIf, MSeq]


@dataclass(frozen=True)
class GroupDecl:
    name: str
    self_compatible: bool = False
    min_threads: int = 0
    max_threads: Optional[int] = None  # None = unbounded
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class GroupPolicy:
    groups: Tuple[GroupDecl, ...] = ()
    compatible_pairs: frozenset = frozenset()  # of frozenset({g, g'})
    thread_pool_size: Optional[int] = None  # None = unbounded
    hard_limit_default: bool = False
    priority_levels: Tuple[Tuple[str, ...], ...] = ()

    def group(self, name: str) -> Optional[GroupDecl]:
        for g in self.groups:
            if g.name == name:
                return g
        return None


EMPTY_POLICY = GroupPolicy()


@dataclass(frozen=True)
class MaspMethod:
    name: str
    params: Tuple[str, ...] = ()
    locals: Tuple[str, ...] = ()
    body: MStmt = MSkip()
    group: Optional[str] = None
    vararg: Optional[str] = None  # trailing rest-parameter
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class MaspClass:
    name: str
    fields: Tuple[str, ...] = ()  # constructor parameters double as fields
    methods: Tuple[MaspMethod, ...] = ()
    policy: Optional[GroupPolicy] = None
    pos: Pos = field(default=NO_POS, compare=False, repr=False)

    def method(self, name: str) -> Optional[MaspMethod]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class MaspProgram:
    classes: Tuple[MaspClass, ...] = ()
    main_locals: Tuple[str, ...] = ()
    main_body: MStmt = MSkip()

    def cls(self, name: str) -> Optional[MaspClass]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


mseq = partial(seq, Seq=MSeq, Skip=MSkip)
mseq_list = partial(seq_list, Seq=MSeq)
