"""Abstract syntax of the cooperative active-object language (concurrent
object layer only: classes, no interfaces or algebraic data types)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple, Union

from ..diagnostics import NO_POS, Pos
from .ast_expr import Expr, seq, seq_list


@dataclass(frozen=True)
class ASync:
    target: Expr
    method: str
    args: Tuple[Expr, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AAsync:
    target: Expr
    method: str
    args: Tuple[Expr, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class ANew:
    cls: str
    args: Tuple[Expr, ...] = ()
    local: bool = False
    node: Optional[str] = None  # opaque deployment label, ignored at runtime
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AGet:
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


ARhs = Union[Expr, ASync, AAsync, ANew, AGet]


@dataclass(frozen=True)
class GBool:
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class GFut:
    var: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class GAnd:
    left: "Guard"
    right: "Guard"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


Guard = Union[GBool, GFut, GAnd]


@dataclass(frozen=True)
class ASkip:
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AAssign:
    target: str
    rhs: ARhs
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class ASuspend:
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AAwait:
    guard: Guard
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AReturn:
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AIf:
    cond: Expr
    then: "AStmt"
    els: "AStmt"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class ASeq:
    first: "AStmt"
    rest: "AStmt"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


AStmt = Union[ASkip, AAssign, ASuspend, AAwait, AReturn, AIf, ASeq]


@dataclass(frozen=True)
class AbsMethod:
    name: str
    params: Tuple[str, ...] = ()
    locals: Tuple[str, ...] = ()
    body: AStmt = ASkip()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class AbsClass:
    name: str
    fields: Tuple[str, ...] = ()
    methods: Tuple[AbsMethod, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)

    def method(self, name: str) -> Optional[AbsMethod]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class AbsProgram:
    classes: Tuple[AbsClass, ...] = ()
    main_locals: Tuple[str, ...] = ()
    main_body: AStmt = ASkip()

    def cls(self, name: str) -> Optional[AbsClass]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


aseq = partial(seq, Seq=ASeq, Skip=ASkip)
aseq_list = partial(seq_list, Seq=ASeq)
