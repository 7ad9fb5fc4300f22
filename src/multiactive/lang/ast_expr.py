"""Expression nodes and statement-sequence helpers, shared by both
languages.

Expressions are pure: values, variables, ``this`` and arithmetic/boolean
operators. Positions never take part in equality so parse/pretty round
trips compare structurally.

The sequence helpers take a language's ``Seq``, ``Skip`` and ``If``
classes; each language binds them to its own (``mseq``, ``aseq_list``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from ..diagnostics import NO_POS, Pos


@dataclass(frozen=True)
class Lit:
    value: Union[None, bool, int]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class This:
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Binop:
    op: str
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Unop:
    op: str
    operand: "Expr"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class MethodLit:
    """A method name as a value (``@m``); argument of execute calls."""

    name: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class RuntimeVal:
    """Runtime-injected value in expression position; never parsed."""

    value: object
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


Expr = Union[Lit, Var, This, Binop, Unop, MethodLit, RuntimeVal]


class _NodeFields(dict):
    """``node_fields[cls]``: the field names of a syntax node's class that
    take part in equality (not ``pos`` or ``origin``), in declaration
    order (None for a class that is no dataclass), computed once per
    class: what a node's structure is, for the walks over it."""

    def __missing__(self, cls):
        dc = getattr(cls, "__dataclass_fields__", None)
        fields = self[cls] = (
            None if dc is None else tuple(n for n, f in dc.items() if f.compare)
        )
        return fields


node_fields = _NodeFields()


def seq(stmts, Seq, Skip):
    """Right-associated sequence of the given statements (skip if empty)."""
    stmts = list(stmts)
    if not stmts:
        return Skip()
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def seq_list(s, Seq) -> list:
    """Flatten a statement into its top-level sequence components."""
    out = []
    while isinstance(s, Seq):
        out.extend(seq_list(s.first, Seq))
        s = s.rest
    out.append(s)
    return out


def normalize(s, Seq, Skip, If):
    """Re-associate sequences to the right; idempotent, order preserving."""
    def norm(branch):
        return normalize(branch, Seq, Skip, If)

    parts = seq_list(s, Seq)
    parts = [
        replace(p, then=norm(p.then), els=norm(p.els)) if isinstance(p, If) else p
        for p in parts
    ]
    return seq(parts, Seq, Skip)
