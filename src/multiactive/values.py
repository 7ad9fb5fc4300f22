"""Runtime value representations shared by both interpreters.

Simple values are represented directly: ``None`` (null), ``int``, ``bool``.
Structured references get small frozen wrappers so they hash and compare
structurally and never collide with primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, floordiv, ge, gt, le, lt, mul, sub


@dataclass(frozen=True)
class Loc:
    """A location in one activity's local store (meaningless outside it)."""

    index: int

    def __repr__(self):
        return f"o{self.index}"


@dataclass(frozen=True)
class ActRef:
    """Name of an activity (identified with a cog name)."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class FutRef:
    """Name of a future."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class ObjRef:
    """Global object name ``i_alpha``: local identifier plus owning cog."""

    ident: int
    cog: str

    def __repr__(self):
        return f"{self.ident}_{self.cog}"


@dataclass(frozen=True)
class MethodVal:
    """A method name used as a runtime value (execute's second argument)."""

    name: str

    def __repr__(self):
        return f"@{self.name}"


class Unresolved:
    """The ⊥ state of a future binder."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊥"


UNRESOLVED = Unresolved()


class Undefined:
    """Result of evaluating arithmetic over an unresolved future."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<undefined>"


UNDEFINED = Undefined()


def evolve(obj, changes: dict):
    """A copy of a frozen dataclass instance with some fields changed.

    Unlike ``dataclasses.replace`` it does not re-run ``__init__``. Only
    the dataclass fields are copied, so the memos that other modules keep
    on an instance, outside its fields, never reach the copy. An unknown
    field name raises ``TypeError``, as ``replace`` does.
    """
    fields = obj.__dataclass_fields__
    for name in changes:
        if name not in fields:
            raise TypeError(f"{type(obj).__name__} has no field {name!r}")
    state = obj.__dict__
    new = object.__new__(type(obj))
    new.__dict__.update({name: state[name] for name in fields}, **changes)
    return new


def same(a, b) -> bool:
    """Are ``a`` and ``b`` interchangeable as runtime data? They are when
    they are one object, or of one class and alike all the way down:
    tuples item by item, dicts key by key in the same order, dataclasses
    field by field (``pos`` and ``origin`` included), anything else by
    ``==``. So a boolean never matches an integer, and whatever a rule,
    a property or a shape derives from one, iterating its dicts included,
    it derives from the other."""
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is tuple:
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if x is not y and not same(x, y):
                return False
        return True
    if cls is dict:
        if len(a) != len(b):
            return False
        for (k, x), (j, y) in zip(a.items(), b.items()):
            if not same(k, j) or x is not y and not same(x, y):
                return False
        return True
    fields = getattr(cls, "__dataclass_fields__", None)
    if fields is None:
        return a == b
    for f in fields:
        x, y = getattr(a, f), getattr(b, f)
        if x is not y and not same(x, y):
            return False
    return True


class EngineFault(Exception):
    """An internal interpreter invariant broke (not a program state)."""


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def unop(op, v):
    if op == "!":
        return (not v) if isinstance(v, bool) else UNDEFINED
    return -v if is_int(v) else UNDEFINED


# the integer operators of both calculi; "/" is undefined on a zero divisor
_INT_OPS = {"+": add, "-": sub, "*": mul, "/": floordiv, "<": lt, "<=": le, ">": gt, ">=": ge}


def binop(op, l, r):
    """``==``/``!=`` on any values (each evaluator first rules out operands
    hiding a future; a boolean never equals an integer), ``&&``/``||`` on
    booleans, the rest on integers."""
    if op == "==" or op == "!=":
        eq = isinstance(l, bool) == isinstance(r, bool) and l == r
        return eq if op == "==" else not eq
    if op == "&&" or op == "||":
        if isinstance(l, bool) and isinstance(r, bool):
            return (l and r) if op == "&&" else (l or r)
        return UNDEFINED
    if not is_int(l) or not is_int(r):
        return UNDEFINED
    fn = _INT_OPS.get(op)
    if fn is None:
        raise EngineFault(f"unknown operator {op}")
    return UNDEFINED if op == "/" and r == 0 else fn(l, r)


def is_primitive(v) -> bool:
    return v is None or isinstance(v, (bool, int))


def show_value(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return repr(v)
