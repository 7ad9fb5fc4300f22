"""Expression evaluation, serialisation and location renaming.

Evaluation chases location indirections until it reaches an object, a
future-holding location or a ground value; arithmetic over anything
still hiding a future is undefined rather than an error, so the
enclosing reduction rule is simply not enabled.
"""

from __future__ import annotations

from ..lang.ast_expr import Binop, Lit, MethodLit, RuntimeVal, This, Unop, Var
from ..policy import UNGROUND
from ..values import UNDEFINED, EngineFault, FutRef, Loc, MethodVal, binop, unop
from .runtime import Obj


def chase(v, store):
    """Follow locations until an object, future location or ground value."""
    seen = set()
    while isinstance(v, Loc):
        if v in seen:
            raise EngineFault(f"location cycle at {v}")
        seen.add(v)
        if v not in store:
            raise EngineFault(f"dangling location {v}")
        s = store[v]
        if isinstance(s, (Obj, FutRef)):
            return v
        v = s
    return v


def evaluate(e, store, locals_):
    """The evaluation function; returns UNDEFINED for future arithmetic."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, RuntimeVal):
        return chase(e.value, store)
    if isinstance(e, MethodLit):
        return MethodVal(e.name)
    if isinstance(e, This):
        if "this" not in locals_:
            raise EngineFault("this unbound")
        return chase(locals_["this"], store)
    if isinstance(e, Var):
        if e.name in locals_:
            return chase(locals_[e.name], store)
        this = locals_.get("this")
        obj = store.get(this) if isinstance(this, Loc) else None
        if not isinstance(obj, Obj) or e.name not in obj.fields:
            raise EngineFault(f"unbound variable {e.name}")
        return chase(obj.fields[e.name], store)
    if isinstance(e, Unop):
        return unop(e.op, evaluate(e.operand, store, locals_))
    if isinstance(e, Binop):
        l = evaluate(e.left, store, locals_)
        if l is UNDEFINED:
            return UNDEFINED
        r = evaluate(e.right, store, locals_)
        if r is UNDEFINED:
            return UNDEFINED
        if e.op in ("==", "!=") and (_is_future_loc(l, store) or _is_future_loc(r, store)):
            return UNDEFINED
        return binop(e.op, l, r)
    raise EngineFault(f"not an expression: {e!r}")


def _is_future_loc(v, store) -> bool:
    return isinstance(v, Loc) and isinstance(store.get(v), FutRef)


def evaluate_list(exprs, store, locals_):
    out = []
    for e in exprs:
        v = evaluate(e, store, locals_)
        if v is UNDEFINED:
            return None
        out.append(v)
    return tuple(out)


def serialise(v, store, _seen=None) -> dict:
    """Least sub-store reachable from v; futures and names contribute nothing."""
    seen = set() if _seen is None else _seen
    piece = {}
    stack = [v]
    while stack:
        w = stack.pop()
        if isinstance(w, Loc):
            if w in seen:
                continue
            seen.add(w)
            if w not in store:
                raise EngineFault(f"dangling location {w}")
            piece[w] = store[w]
            stack.append(store[w])
        elif isinstance(w, Obj):
            stack.extend(w.fields.values())
    return piece


def serialise_all(values, store) -> dict:
    seen = set()
    piece = {}
    for v in values:
        piece.update(serialise(v, store, seen))
    return piece


def _map_value(v, mapping, strict=False):
    if isinstance(v, Loc):
        if strict and v not in mapping:
            raise EngineFault(f"piece not closed at {v}")
        return mapping.get(v, v)
    if isinstance(v, Obj):
        return Obj(
            v.cls,
            {k: _map_value(w, mapping, strict) for k, w in v.fields.items()},
        )
    return v


def rename_disjoint(base_store, values, piece, counter=None):
    """Consistently rename piece locations away from the base store.

    Returns (values', piece', next_counter). Fresh locations are drawn
    from ``counter`` when given, else above everything in base and piece.
    """
    if counter is None:
        used = [l.index for l in base_store] + [l.index for l in piece]
        counter = max(used, default=0)
    mapping = {}
    for loc in sorted(piece, key=lambda l: l.index):
        counter += 1
        mapping[loc] = Loc(counter)
    new_piece = {
        mapping[loc]: _map_value(storable, mapping, strict=True)
        for loc, storable in piece.items()
    }
    new_values = tuple(_map_value(v, mapping, strict=True) for v in values)
    return new_values, new_piece, counter


def ground(v, store):
    """Chase v to a comparable value; UNGROUND while a future is in the way."""
    try:
        w = chase(v, store)
    except EngineFault:
        return UNGROUND
    if isinstance(w, FutRef):
        return UNGROUND
    if isinstance(w, Loc) and isinstance(store.get(w), FutRef):
        return UNGROUND
    return w
