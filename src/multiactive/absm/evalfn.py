"""Expression evaluation for the cooperative engine: locals shadow
fields, futures are first-class values, no location indirection."""

from __future__ import annotations

from ..lang.ast_expr import Binop, Lit, MethodLit, RuntimeVal, This, Unop, Var
from ..values import UNDEFINED, EngineFault, FutRef, MethodVal, binop, unop


def abs_evaluate(e, fields, locals_):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, RuntimeVal):
        return e.value
    if isinstance(e, MethodLit):
        return MethodVal(e.name)
    if isinstance(e, This):
        if "this" not in locals_:
            raise EngineFault("this unbound")
        return locals_["this"]
    if isinstance(e, Var):
        if e.name in locals_:
            return locals_[e.name]
        if e.name in fields:
            return fields[e.name]
        raise EngineFault(f"unbound variable {e.name}")
    if isinstance(e, Unop):
        return unop(e.op, abs_evaluate(e.operand, fields, locals_))
    if isinstance(e, Binop):
        l = abs_evaluate(e.left, fields, locals_)
        if l is UNDEFINED:
            return UNDEFINED
        r = abs_evaluate(e.right, fields, locals_)
        if r is UNDEFINED:
            return UNDEFINED
        if e.op in ("==", "!=") and (isinstance(l, FutRef) or isinstance(r, FutRef)):
            # comparing unread futures would peek through explicit reads
            return UNDEFINED
        return binop(e.op, l, r)
    raise EngineFault(f"not an expression: {e!r}")


def abs_evaluate_list(exprs, fields, locals_):
    out = []
    for e in exprs:
        v = abs_evaluate(e, fields, locals_)
        if v is UNDEFINED:
            return None
        out.append(v)
    return tuple(out)
