"""Deterministic printers; parse(pretty(p)) is the identity on ASTs.

One statement printer serves both languages: it dispatches on the node's
class, and the two languages' classes are disjoint. Both programs print
through one skeleton; only the multi-active language's policy block and
method signatures (rest-parameter, group) are its own.
"""

from __future__ import annotations

from .ast_abs import (
    AAssign,
    AAsync,
    AAwait,
    AbsProgram,
    AGet,
    AIf,
    ANew,
    AReturn,
    ASeq,
    ASkip,
    ASuspend,
    ASync,
    GAnd,
    GBool,
    GFut,
)
from .ast_expr import Binop, Lit, MethodLit, RuntimeVal, This, Unop, Var, seq_list
from .ast_masp import (
    MAssign,
    MaspProgram,
    MIf,
    MInvoke,
    MNew,
    MNewActive,
    MReturn,
    MSeq,
    MSetLimit,
    MSkip,
)
from ..values import show_value

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}
_UNARY_PREC = 6


def pp_expr(e, prec: int = 0) -> str:
    if isinstance(e, Lit):
        return show_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, This):
        return "this"
    if isinstance(e, MethodLit):
        return f"@{e.name}"
    if isinstance(e, RuntimeVal):
        return f"<{show_value(e.value)}>"
    if isinstance(e, Unop):
        s = e.op + pp_expr(e.operand, _UNARY_PREC)
        return f"({s})" if prec > _UNARY_PREC else s
    if isinstance(e, Binop):
        p = _PREC[e.op]
        s = f"{pp_expr(e.left, p)} {e.op} {pp_expr(e.right, p + 1)}"
        return f"({s})" if prec > p else s
    raise TypeError(f"not an expression: {e!r}")


def _args(args, vararg=None) -> str:
    parts = [pp_expr(a) for a in args]
    if vararg:
        parts.append(f"{vararg}...")
    return ", ".join(parts)


def _pp_rhs(r) -> str:
    if isinstance(r, MNew):
        return f"new {r.cls}({_args(r.args)})"
    if isinstance(r, MNewActive):
        return f"newActive {r.cls}({_args(r.args)})"
    if isinstance(r, MInvoke):
        recv = pp_expr(r.target, _UNARY_PREC + 1)
        m = f"({r.method_var})" if r.method_var else r.method
        return f"{recv}.{m}({_args(r.args, r.vararg)})"
    if isinstance(r, ANew):
        node = f' "{r.node}"' if r.node is not None else ""
        kw = "new local" if r.local else "new"
        return f"{kw}{node} {r.cls}({_args(r.args)})"
    if isinstance(r, AAsync):
        return f"{pp_expr(r.target, _UNARY_PREC + 1)}!{r.method}({_args(r.args)})"
    if isinstance(r, ASync):
        return f"{pp_expr(r.target, _UNARY_PREC + 1)}.{r.method}({_args(r.args)})"
    if isinstance(r, AGet):
        return f"{pp_expr(r.expr, _UNARY_PREC + 1)}.get"
    return pp_expr(r)


def _pp_guard(g) -> str:
    if isinstance(g, GBool):
        return pp_expr(g.expr, 3)  # above && so conjuncts re-parse apart
    if isinstance(g, GFut):
        return f"{g.var}?"
    if isinstance(g, GAnd):
        return f"{_pp_guard(g.left)} && {_pp_guard(g.right)}"
    raise TypeError(f"not a guard: {g!r}")


def _pp_stmt(s, ind: str, out: list):
    if isinstance(s, (MSkip, ASkip)):
        out.append(f"{ind}skip")
    elif isinstance(s, MSetLimit):
        out.append(f"{ind}setLimitHard" if s.kind == "H" else f"{ind}setLimitSoft")
    elif isinstance(s, ASuspend):
        out.append(f"{ind}suspend")
    elif isinstance(s, (MReturn, AReturn)):
        out.append(f"{ind}return {pp_expr(s.expr)}")
    elif isinstance(s, AAwait):
        out.append(f"{ind}await {_pp_guard(s.guard)}")
    elif isinstance(s, (MAssign, AAssign)):
        out.append(f"{ind}{s.target} = {_pp_rhs(s.rhs)}")
    elif isinstance(s, (MIf, AIf)):
        out.append(f"{ind}if ({pp_expr(s.cond)}) {{")
        _pp_body(s.then, ind + "  ", out)
        out.append(f"{ind}}} else {{")
        _pp_body(s.els, ind + "  ", out)
        out.append(f"{ind}}}")
    else:
        raise TypeError(f"not a statement: {s!r}")


def _pp_body(body, ind: str, out: list):
    stmts = seq_list(body, (MSeq, ASeq))
    for k, s in enumerate(stmts):
        _pp_stmt(s, ind, out)
        if k < len(stmts) - 1:
            out[-1] += ";"


def _pp_program(p, signature, policy=None) -> str:
    """Classes, then the main block; ``signature(m)`` writes a method's
    parameters (and group), ``policy(c, out)`` a class's policy block."""
    out = []
    for c in p.classes:
        out.append(f"class {c.name}({', '.join(c.fields)}) {{")
        if policy is not None:
            policy(c, out)
        for m in c.methods:
            out.append(f"  method {m.name}{signature(m)} {{")
            if m.locals:
                out.append(f"    vars {', '.join(m.locals)};")
            _pp_body(m.body, "    ", out)
            out.append("  }")
        out.append("}")
    out.append("{")
    if p.main_locals:
        out.append(f"  vars {', '.join(p.main_locals)};")
    _pp_body(p.main_body, "  ", out)
    out.append("}")
    return "\n".join(out) + "\n"


# -- what only the multi-active object language has --------------------------


def _pp_policy(c, out: list):
    p = c.policy
    if p is None:
        return
    out.append("  policy {")
    for g in p.groups:
        bits = [f"group {g.name}"]
        if g.self_compatible:
            bits.append("selfcompatible")
        if g.min_threads:
            bits.append(f"min {g.min_threads}")
        if g.max_threads is not None:
            bits.append(f"max {g.max_threads}")
        out.append("    " + " ".join(bits) + ";")
    for pair in sorted(tuple(sorted(fs)) for fs in p.compatible_pairs):
        out.append(f"    compatible {pair[0]} {pair[-1]};")
    if p.thread_pool_size is not None or p.hard_limit_default:
        pool = "" if p.thread_pool_size is None else f" pool {p.thread_pool_size}"
        kind = " hard" if p.hard_limit_default else " soft"
        out.append(f"    threads{pool}{kind};")
    if p.priority_levels:
        levels = " > ".join(" ".join(level) for level in p.priority_levels)
        out.append(f"    priority {levels};")
    out.append("  }")


def _masp_signature(m) -> str:
    params = m.params + (f"{m.vararg}...",) if m.vararg else m.params
    group = f" group {m.group}" if m.group else ""
    return f"({', '.join(params)}){group}"


def pretty_masp(p: MaspProgram) -> str:
    return _pp_program(p, _masp_signature, _pp_policy)


def pretty_abs(p: AbsProgram) -> str:
    return _pp_program(p, lambda m: f"({', '.join(m.params)})")
