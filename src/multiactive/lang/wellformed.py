"""Static well-formedness checks; diagnostics are the result, never raised."""

from __future__ import annotations

from ..diagnostics import NO_POS, Diagnostic
from .ast_abs import (
    AAssign,
    AAsync,
    AAwait,
    AbsProgram,
    AGet,
    AIf,
    ANew,
    AReturn,
    aseq_list,
    ASkip,
    ASuspend,
    ASync,
    GAnd,
    GBool,
    GFut,
)
from .ast_expr import Binop, Unop, Var
from .ast_masp import (
    MAssign,
    MaspProgram,
    MIf,
    MInvoke,
    MNew,
    MNewActive,
    MReturn,
    MSetLimit,
    MSkip,
    mseq_list,
)

MASP_RESERVED_FIELDS = ("this",)
ABS_RESERVED = ("this", "cog", "myId", "destiny", "cont")


def check_wellformed(program) -> list:
    if isinstance(program, MaspProgram):
        return _check_masp(program)
    if isinstance(program, AbsProgram):
        return _check_abs(program)
    raise TypeError(f"not a program: {program!r}")


def _expr_reads(e, out: list):
    if isinstance(e, Var):
        out.append((e.name, e.pos))
    elif isinstance(e, Binop):
        _expr_reads(e.left, out)
        _expr_reads(e.right, out)
    elif isinstance(e, Unop):
        _expr_reads(e.operand, out)


def _methods(c, reserved, diags):
    """The field and method-name checks both languages make on class ``c``;
    yields each method, once its own check is made, with its scope."""
    if len(set(c.fields)) != len(c.fields):
        diags.append(Diagnostic(c.pos, f"duplicate field in class {c.name}"))
    for f in c.fields:
        if f in reserved:
            diags.append(Diagnostic(c.pos, f"field name {f} is reserved"))
    seen = set()
    for m in c.methods:
        if m.name in seen:
            diags.append(Diagnostic(m.pos, f"duplicate method {c.name}.{m.name}"))
        seen.add(m.name)
        yield m, set(m.params) | set(m.locals) | set(c.fields) | {"this"}


def _check_undeclared(uses, scope, diags):
    for name, pos in uses:
        if name not in scope:
            diags.append(Diagnostic(pos, f"undeclared variable {name}"))


def _check_news(p, news, diags):
    for r in news:
        cls = p.cls(r.cls)
        if cls is None:
            diags.append(Diagnostic(r.pos, f"undefined class {r.cls}"))
        elif len(r.args) != len(cls.fields):
            diags.append(
                Diagnostic(
                    r.pos,
                    f"class {r.cls} takes {len(cls.fields)} arguments,"
                    f" got {len(r.args)}",
                )
            )


# -- multi-active object language -------------------------------------------


def _masp_stmt_uses(s, reads: list, writes: list, news: list, varargs: list):
    for part in mseq_list(s):
        if isinstance(part, (MSkip, MSetLimit)):
            continue
        if isinstance(part, MReturn):
            _expr_reads(part.expr, reads)
        elif isinstance(part, MAssign):
            writes.append((part.target, part.pos))
            r = part.rhs
            if isinstance(r, (MNew, MNewActive)):
                news.append(r)
                for a in r.args:
                    _expr_reads(a, reads)
            elif isinstance(r, MInvoke):
                _expr_reads(r.target, reads)
                if r.method_var:
                    reads.append((r.method_var, r.pos))
                for a in r.args:
                    _expr_reads(a, reads)
                if r.vararg:
                    varargs.append((r.vararg, r.pos))
            else:
                _expr_reads(r, reads)
        elif isinstance(part, MIf):
            _expr_reads(part.cond, reads)
            _masp_stmt_uses(part.then, reads, writes, news, varargs)
            _masp_stmt_uses(part.els, reads, writes, news, varargs)


def _check_masp(p: MaspProgram) -> list:
    diags = []
    seen = set()
    for c in p.classes:
        if c.name in seen:
            diags.append(Diagnostic(c.pos, f"duplicate class {c.name}"))
        seen.add(c.name)

    for c in p.classes:
        declared_groups = set()
        if c.policy is not None:
            diags.extend(_check_policy(c))
            declared_groups = {g.name for g in c.policy.groups}
        for m, scope in _methods(c, MASP_RESERVED_FIELDS, diags):
            if m.group is not None and m.group not in declared_groups:
                diags.append(
                    Diagnostic(m.pos, f"method {m.name} in undeclared group {m.group}")
                )
            if m.vararg:
                scope.add(m.vararg)
            _check_masp_block(p, m.body, scope, m.vararg, diags)
    _check_masp_block(
        p, p.main_body, set(p.main_locals) | {"this"}, None, diags
    )
    return diags


def _check_masp_block(p, body, scope, vararg, diags):
    reads, writes, news, varargs = [], [], [], []
    _masp_stmt_uses(body, reads, writes, news, varargs)
    _check_undeclared(reads + writes, scope, diags)
    for name, pos in varargs:
        if name != vararg:
            diags.append(Diagnostic(pos, f"{name}... is not the rest-parameter"))
    _check_news(p, news, diags)


def _check_policy(c) -> list:
    diags = []
    pol = c.policy
    names = [g.name for g in pol.groups]
    if len(set(names)) != len(names):
        diags.append(Diagnostic(c.pos, f"duplicate group in class {c.name}"))
    declared = set(names)
    total_min = 0
    for g in pol.groups:
        if g.min_threads < 0:
            diags.append(Diagnostic(g.pos, f"group {g.name}: negative min"))
        if g.max_threads is not None and g.max_threads < g.min_threads:
            diags.append(Diagnostic(g.pos, f"group {g.name}: max below min"))
        total_min += g.min_threads
    if pol.thread_pool_size is not None and total_min > pol.thread_pool_size:
        diags.append(
            Diagnostic(c.pos, f"class {c.name}: reserved threads exceed pool")
        )
    for pair in pol.compatible_pairs:
        for name in pair:
            if name not in declared:
                diags.append(
                    Diagnostic(c.pos, f"compatible rule names unknown group {name}")
                )
    prio_seen = set()
    for level in pol.priority_levels:
        for name in level:
            if name not in declared:
                diags.append(
                    Diagnostic(c.pos, f"priority names unknown group {name}")
                )
            if name in prio_seen:
                diags.append(
                    Diagnostic(c.pos, f"group {name} at two priority levels")
                )
            prio_seen.add(name)
    return diags


# -- cooperative active-object language --------------------------------------


def _guard_reads(g, reads: list):
    if isinstance(g, GBool):
        _expr_reads(g.expr, reads)
    elif isinstance(g, GFut):
        reads.append((g.var, g.pos))
    elif isinstance(g, GAnd):
        _guard_reads(g.left, reads)
        _guard_reads(g.right, reads)


def _abs_stmt_uses(s, reads: list, writes: list, news: list):
    for part in aseq_list(s):
        if isinstance(part, (ASkip, ASuspend)):
            continue
        if isinstance(part, AReturn):
            _expr_reads(part.expr, reads)
        elif isinstance(part, AAwait):
            _guard_reads(part.guard, reads)
        elif isinstance(part, AAssign):
            writes.append((part.target, part.pos))
            r = part.rhs
            if isinstance(r, ANew):
                news.append(r)
                for a in r.args:
                    _expr_reads(a, reads)
            elif isinstance(r, (ASync, AAsync)):
                _expr_reads(r.target, reads)
                for a in r.args:
                    _expr_reads(a, reads)
            elif isinstance(r, AGet):
                _expr_reads(r.expr, reads)
            else:
                _expr_reads(r, reads)
        elif isinstance(part, AIf):
            _expr_reads(part.cond, reads)
            _abs_stmt_uses(part.then, reads, writes, news)
            _abs_stmt_uses(part.els, reads, writes, news)


def _check_abs(p: AbsProgram) -> list:
    diags = []
    seen = set()
    for c in p.classes:
        if c.name in seen:
            diags.append(Diagnostic(c.pos, f"duplicate class {c.name}"))
        seen.add(c.name)
        if c.name == "COG":
            diags.append(
                Diagnostic(c.pos, "class name COG is reserved for the backend")
            )
    for c in p.classes:
        for m, scope in _methods(c, ABS_RESERVED, diags):
            for name in (*m.params, *m.locals):
                if name in ABS_RESERVED:
                    diags.append(Diagnostic(m.pos, f"name {name} is reserved"))
            _check_abs_block(p, m.body, scope, diags)
    for name in p.main_locals:
        if name in ABS_RESERVED:
            diags.append(Diagnostic(NO_POS, f"name {name} is reserved"))
    _check_abs_block(p, p.main_body, set(p.main_locals) | {"this"}, diags)
    return diags


def _check_abs_block(p, body, scope, diags):
    reads, writes, news = [], [], []
    _abs_stmt_uses(body, reads, writes, news)
    _check_undeclared(reads + writes, scope, diags)
    _check_news(p, news, diags)
