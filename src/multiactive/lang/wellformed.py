"""Static well-formedness checks; diagnostics are the result, never raised.

Both languages are read through one structural walk, ``syntax_uses``. It
takes a statement, guard or expression tree field by field in declaration
order (``node_fields``), so names come out in source order. A ``Var`` is a
read at its own position, an ``MNew``, ``MNewActive`` or ``ANew`` node is a
construction, and ``NAME_FIELDS`` names the string fields that carry a
variable, with the role the variable plays there:

    MAssign.target, AAssign.target      written
    MInvoke.method_var, GFut.var        read
    MInvoke.vararg                      a rest-argument

Every other string field (a method, class or node name) names no variable.
"""

from __future__ import annotations

from ..diagnostics import NO_POS, Diagnostic
from .ast_abs import AAssign, AbsProgram, ANew, GFut
from .ast_expr import Var, node_fields
from .ast_masp import MAssign, MaspProgram, MInvoke, MNew, MNewActive

MASP_RESERVED_FIELDS = ("this",)
ABS_RESERVED = ("this", "cog", "myId", "destiny", "cont")


def check_wellformed(program) -> list:
    if isinstance(program, MaspProgram):
        return _check_masp(program)
    if isinstance(program, AbsProgram):
        return _check_abs(program)
    raise TypeError(f"not a program: {program!r}")


NAME_FIELDS = {
    (MAssign, "target"): "write",
    (AAssign, "target"): "write",
    (MInvoke, "method_var"): "read",
    (GFut, "var"): "read",
    (MInvoke, "vararg"): "rest",
}
_CONSTRUCTIONS = (MNew, MNewActive, ANew)


def syntax_uses(node, out=None) -> list:
    """``(role, name, pos)`` for each use of a name in the syntax tree
    ``node``, in source order: a "read", a "write", a "rest" argument, or
    a "new" construction, which carries its node in place of a name."""
    if out is None:
        out = []
    cls = node.__class__
    if cls is tuple:
        for x in node:
            syntax_uses(x, out)
        return out
    if cls is Var:
        out.append(("read", node.name, node.pos))
        return out
    fields = node_fields[cls]
    if fields is None:  # a name, a constant or a runtime value
        return out
    if cls in _CONSTRUCTIONS:
        out.append(("new", node, node.pos))
    for f in fields:
        value = getattr(node, f)
        role = NAME_FIELDS.get((cls, f))
        if role is None:
            syntax_uses(value, out)
        elif value is not None:
            out.append((role, value, node.pos))
    return out


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


_ROLE_ORDER = {"read": 0, "write": 1, "rest": 2, "new": 3}


def _check_block(p, body, scope, vararg, diags):
    """A body's reads, then its writes, then its rest-arguments, then its
    constructions, each group in source order."""
    for role, x, pos in sorted(syntax_uses(body), key=lambda u: _ROLE_ORDER[u[0]]):
        if role == "new":
            cls = p.cls(x.cls)
            if cls is None:
                diags.append(Diagnostic(pos, f"undefined class {x.cls}"))
            elif len(x.args) != len(cls.fields):
                diags.append(
                    Diagnostic(
                        pos,
                        f"class {x.cls} takes {len(cls.fields)} arguments,"
                        f" got {len(x.args)}",
                    )
                )
        elif role == "rest":
            if x != vararg:
                diags.append(Diagnostic(pos, f"{x}... is not the rest-parameter"))
        elif x not in scope:
            diags.append(Diagnostic(pos, f"undeclared variable {x}"))


# -- multi-active object language -------------------------------------------


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
            _check_block(p, m.body, scope, m.vararg, diags)
    _check_block(p, p.main_body, set(p.main_locals) | {"this"}, None, diags)
    return diags


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
            _check_block(p, m.body, scope, None, diags)
    for name in p.main_locals:
        if name in ABS_RESERVED:
            diags.append(Diagnostic(NO_POS, f"name {name} is reserved"))
    _check_block(p, p.main_body, set(p.main_locals) | {"this"}, None, diags)
    return diags
