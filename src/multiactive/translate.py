"""Source-to-source translation from the cooperative language to the
multi-active language.

Every user class is extended with ``cog``/``myId`` fields and the
addressing methods; one COG scheduler class is injected; object creation,
calls, future reads and awaits are rewritten clause by clause. Boolean
await guards become generated ``condition_<k>`` methods evaluated through
``execute_condition``; the busy-wait loop is encoded as guarded
self-recursion (the target grammar has no while).

Every statement emitted for a cooperative statement carries its
``origin`` (``ast_masp.Origin``): the cooperative construct it came from,
and whether its step realises that construct's cooperative rule (the
object's creation, the call, the future's read, the assignment, the
branch) or is plumbing around it. The assignment that binds a created
object is the cooperative assignment that creation leaves behind, so its
construct is ``assign``. Statements nested in a generated branch, and
the bodies of condition methods, are plumbing of their construct. The
scheduler's bodies and the addressing methods (``cog``, ``myId``,
``get``) have no origin. ``simulate`` reads the origin to tell the
proved fragment and each step's cooperative response.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, NO_POS
from .lang.ast_abs import (
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
from .lang.ast_expr import Binop, Lit, MethodLit, This, Unop, Var
from .lang.ast_masp import (
    GroupDecl,
    GroupPolicy,
    MAssign,
    MaspClass,
    MaspMethod,
    MaspProgram,
    MIf,
    MInvoke,
    MNew,
    MNewActive,
    MReturn,
    MSeq,
    MSetLimit,
    MSkip,
    Origin,
    mseq,
)
from .lang.wellformed import syntax_uses
from .values import FutRef

RESERVED_METHODS = ("cog", "myId", "get")
COG_METHODS = ("freshId", "register", "retrieve", "execute", "execute_condition")


class TranslateError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class TranslationContext:
    """Per-class state: reserved temporaries and generated condition methods."""

    prefix: str = "§"
    in_main: bool = False
    condition_methods: list = field(default_factory=list)
    condition_counter: int = 0
    needs_condition_true: bool = False
    diagnostics: list = field(default_factory=list)
    scope: tuple = ()  # params + locals of the enclosing method

    def temp(self, name: str) -> str:
        return self.prefix + name

    def temps(self) -> tuple:
        return tuple(self.temp(n) for n in ("t", "b", "id", "w", "z", "no", "newcog"))


def _pick_prefix(p: AbsProgram) -> str:
    names = set()
    for c in p.classes:
        names.add(c.name)
        names.update(c.fields)
        for m in c.methods:
            names.add(m.name)
            names.update(m.params)
            names.update(m.locals)
    names.update(p.main_locals)
    prefix = "§"
    while any(n.startswith(prefix) for n in names):
        prefix += "§"
    return prefix


def cog_class() -> MaspClass:
    """The scheduler class; freshId/register/retrieve bodies are native."""
    pol = GroupPolicy(
        groups=(
            GroupDecl("allocation", False, 0, 1),
            GroupDecl("scheduling", True, 0, 1),
            GroupDecl("registration", True, 0, None),
            GroupDecl("conditions", True, 0, None),
        ),
        compatible_pairs=frozenset(
            frozenset(p)
            for p in (
                ("allocation", "scheduling"),
                ("allocation", "registration"),
                ("allocation", "conditions"),
                ("scheduling", "registration"),
                ("scheduling", "conditions"),
                ("registration", "conditions"),
            )
        ),
    )
    dispatch = mseq(
        [
            MAssign("w", MInvoke(This(), "retrieve", None, (Var("id"),))),
            MAssign("x", MInvoke(Var("w"), None, "m", (), "args")),
            MReturn(Var("x")),
        ]
    )
    return MaspClass(
        name="COG",
        fields=(),
        methods=(
            MaspMethod("freshId", (), (), MSkip(), "allocation"),
            MaspMethod("register", ("x", "id"), (), MSkip(), "registration"),
            MaspMethod("retrieve", ("id",), (), MSkip(), None),
            MaspMethod("execute", ("id", "m"), ("w", "x"), dispatch, "scheduling", "args"),
            MaspMethod(
                "execute_condition", ("id", "m"), ("w", "x"), dispatch, "conditions", "args"
            ),
        ),
        policy=pol,
    )


def translate_program(p: AbsProgram) -> MaspProgram:
    """Whole-program translation; raises TranslateError on untranslatable input."""
    diags = []
    for c in p.classes:
        if c.name == "COG":
            diags.append(Diagnostic(c.pos, "class name COG is reserved"))
        for m in c.methods:
            if m.name in RESERVED_METHODS or m.name in COG_METHODS:
                diags.append(
                    Diagnostic(m.pos, f"method name {m.name} is reserved")
                )
    if _main_needs_conditions(p.main_body):
        diags.append(
            Diagnostic(
                NO_POS,
                "await on boolean guards and suspend are not supported in the main block",
            )
        )
    if diags:
        raise TranslateError(diags)
    prefix = _pick_prefix(p)
    classes = [cog_class()]
    for c in p.classes:
        classes.append(_translate_class(c, prefix))
    main_ctx = TranslationContext(prefix=prefix, in_main=True, scope=tuple(p.main_locals))
    main_body = _translate_stmts(p.main_body, main_ctx)
    return MaspProgram(
        classes=tuple(classes),
        main_locals=tuple(p.main_locals) + main_ctx.temps(),
        main_body=mseq(main_body),
    )


def _main_needs_conditions(body) -> bool:
    for s in aseq_list(body):
        if isinstance(s, ASuspend):
            return True
        if isinstance(s, AAwait) and _has_bool_guard(s.guard):
            return True
        if isinstance(s, AIf):
            if _main_needs_conditions(s.then) or _main_needs_conditions(s.els):
                return True
    return False


def _has_bool_guard(g) -> bool:
    if isinstance(g, GBool):
        return True
    if isinstance(g, GAnd):
        return _has_bool_guard(g.left) or _has_bool_guard(g.right)
    return False


def _translate_class(c, prefix: str) -> MaspClass:
    ctx = TranslationContext(prefix=prefix)
    methods = []
    for m in c.methods:
        ctx.scope = tuple(m.params) + tuple(m.locals)
        body = _translate_stmts(m.body, ctx)
        methods.append(
            MaspMethod(
                m.name,
                tuple(m.params),
                tuple(m.locals) + ctx.temps(),
                mseq(body),
                None,
            )
        )
    methods.append(MaspMethod("cog", (), (), MReturn(Var("cog")), None))
    methods.append(MaspMethod("myId", (), (), MReturn(Var("myId")), None))
    methods.append(MaspMethod("get", (), (), MReturn(Lit(None)), None))
    if ctx.needs_condition_true:
        methods.append(
            _condition_method(ctx, "condition_True", (), Lit(True), "suspend")
        )
    methods.extend(ctx.condition_methods)
    return MaspClass(
        name=c.name,
        fields=tuple(c.fields) + ("cog", "myId"),
        methods=tuple(methods),
        policy=None,
    )


def _condition_method(ctx, name, params: tuple, guard_expr, construct) -> MaspMethod:
    r = ctx.temp("r")
    retry = mseq(
        [
            MAssign(r, MInvoke(This(), name, None, tuple(Var(x) for x in params))),
            MReturn(Var(r)),
        ]
    )
    body = _marked(MIf(guard_expr, MReturn(Lit(None)), retry), Origin(construct))
    return MaspMethod(name, params, (r,), body, None)


def _translate_stmts(body, ctx) -> list:
    out = []
    for s in aseq_list(body):
        out.extend(translate_statement(s, ctx))
    return out or [MSkip()]


def _marked(s, origin):
    """``s`` and the statements nested in it, marked with ``origin``."""
    if isinstance(s, MIf):
        plumbing = Origin(origin.construct)
        s = replace(s, then=_marked(s.then, plumbing), els=_marked(s.els, plumbing))
    elif isinstance(s, MSeq):
        return replace(s, first=_marked(s.first, origin), rest=_marked(s.rest, origin))
    return replace(s, origin=origin)


def _from(construct, stmts, *steps) -> list:
    """``stmts``, translated from a ``construct``: those at the indices
    ``steps`` realise its cooperative rule, the others are plumbing."""
    return [_marked(t, Origin(construct, i in steps)) for i, t in enumerate(stmts)]


def translate_statement(s, ctx: TranslationContext) -> list:
    """One statement to its list of target statements (Fig-for-fig
    clauses), each marked with its origin."""
    t, b, idv, w, z, no, newcog = ctx.temps()
    if isinstance(s, ASkip):
        return _from("skip", [MSkip(pos=s.pos)], 0)
    if isinstance(s, AReturn):
        return _from("return", [MReturn(s.expr, pos=s.pos)], 0)
    if isinstance(s, AIf):
        then = mseq(_translate_stmts(s.then, ctx))
        els = mseq(_translate_stmts(s.els, ctx))
        return [MIf(s.cond, then, els, pos=s.pos, origin=Origin("if", True))]
    if isinstance(s, ASuspend):
        ctx.needs_condition_true = True
        return _from("suspend", _conditional_wait(ctx, "condition_True", ()), 3)
    if isinstance(s, AAwait):
        return _translate_await(s.guard, ctx)
    if isinstance(s, AAssign):
        return _translate_assign(s, ctx)
    raise TranslateError([Diagnostic(s.pos, f"untranslatable statement {s!r}")])


def _conditional_wait(ctx, name: str, args: tuple) -> list:
    """Wait on a ``name`` request to this object's cog."""
    t, b, idv, w, z, no, newcog = ctx.temps()
    request = (Var(idv), MethodLit(name)) + args
    return [
        MAssign(t, MInvoke(This(), "cog", None, ())),
        MAssign(idv, MInvoke(This(), "myId", None, ())),
        MAssign(z, MInvoke(Var(t), "execute_condition", None, request)),
        MAssign(w, MInvoke(Var(z), "get", None, ())),
    ]


def _translate_await(g, ctx) -> list:
    t, b, idv, w, z, no, newcog = ctx.temps()
    if isinstance(g, GAnd):
        return _translate_await(g.left, ctx) + _translate_await(g.right, ctx)
    if isinstance(g, GFut):
        return _from("await", [MAssign(w, MInvoke(Var(g.var), "get", None, ()))], 0)
    # boolean guard: one generated condition method per await site
    ctx.condition_counter += 1
    name = f"condition_{ctx.condition_counter}"
    reads = dict.fromkeys(v for _, v, _ in syntax_uses(g.expr))
    used = [v for v in reads if v in ctx.scope]
    ctx.condition_methods.append(
        _condition_method(ctx, name, tuple(used), g.expr, "guard")
    )
    call = _conditional_wait(ctx, name, tuple(Var(x) for x in used))
    return _from("guard", [MIf(Unop("!", g.expr), mseq(call), MSkip(), pos=g.pos)], 0)


def _execute_call(x, t, idv, rhs) -> MAssign:
    """``x = t.execute(idv, @m, args)`` for the call ``rhs`` of ``m``."""
    args = (Var(idv), MethodLit(rhs.method)) + tuple(rhs.args)
    return MAssign(x, MInvoke(Var(t), "execute", None, args))


def _translate_assign(s, ctx) -> list:
    t, b, idv, w, z, no, newcog = ctx.temps()
    x, rhs = s.target, s.rhs
    if isinstance(rhs, ANew):
        if rhs.local:
            cog, setup = Var(t), MAssign(t, MInvoke(This(), "cog", None, ()))
        else:
            cog, setup = Var(newcog), MAssign(newcog, MNewActive("COG", ()))
        made = [
            setup,
            MAssign(idv, MInvoke(cog, "freshId", None, ())),
            MAssign(no, MNew(rhs.cls, tuple(rhs.args) + (cog, Var(idv)))),
            MAssign(z, MInvoke(cog, "register", None, (Var(no), Var(idv)))),
        ]
        # the object is there once made in its own cog, or once registered
        # in a fresh one; the binding is the assignment the rule leaves
        return _from("new", made, 2 if rhs.local else 3) + _from(
            "assign", [MAssign(x, Var(no))], 0
        )
    if isinstance(rhs, AAsync):
        return _from(
            "async",
            [
                MAssign(t, MInvoke(rhs.target, "cog", None, ())),
                MAssign(idv, MInvoke(rhs.target, "myId", None, ())),
                _execute_call(x, t, idv, rhs),
            ],
            2,
        )
    if isinstance(rhs, ASync):
        remote = mseq(
            [
                MAssign(idv, MInvoke(rhs.target, "myId", None, ())),
                _execute_call(x, t, idv, rhs),
                MSetLimit("H"),
                MAssign(w, MInvoke(Var(x), "get", None, ())),
                MSetLimit("S"),
            ]
        )
        local = mseq([MAssign(x, MInvoke(rhs.target, rhs.method, None, tuple(rhs.args)))])
        return _from(
            "sync",
            [
                MAssign(t, MInvoke(rhs.target, "cog", None, ())),
                MAssign(b, MInvoke(This(), "cog", None, ())),
                MIf(Binop("==", Var(t), Var(b)), local, remote, pos=s.pos),
            ],
            2,
        )
    if isinstance(rhs, AGet):
        return _from(
            "get",
            [
                MSetLimit("H"),
                MAssign(w, MInvoke(rhs.expr, "get", None, ())),
                MSetLimit("S"),
                MAssign(x, rhs.expr),
            ],
            3,
        )
    return _from("assign", [MAssign(x, rhs, pos=s.pos)], 0)


def detect_future_of_future(abs_config) -> bool:
    """A resolved future whose value is itself a future name (restriction 3)."""
    return any(isinstance(v, FutRef) for v in abs_config.futures.values())
