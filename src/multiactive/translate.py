"""Source-to-source translation from the cooperative language to the
multi-active language.

Every user class is extended with ``cog``/``myId`` fields and the
addressing methods; one COG scheduler class is injected; object creation,
calls, future reads and awaits are rewritten clause by clause. Boolean
await guards become generated ``condition_<k>`` methods evaluated through
``execute_condition``; the busy-wait loop is encoded as guarded
self-recursion (the target grammar has no while).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    MSetLimit,
    MSkip,
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
        methods.append(_condition_method(ctx, "condition_True", (), Lit(True)))
    methods.extend(ctx.condition_methods)
    return MaspClass(
        name=c.name,
        fields=tuple(c.fields) + ("cog", "myId"),
        methods=tuple(methods),
        policy=None,
    )


def _condition_method(ctx, name: str, params: tuple, guard_expr) -> MaspMethod:
    r = ctx.temp("r")
    retry = mseq(
        [
            MAssign(r, MInvoke(This(), name, None, tuple(Var(x) for x in params))),
            MReturn(Var(r)),
        ]
    )
    body = MIf(guard_expr, MReturn(Lit(None)), retry)
    return MaspMethod(name, params, (r,), body, None)


def _translate_stmts(body, ctx) -> list:
    out = []
    for s in aseq_list(body):
        out.extend(translate_statement(s, ctx))
    return out or [MSkip()]


def translate_statement(s, ctx: TranslationContext) -> list:
    """One statement to its list of target statements (Fig-for-fig clauses)."""
    t, b, idv, w, z, no, newcog = ctx.temps()
    if isinstance(s, ASkip):
        return [MSkip(pos=s.pos)]
    if isinstance(s, AReturn):
        return [MReturn(s.expr, pos=s.pos)]
    if isinstance(s, AIf):
        return [
            MIf(
                s.cond,
                mseq(_translate_stmts(s.then, ctx)),
                mseq(_translate_stmts(s.els, ctx)),
                pos=s.pos,
            )
        ]
    if isinstance(s, ASuspend):
        ctx.needs_condition_true = True
        return [
            MAssign(t, MInvoke(This(), "cog", None, ())),
            MAssign(idv, MInvoke(This(), "myId", None, ())),
            MAssign(
                z,
                MInvoke(
                    Var(t),
                    "execute_condition",
                    None,
                    (Var(idv), MethodLit("condition_True")),
                ),
            ),
            MAssign(w, MInvoke(Var(z), "get", None, ())),
        ]
    if isinstance(s, AAwait):
        return _translate_await(s.guard, ctx)
    if isinstance(s, AAssign):
        return _translate_assign(s, ctx)
    raise TranslateError([Diagnostic(s.pos, f"untranslatable statement {s!r}")])


def _translate_await(g, ctx) -> list:
    t, b, idv, w, z, no, newcog = ctx.temps()
    if isinstance(g, GAnd):
        return _translate_await(g.left, ctx) + _translate_await(g.right, ctx)
    if isinstance(g, GFut):
        return [MAssign(w, MInvoke(Var(g.var), "get", None, ()))]
    # boolean guard: one generated condition method per await site
    ctx.condition_counter += 1
    name = f"condition_{ctx.condition_counter}"
    reads = dict.fromkeys(v for _, v, _ in syntax_uses(g.expr))
    used = [v for v in reads if v in ctx.scope]
    ctx.condition_methods.append(
        _condition_method(ctx, name, tuple(used), g.expr)
    )
    call = [
        MAssign(t, MInvoke(This(), "cog", None, ())),
        MAssign(idv, MInvoke(This(), "myId", None, ())),
        MAssign(
            z,
            MInvoke(
                Var(t),
                "execute_condition",
                None,
                (Var(idv), MethodLit(name)) + tuple(Var(x) for x in used),
            ),
        ),
        MAssign(w, MInvoke(Var(z), "get", None, ())),
    ]
    return [MIf(Unop("!", g.expr), mseq(call), MSkip(), pos=g.pos)]


def _translate_assign(s, ctx) -> list:
    t, b, idv, w, z, no, newcog = ctx.temps()
    x, rhs = s.target, s.rhs
    if isinstance(rhs, ANew):
        ctor_args = tuple(rhs.args)
        if not rhs.local:
            return [
                MAssign(newcog, MNewActive("COG", ())),
                MAssign(idv, MInvoke(Var(newcog), "freshId", None, ())),
                MAssign(no, MNew(rhs.cls, ctor_args + (Var(newcog), Var(idv)))),
                MAssign(z, MInvoke(Var(newcog), "register", None, (Var(no), Var(idv)))),
                MAssign(x, Var(no)),
            ]
        return [
            MAssign(t, MInvoke(This(), "cog", None, ())),
            MAssign(idv, MInvoke(Var(t), "freshId", None, ())),
            MAssign(no, MNew(rhs.cls, ctor_args + (Var(t), Var(idv)))),
            MAssign(z, MInvoke(Var(t), "register", None, (Var(no), Var(idv)))),
            MAssign(x, Var(no)),
        ]
    if isinstance(rhs, AAsync):
        return [
            MAssign(t, MInvoke(rhs.target, "cog", None, ())),
            MAssign(idv, MInvoke(rhs.target, "myId", None, ())),
            MAssign(
                x,
                MInvoke(
                    Var(t),
                    "execute",
                    None,
                    (Var(idv), MethodLit(rhs.method)) + tuple(rhs.args),
                ),
            ),
        ]
    if isinstance(rhs, ASync):
        remote = mseq(
            [
                MAssign(idv, MInvoke(rhs.target, "myId", None, ())),
                MAssign(
                    x,
                    MInvoke(
                        Var(t),
                        "execute",
                        None,
                        (Var(idv), MethodLit(rhs.method)) + tuple(rhs.args),
                    ),
                ),
                MSetLimit("H"),
                MAssign(w, MInvoke(Var(x), "get", None, ())),
                MSetLimit("S"),
            ]
        )
        local = mseq([MAssign(x, MInvoke(rhs.target, rhs.method, None, tuple(rhs.args)))])
        return [
            MAssign(t, MInvoke(rhs.target, "cog", None, ())),
            MAssign(b, MInvoke(This(), "cog", None, ())),
            MIf(Binop("==", Var(t), Var(b)), local, remote, pos=s.pos),
        ]
    if isinstance(rhs, AGet):
        return [
            MSetLimit("H"),
            MAssign(w, MInvoke(rhs.expr, "get", None, ())),
            MSetLimit("S"),
            MAssign(x, rhs.expr),
        ]
    return [MAssign(x, rhs, pos=s.pos)]


def detect_future_of_future(abs_config) -> bool:
    """A resolved future whose value is itself a future name (restriction 3)."""
    return any(isinstance(v, FutRef) for v in abs_config.futures.values())
