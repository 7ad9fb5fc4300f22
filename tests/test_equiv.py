"""Value, statement and configuration equivalence."""

from multiactive.absm.engine import abs_initial_config
from multiactive.absm.runtime import AbsConfig
from multiactive.equiv import (
    EquivContext,
    config_equiv,
    stmt_equiv,
    value_equiv,
)
from multiactive.lang import parse_abs
from multiactive.lang.ast_abs import AAssign, AGet, AReturn, ASkip, aseq_list
from multiactive.lang.ast_expr import Binop, Lit, RuntimeVal, Var
from multiactive.lang.ast_masp import MAssign, MReturn, MSkip
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import Obj
from multiactive.translate import TranslationContext, translate_program, translate_statement
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, ObjRef

from conftest import ABS_CORPUS, load_abs


def _abs_cn(futures=None):
    return AbsConfig(
        program=parse_abs("{ }"),
        objects={},
        cogs={},
        futures=futures or {},
    )


def _ctx():
    ctx = EquivContext()
    ctx.pair("f1", "f1")
    return ctx


def test_identity_on_primitives():
    cn = _abs_cn()
    assert value_equiv(5, 5, {}, cn)
    assert not value_equiv(5, 6, {}, cn)
    assert value_equiv(None, None, {}, cn)
    assert value_equiv(True, True, {}, cn)
    assert not value_equiv(True, 1, {}, cn)  # booleans are not integers


def test_future_chase_through_store():
    # f related to a location holding the same future
    store = {Loc(1): FutRef("f1")}
    cn = _abs_cn({"f1": UNRESOLVED})
    assert value_equiv(FutRef("f1"), Loc(1), store, cn, _ctx())


def test_resolved_future_chases_into_value():
    cn = _abs_cn({"f1": 5})
    assert value_equiv(FutRef("f1"), 5, {}, cn, _ctx())
    assert not value_equiv(FutRef("f1"), 6, {}, cn, _ctx())


def test_object_shape_rule():
    obj = Obj("C", {"cog": ActRef("a1"), "myId": 2, "x": 99})
    assert value_equiv(ObjRef(2, "a1"), obj, {}, _abs_cn())
    wrong_cog = Obj("C", {"cog": ActRef("a2"), "myId": 2})
    assert not value_equiv(ObjRef(2, "a1"), wrong_cog, {}, _abs_cn())
    wrong_id = Obj("C", {"cog": ActRef("a1"), "myId": 3})
    assert not value_equiv(ObjRef(2, "a1"), wrong_id, {}, _abs_cn())


def test_object_rule_through_location():
    store = {Loc(4): Obj("C", {"cog": ActRef("a1"), "myId": 0})}
    assert value_equiv(ObjRef(0, "a1"), Loc(4), store, _abs_cn())


def test_cyclic_store_is_safe():
    store = {Loc(1): Loc(2), Loc(2): Loc(1)}
    assert not value_equiv(5, Loc(1), store, _abs_cn())


def test_stmt_equiv_skip():
    assert stmt_equiv((ASkip(), AReturn(Lit(None))), (MSkip(), MReturn(Lit(None))), {}, {}, _abs_cn())


def test_stmt_equiv_tells_bool_from_int():
    # Lit(1) == Lit(True) in Python; statement equivalence keeps them apart
    abs_side = (AAssign("x", Lit(True)), AReturn(Lit(None)))
    masp_side = (MAssign("x", Lit(1)), MReturn(Lit(None)))
    assert not stmt_equiv(abs_side, masp_side, {}, {}, _abs_cn())


def test_stmt_equiv_two_boolean_awaits():
    # each statement is translated on its own, so both awaits name
    # condition_1; one threaded context numbers them condition_1, condition_2
    body = parse_abs(
        "class C(v) { method m() { await v == 1; await v == 2; return v } } { }"
    ).classes[0].methods[0].body
    abs_side = tuple(aseq_list(body))
    tctx = TranslationContext()
    masp_side = tuple(s for a in abs_side for s in translate_statement(a, tctx))
    assert "condition_2" in repr(masp_side)
    assert stmt_equiv(abs_side, masp_side, {}, {}, _abs_cn())


def test_stmt_equiv_translation_follows_the_prefix():
    # the same statement objects, compared under two temporary prefixes
    abs_side = (AAssign("x", AGet(Var("f"))), AReturn(Var("x")))

    def translated(prefix):
        tctx = TranslationContext(prefix=prefix)
        return tuple(s for a in abs_side for s in translate_statement(a, tctx))

    one, two = translated("§"), translated("§§")
    assert one != two
    for prefix, masp_side in (("§", one), ("§§", two)):
        assert stmt_equiv(abs_side, masp_side, {}, {}, _abs_cn(), EquivContext(prefix=prefix))
    assert not stmt_equiv(abs_side, two, {}, {}, _abs_cn(), EquivContext(prefix="§"))
    assert not stmt_equiv(abs_side, one, {}, {}, _abs_cn(), EquivContext(prefix="§§"))


def test_stmt_equiv_second_disjunct():
    # x = 5 on one side, x = 2 + 3 on the other
    abs_side = (AAssign("x", RuntimeVal(5)), AReturn(Lit(None)))
    masp_side = (MAssign("x", Binop("+", Lit(2), Lit(3))), MReturn(Lit(None)))
    assert stmt_equiv(abs_side, masp_side, {}, {}, _abs_cn())
    wrong_var = (MAssign("y", Lit(5)), MReturn(Lit(None)))
    assert not stmt_equiv(abs_side, wrong_var, {}, {}, _abs_cn())


def test_stmt_equiv_strips_temporaries():
    abs_side = (AReturn(Lit(1)),)
    masp_side = (MAssign("§z", RuntimeVal(Loc(9))), MReturn(Lit(1)))
    assert stmt_equiv(abs_side, masp_side, {Loc(9): FutRef("f2")}, {}, _abs_cn())


def test_initial_configurations_equivalent():
    for name in ABS_CORPUS:
        p = load_abs(name)
        ok, reason, ctx = config_equiv(
            abs_initial_config(p), initial_config(translate_program(p))
        )
        assert ok, (name, reason)
        assert ctx.fut_map.get("f0") == "f0"


def test_mismatched_unresolved_futures_rejected():
    p = load_abs("chat.abs")
    cn = abs_initial_config(p)
    mcn = initial_config(translate_program(p))
    cn2 = cn.update(futures={**cn.futures, "f7": UNRESOLVED})
    ok, reason, _ = config_equiv(cn2, mcn)
    assert not ok
    assert "unpaired" in reason or "future" in reason


def test_extra_active_thread_rejected():
    p = load_abs("chat.abs")
    cn = abs_initial_config(p)
    mcn = initial_config(translate_program(p))
    # idle the cooperative main while the translation still runs it
    start = next(iter(cn.objects.values()))
    cn2 = cn.with_object(start.update(active=None))
    ok, _, _ = config_equiv(cn2, mcn)
    assert not ok
