"""Value, statement and configuration equivalence."""

import pytest

import multiactive.simulate as simulate
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
from multiactive.masp.runtime import FutBinder, Obj, Request, Thread
from multiactive.translate import TranslationContext, translate_program, translate_statement
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, MethodVal, ObjRef

from conftest import ABS_CORPUS, load_abs


def _abs_cn(futures=None):
    return AbsConfig(program=parse_abs("{ }"), cogs={}, futures=futures or {})


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
    start = cn.ob(ObjRef(0, "a0"))
    cn2 = _put(cn, start.update(active=None))
    ok, _, _ = config_equiv(cn2, mcn)
    assert not ok


def _admitted_pairs(name, depth):
    """The equivalent pairs a forward check admits on a corpus program,
    each with the future bijection it was compared under."""
    pairs = []

    def recorded(cn, mcn, ctx=None, relaxed=False):
        got = config_equiv(cn, mcn, ctx, relaxed)
        if got[0]:
            pairs.append((cn, mcn, ctx))
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "config_equiv", recorded)
        rep = simulate.check_forward_simulation(load_abs(name), depth, 10_000)
    assert rep.failures == []
    return pairs


def _first(pairs, holds):
    return next((cn, mcn, ctx) for cn, mcn, ctx in pairs if holds(cn, mcn))


def _queued_in_a1(cn, mcn):
    act = mcn.activities.get("a1")
    return act is not None and any(q.method == "execute" for q in act.queue)


def _registered_in_a1(cn, mcn):
    return "a1" in mcn.activities and bool(mcn.activities["a1"].registry)


def _resolved(cn, mcn):
    return any(v is not UNRESOLVED for v in cn.futures.values())


def _initial(cn, mcn):
    return True


def _put(cn, ob):
    """``cn`` with ``ob`` put in place in its cog."""
    return cn.with_cog(cn.cogs[ob.name.cog].with_object(ob))


def _with_active_local(cn, ref, name, value):
    ob = cn.ob(ref)
    return _put(cn, ob.update(active=ob.active.with_local(name, value)))


def _with_queued_local(cn, ref, name, value):
    ob = cn.ob(ref)
    return _put(cn, ob.update(queue=(ob.queue[0].with_local(name, value), *ob.queue[1:])))


def _with_execute(mcn, act_name, fut, state=None):
    """Activity ``act_name`` with one more execute task on object 99, which
    no cooperative object has: a thread in ``state``, or a queued request."""
    act = mcn.activities[act_name]
    req = Request(fut, "execute", (99, MethodVal("m")))
    if state is None:
        return mcn.with_activity(act.update(queue=(*act.queue, req)))
    (thread, *_) = act.current.values()
    extra = Thread(req, state, thread.stack)
    return mcn.with_activity(act.update(current={**act.current, fut: extra}))


def _with_binder(mcn, fut, binder):
    return mcn.update(futures={**mcn.futures, fut: binder})


def _without_object(cn, ref):
    cog = cn.cogs[ref.cog]
    objects = {i: o for i, o in cog.objects.items() if i != ref.ident}
    return cn.with_cog(cog.update(objects=objects))


# (pair, perturbation of (cn, mcn), expected (ok, reason)): one row per
# rejection reason the corpus checks never produce on their own
_PERTURBATIONS = {
    "activity without cog": (
        _registered_in_a1,
        lambda cn, mcn: (cn.update(cogs={c: r for c, r in cn.cogs.items() if c != "a1"}), mcn),
        (False, "activity a1 has no cog"),
    ),
    "registered without object": (
        _registered_in_a1,
        lambda cn, mcn: (_without_object(cn, ObjRef(1, "a1")), mcn),
        (False, "registered 1 has no object in a1"),
    ),
    "active continuation": (
        _initial,
        lambda cn, mcn: (_with_active_local(cn, ObjRef(0, "a0"), "cont", None), mcn),
        (False, "outside-fragment: synchronous continuation"),
    ),
    "queued continuation": (
        _queued_in_a1,
        lambda cn, mcn: (_with_queued_local(cn, ObjRef(1, "a1"), "cont", None), mcn),
        (False, "outside-fragment: synchronous continuation"),
    ),
    "queued request": (
        _queued_in_a1,
        lambda cn, mcn: (_with_queued_local(cn, ObjRef(1, "a1"), "b", 7), mcn),
        (False, "object 1_a1: queued request differs"),
    ),
    "spurious passive thread": (
        _initial,
        lambda cn, mcn: (cn, _with_execute(mcn, "a0", "f99", "P")),
        (False, "a0: spurious passive execute thread"),
    ),
    "spurious queued request": (
        _initial,
        lambda cn, mcn: (cn, _with_execute(mcn, "a0", "f99")),
        (False, "a0: spurious queued execute request"),
    ),
    # with one free name on each side the pair is inferred; both names are
    # free, so the pairing cannot clash
    "inferred pairing": (
        _initial,
        lambda cn, mcn: (
            cn.update(futures={**cn.futures, "g": UNRESOLVED}),
            _with_binder(mcn, "h", FutBinder(method="execute")),
        ),
        (True, ""),
    ),
    "unresolved against resolved": (
        _initial,
        lambda cn, mcn: (cn, _with_binder(mcn, "f0", FutBinder(0, {}, "execute"))),
        (False, "unresolved f0 resolved on the other side"),
    ),
    "resolved against unresolved": (
        _initial,
        lambda cn, mcn: (cn.update(futures={**cn.futures, "f0": 0}), mcn),
        (False, "resolved f0 unresolved on the other side"),
    ),
    "future values": (
        _resolved,
        lambda cn, mcn: (cn.update(futures={**cn.futures, "f1": 12345}), mcn),
        (False, "future f1 values differ"),
    ),
    "unpaired execute future": (
        _initial,
        lambda cn, mcn: (cn, _with_binder(mcn, "f99", FutBinder(0, {}, "execute"))),
        (False, "execute future f99 unpaired"),
    ),
}


@pytest.fixture(scope="module")
def bank_pairs():
    return _admitted_pairs("bank_account.abs", 12)


@pytest.mark.parametrize("row", sorted(_PERTURBATIONS))
def test_each_rejection_reason(row, bank_pairs):
    holds, perturb, expected = _PERTURBATIONS[row]
    cn, mcn, ctx = _first(bank_pairs, holds)
    assert config_equiv(cn, mcn, ctx)[0]
    ok, reason, out = config_equiv(*perturb(cn, mcn), ctx)
    assert (ok, reason) == expected
    if ok:
        assert out.fut_map["g"] == "h"
