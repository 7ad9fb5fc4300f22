"""The cog memo of configuration equivalence against fresh computation.

Every ``config_equiv`` call that the forward and backward checks make on
the pinned corpus cases is repeated on field-for-field copies of both
configurations, which carry no memo, and must give the same verdict,
reason and future bijection. The hand-built cases share a cog's object
table and its activity between two calls but change one read outside the memo
key, so the second call must not reuse the first verdict.
"""

import pytest

import multiactive.equiv as equiv
import multiactive.simulate as simulate
from multiactive.absm.engine import abs_initial_config
from multiactive.absm.runtime import AbsConfig, Cog, Ob
from multiactive.equiv import EquivContext, config_equiv
from multiactive.lang import parse_abs
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import Activity, FutBinder, MaspConfig, Obj, Request
from multiactive.translate import translate_program
from multiactive.values import UNRESOLVED, ActRef, FutRef, Loc, ObjRef, evolve

from conftest import load_abs
from test_simulate import PINNED_REPORTS


def _rebuilt(cn, mcn):
    """Copies of both configurations down to each cog, object and
    activity, so no memo on the originals reaches them."""
    cn2 = cn.update(
        cogs={
            n: c.update(objects={i: evolve(o, {}) for i, o in c.objects.items()})
            for n, c in cn.cogs.items()
        }
    )
    mcn2 = mcn.update(
        activities={n: evolve(a, {}) for n, a in mcn.activities.items()}
    )
    return cn2, mcn2


def _outcome(result):
    ok, reason, ctx = result
    return ok, reason, list(ctx.fut_map.items()), list(ctx.rev_map.items())


@pytest.mark.parametrize(
    "case", sorted(PINNED_REPORTS), ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}"
)
def test_memoized_equivalence_matches_fresh(case, monkeypatch):
    direction, name, depth = case
    calls = {"config": 0, "cog": 0, "checked": 0}
    cog_equiv, check_cog = equiv._cog_equiv, equiv._check_cog

    def counted_cog_equiv(*args, **kw):
        calls["cog"] += 1
        return cog_equiv(*args, **kw)

    def counted_check_cog(*args, **kw):
        calls["checked"] += 1
        return check_cog(*args, **kw)

    def differential(cn, mcn, ctx=None, relaxed=False):
        calls["config"] += 1
        with monkeypatch.context() as m:
            m.setattr(equiv, "_cog_equiv", counted_cog_equiv)
            m.setattr(equiv, "_check_cog", counted_check_cog)
            got = config_equiv(cn, mcn, ctx, relaxed)
        fresh = config_equiv(*_rebuilt(cn, mcn), ctx, relaxed)
        assert _outcome(got) == _outcome(fresh)
        assert got[2].reads is None
        return got

    monkeypatch.setattr(simulate, "config_equiv", differential)
    check = (
        simulate.check_forward_simulation
        if direction == "forward"
        else simulate.check_backward_simulation
    )
    rep = check(load_abs(name), depth, 10_000)
    assert rep.states == PINNED_REPORTS[case][0][0]
    assert calls["config"] > 0
    assert calls["checked"] < calls["cog"]  # the memo did answer some checks


def _one_main_config(src):
    p = parse_abs(src)
    return abs_initial_config(p), initial_config(translate_program(p))


def _with_user_local(mcn, name, value, cells=None):
    """The main activity with a local of its execute thread's user frame
    changed and ``cells`` added to its store."""
    (act,) = mcn.activities.values()
    (fut, thread), = act.current.items()
    user = thread.stack[-2].with_local(name, value)
    stack = (*thread.stack[:-2], user, thread.stack[-1])
    act2 = act.update(
        current={fut: evolve(thread, {"stack": stack})},
        store={**act.store, **(cells or {})},
    )
    return mcn.with_activity(act2)


def _with_pending_local(cn, name, fut):
    """The main process with a local holding the unresolved future ``fut``."""
    (cog,) = cn.cogs.values()
    (main,) = cog.objects.values()
    proc = main.active.with_local(name, FutRef(fut))
    return cn.with_cog(
        cog.with_object(main.update(active=proc)), futures={**cn.futures, fut: UNRESOLVED}
    )


def _assert_fresh(cn, mcn, ctx=None):
    got = config_equiv(cn, mcn, ctx)
    assert _outcome(got) == _outcome(config_equiv(*_rebuilt(cn, mcn), ctx))
    return got


def test_memo_misses_when_a_cooperative_future_resolves():
    cn, mcn = _one_main_config("{ vars x; x = 1 }")
    cn1 = _with_pending_local(cn, "x", "g")
    mcn1 = _with_user_local(mcn, "x", 5)
    ok, reason, _ = _assert_fresh(cn1, mcn1)
    assert not ok and "active task differs" in reason
    # the same objects and activity; only the future's value has changed
    cn2 = cn1.update(futures={**cn1.futures, "g": 5})
    ok, reason, _ = _assert_fresh(cn2, mcn1)
    assert not ok and reason == "resolved g unpaired"


def test_memo_misses_when_a_pairing_now_clashes():
    cn, mcn = _one_main_config("{ vars x; x = 1 }")
    ok, _, ctx = _assert_fresh(cn, mcn)
    assert ok and ctx.fut_map == {"f0": "f0"}
    clash = EquivContext(fut_map={"f0": "f9"}, rev_map={"f9": "f0"})
    ok, reason, ctx = _assert_fresh(cn, mcn, clash)
    assert not ok and "active task differs" in reason
    assert ctx.fut_map == {"f0": "f9"}


def test_memo_hit_adds_the_stored_pairings():
    # x holds g on one side and a location holding h on the other, so the
    # cog check pairs g with h as well as f0 with f0; with two pairs free,
    # the futures check could not infer them on its own
    cn, mcn = _one_main_config("{ vars x; x = 1 }")
    cn1 = _with_pending_local(cn, "x", "g")
    mcn1 = _with_user_local(mcn, "x", Loc(99), {Loc(99): FutRef("h")})
    mcn1 = mcn1.update(futures={**mcn1.futures, "h": FutBinder(method="execute")})
    for _ in range(2):
        ok, reason, ctx = _assert_fresh(cn1, mcn1)
        assert ok, reason
        assert list(ctx.fut_map.items()) == [("f0", "f0"), ("g", "h")]


def _pending_id_config(id_counter):
    """Cog a holds object 1, whose copy's id hides behind a freshId
    future that activity b serves next, handing out ``id_counter``."""
    program = translate_program(parse_abs("{ }"))
    holder = Activity(
        "a", "COG", Loc(0),
        {
            Loc(0): Obj("COG", {}),
            Loc(1): Obj("C", {"cog": ActRef("a"), "myId": Loc(2)}),
            Loc(2): FutRef("h"),
        },
        {}, (),
    )
    server = Activity(
        "b", "COG", Loc(0), {Loc(0): Obj("COG", {})}, {},
        (Request("h", "freshId", ()),), id_counter=id_counter,
    )
    mcn = MaspConfig(
        program, {"a": holder, "b": server}, {"h": FutBinder(method="freshId")}
    )
    return mcn, holder, server


def test_memo_misses_when_a_predicted_id_changes():
    ref = ObjRef(1, "a")
    cn = AbsConfig(
        parse_abs("{ }"),
        {"a": Cog("a", None, 2, {1: Ob(ref, "C", {"cog": ActRef("a")}, None, ())})},
        {},
    )
    mcn1, holder, server = _pending_id_config(1)
    ok, reason, _ = _assert_fresh(cn, mcn1)
    assert ok, reason
    # the same cog objects and holding activity; b now hands out id 2
    mcn2 = mcn1.with_activity(server.update(id_counter=2))
    assert mcn2.activities["a"] is holder
    ok, reason, _ = _assert_fresh(cn, mcn2)
    assert not ok and reason == "object 1_a has no copy"
