"""Group policy evaluation: compatibility, limits, priorities."""

from multiactive.lang.ast_masp import GroupDecl, GroupPolicy
from multiactive.masp.runtime import Activity, Frame, Obj, Request, Thread
from multiactive.policy import (
    ResolvedPolicy,
    ThreadAccount,
    activate_admissible,
    compatible,
    priority_filter,
    ready,
    resolve_policy,
    serve_admissible,
)
from multiactive.translate import cog_class
from multiactive.values import Loc, MethodVal


def _activity(policy, current=(), queue=(), limit="S"):
    cur = {}
    for i, (method, state) in enumerate(current):
        req = Request(f"c{i}", method, ())
        cur[req.future] = Thread(req, state, (Frame({"this": Loc(1)}, ()),))
    q = tuple(Request(f"q{i}", m, args) for i, (m, args) in enumerate(queue))
    return Activity(
        name="a1",
        cls="X",
        active_loc=Loc(1),
        store={Loc(1): Obj("X", {})},
        current=cur,
        queue=q,
        limit=limit,
        policy=policy,
    )


def _policy(pool=None, groups=(), pairs=(), levels=(), method_groups=()):
    return ResolvedPolicy(
        GroupPolicy(
            groups=tuple(groups),
            compatible_pairs=frozenset(frozenset(p) for p in pairs),
            thread_pool_size=pool,
            priority_levels=tuple(levels),
        ),
        tuple(method_groups),
    )


def test_ungrouped_methods_conflict():
    rp = _policy()
    a = Request("f1", "m", ())
    b = Request("f2", "m", ())
    assert not compatible(a, b, rp)


def test_self_compatibility():
    rp = _policy(
        groups=[GroupDecl("g", self_compatible=True)], method_groups=[("m", "g")]
    )
    assert compatible(Request("f1", "m", ()), Request("f2", "m", ()), rp)
    rp2 = _policy(groups=[GroupDecl("g")], method_groups=[("m", "g")])
    assert not compatible(Request("f1", "m", ()), Request("f2", "m", ()), rp2)


def test_ready_vacuous_and_blocking():
    rp = _policy(
        groups=[GroupDecl("g", self_compatible=True), GroupDecl("h")],
        method_groups=[("m", "g"), ("n", "h")],
    )
    q = Request("f1", "m", ())
    assert ready(q, {}, (), rp)
    blocker = Request("f0", "n", ())
    assert not ready(q, {}, (blocker,), rp)  # incompatible request ahead


def test_cog_policy_table():
    rp = resolve_policy(cog_class())
    ex = lambda f, m, args=(): Request(f, m, args)
    assert compatible(ex("f1", "execute", (1,)), ex("f2", "execute", (2,)), rp)
    assert not compatible(ex("f1", "freshId"), ex("f2", "freshId"), rp)
    assert compatible(ex("f1", "execute_condition"), ex("f2", "register"), rp)
    assert compatible(ex("f1", "execute_condition"), ex("f2", "execute_condition"), rp)
    # the dynamic rule: register and execute conflict exactly on equal ids
    reg = Request("f1", "register", (Loc(9), 7))
    run7 = Request("f2", "execute", (7, MethodVal("m")))
    run8 = Request("f2", "execute", (8, MethodVal("m")))
    ground = lambda v: v
    assert not compatible(reg, run7, rp, ground)
    assert compatible(reg, run8, rp, ground)
    # limits of the four groups
    assert rp.group_decl("allocation").max_threads == 1
    assert rp.group_decl("scheduling").max_threads == 1
    assert rp.group_decl("registration").max_threads is None
    assert rp.group_decl("conditions").max_threads is None


def test_pool_counts_active_only():
    rp = _policy(
        pool=1,
        groups=[GroupDecl("g", self_compatible=True)],
        method_groups=[("m", "g")],
    )
    busy = _activity(rp, current=[("m", "A")], queue=[("m", ())])
    assert not serve_admissible(busy, 0)
    parked = _activity(rp, current=[("m", "P")], queue=[("m", ())])
    assert serve_admissible(parked, 0)


def test_group_limit_checked_on_activation():
    rp = _policy(
        groups=[GroupDecl("g", self_compatible=True, max_threads=1)],
        method_groups=[("m", "g")],
    )
    act = _activity(rp, current=[("m", "A"), ("m", "P")])
    assert not activate_admissible(act, "c1")
    act2 = _activity(rp, current=[("m", "P")])
    assert activate_admissible(act2, "c0")
    # grouping is per method group, not global
    rp3 = _policy(
        groups=[GroupDecl("g", self_compatible=True, max_threads=1),
                GroupDecl("h", self_compatible=True, max_threads=1)],
        pairs=[("g", "h")],
        method_groups=[("m", "g"), ("n", "h")],
    )
    act3 = _activity(rp3, current=[("m", "A"), ("n", "P")])
    assert activate_admissible(act3, "c1")


def test_min_threads_reservation():
    rp = _policy(
        pool=2,
        groups=[
            GroupDecl("g", self_compatible=True),
            GroupDecl("h", self_compatible=True, min_threads=1),
        ],
        pairs=[("g", "h")],
        method_groups=[("m", "g"), ("n", "h")],
    )
    one_busy = _activity(rp, current=[("m", "A")], queue=[("m", ())])
    # serving the second g request would leave nothing for h's reservation
    assert not serve_admissible(one_busy, 0)
    h_request = _activity(rp, current=[("m", "A")], queue=[("n", ())])
    assert serve_admissible(h_request, 0)


def test_priority_filter_keeps_maximal():
    rp = _policy(
        groups=[GroupDecl("hi"), GroupDecl("lo"), GroupDecl("other")],
        levels=[("hi",), ("lo",)],
    )
    picked = priority_filter(
        rp.group_decl and rp, [("hi", "H"), ("lo", "L"), ("other", "O"), (None, "U")]
    )
    assert "H" in picked and "L" not in picked
    # unordered groups are always maximal
    assert "O" in picked and "U" in picked
    # with only low-priority candidates, they are maximal themselves
    assert priority_filter(rp, [("lo", "L")]) == ["L"]


def test_thread_account_matches_naive_recount():
    rp = _policy(
        groups=[GroupDecl("g", self_compatible=True), GroupDecl("h")],
        method_groups=[("m", "g"), ("n", "h")],
    )
    act = _activity(rp, current=[("m", "A"), ("m", "P"), ("n", "A")])
    acc = ThreadAccount.of_activity(act)
    naive_active = {}
    naive_total = 0
    for t in act.current.values():
        g = dict(rp.method_group).get(t.request.method)
        if t.state == "A":
            naive_total += 1
            naive_active[g] = naive_active.get(g, 0) + 1
    assert acc.total_active == naive_total
    assert acc.per_group_active == naive_active
