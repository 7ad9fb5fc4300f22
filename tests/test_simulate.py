"""Weak-simulation checking in both directions on small programs.

The full corpus budgets live in the acceptance suite; these tests keep
budgets small and inspect the matched rule rows.
"""

import pytest

from multiactive.lang import parse_abs
from multiactive.simulate import (
    check_backward_simulation,
    check_forward_simulation,
)

from conftest import load_abs

SIMPLE = """
class Worker() { method job(n) { return n + 1 } }
{ vars w, f, r; w = new Worker(); f = w!job(5); await f?; r = f.get }
"""


@pytest.fixture(scope="module")
def simple_forward():
    return check_forward_simulation(parse_abs(SIMPLE), depth=40, width=2000)


@pytest.fixture(scope="module")
def simple_backward():
    return check_backward_simulation(parse_abs(SIMPLE), depth=40, width=2500)


def test_forward_matches_everything(simple_forward):
    rep = simple_forward
    assert rep.failures == []
    assert rep.matched == rep.steps_checked
    assert rep.outside_fragment == 0 and rep.skipped_restriction == 0


def test_await_false_matched_by_invk_future(simple_forward):
    rows = [
        r
        for r in simple_forward.rows
        if r.get("abs_rule") == "Await-False" and "masp_rules" in r
    ]
    assert rows
    assert all(r["masp_rules"] == ["Invk-Future"] for r in rows)


def test_release_cog_is_silent(simple_forward):
    rows = [
        r
        for r in simple_forward.rows
        if r.get("abs_rule") == "Release-Cog" and "masp_rules" in r
    ]
    assert rows and all(r["masp_rules"] == [] for r in rows)


def test_rendezvous_uses_invk_active(simple_forward):
    rows = [
        r
        for r in simple_forward.rows
        if r.get("abs_rule") == "Rendez-vous-Comm" and "masp_rules" in r
    ]
    assert rows
    for r in rows:
        assert "Invk-Active" in r["masp_rules"]


def test_backward_matches_everything(simple_backward):
    rep = simple_backward
    assert rep.failures == []
    assert rep.matched == rep.steps_checked


def test_backward_serve_maps_to_activate(simple_backward):
    rows = [
        r
        for r in simple_backward.rows
        if r.get("masp_rule") == "Serve" and "abs_rules" in r
    ]
    assert rows
    for r in rows:
        assert r["abs_rules"] in (["Activate"], [])


def test_backward_temporaries_are_silent(simple_backward):
    rows = [
        r
        for r in simple_backward.rows
        if r.get("masp_rule") in ("New-Active", "Set-Soft-Limit")
        and "abs_rules" in r
    ]
    assert rows
    assert all(r["abs_rules"] == [] for r in rows)
    # limit switches are silent too, except when a pending observable
    # response (the await consumed a step earlier) lands on them
    hard = [
        r
        for r in simple_backward.rows
        if r.get("masp_rule") == "Set-Hard-Limit" and "abs_rules" in r
    ]
    assert hard
    assert all(r["abs_rules"] in ([], ["Await-True"], ["Read-Fut"]) for r in hard)


def test_backward_invk_future_maps_to_await_false(simple_backward):
    rows = [
        r
        for r in simple_backward.rows
        if r.get("masp_rule") == "Invk-Future" and "abs_rules" in r
    ]
    assert rows
    for r in rows:
        assert r["abs_rules"][:1] == ["Await-False"]


def test_sync_calls_flagged_outside_fragment():
    src = """
class A() { method m() { return 1 } }
class B(a) { method go() { vars x; x = a.m(); return x } }
{ vars a, b, f; a = new A(); b = new B(a); f = b!go(); await f? }
"""
    rep = check_forward_simulation(parse_abs(src), depth=25, width=500)
    assert rep.failures == []
    assert rep.outside_fragment > 0


def test_bool_guard_await_flagged_outside():
    src = """
class C(v) {
  method set() { v = 1; return null }
  method waiter() { await v == 1; return 2 }
}
{ vars c, f, g; c = new C(0); f = c!waiter(); g = c!set(); await f? }
"""
    rep = check_forward_simulation(parse_abs(src), depth=20, width=400)
    assert rep.failures == []
    assert rep.outside_fragment > 0


def test_future_of_future_branches_skipped():
    src = """
class Inner() { method val() { return 5 } }
class Outer(inner) {
  method wrap() { vars f; f = inner!val(); return f }
}
{ vars i, o, g; i = new Inner(); o = new Outer(i); g = o!wrap(); await g? }
"""
    rep = check_forward_simulation(parse_abs(src), depth=30, width=800)
    assert rep.failures == []
    assert rep.skipped_restriction > 0
    notes = [r for r in rep.rows if "restriction-3" in r.get("note", "")]
    assert notes


def test_report_json_shape(simple_forward):
    j = simple_forward.to_json()
    for key in (
        "direction",
        "steps_checked",
        "matched",
        "skipped_restriction",
        "outside_fragment",
        "failures",
    ):
        assert key in j


# (direction, program, depth) -> (states, steps_checked, matched,
# prescribed rows, outside_fragment) at width 10^4. A memo that changed
# which match is found would move these counts.
PINNED_REPORTS = {
    ("forward", "mapreduce.abs", 16): (188, 407, 407, 273, 0),
    ("backward", "mapreduce.abs", 20): (398, 579, 579, 0, 0),
    ("forward", "chat.abs", 10): (19, 21, 21, 5, 0),
    ("backward", "chat.abs", 16): (165, 221, 221, 0, 0),
    ("forward", "bank_account.abs", 30): (53, 96, 88, 53, 8),
}


@pytest.mark.parametrize(
    "case", sorted(PINNED_REPORTS), ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}"
)
def test_simulation_reports_are_pinned(case):
    direction, name, depth = case
    check = (
        check_forward_simulation if direction == "forward" else check_backward_simulation
    )
    rep = check(load_abs(name), depth, 10_000)
    prescribed = sum(1 for r in rep.rows if r.get("via") == "prescribed")
    got = (rep.states, rep.steps_checked, rep.matched, prescribed, rep.outside_fragment)
    assert got == PINNED_REPORTS[case]
    assert rep.failures == [] and not rep.truncated and rep.skipped_restriction == 0
