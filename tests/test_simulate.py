"""Weak-simulation checking in both directions on small programs.

The full corpus budgets live in the acceptance suite; these tests keep
budgets small and inspect the matched rule rows.
"""

import hashlib
import json
import random

import pytest

import multiactive.simulate as simulate
from multiactive.absm.engine import abs_initial_config
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.canon import abs_digest, masp_digest
from multiactive.cli import cli
from multiactive.lang import parse_abs
from multiactive.masp.engine import initial_config
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.simulate import (
    _masp_label_class,
    check_backward_simulation,
    check_forward_simulation,
)
from multiactive.translate import detect_future_of_future, translate_program
from multiactive.values import ObjRef

from conftest import ABS_CORPUS, load_abs
from genprog import gen_runnable_abs
from test_canon import _look_alike_cogs, _rename_abs, _rename_masp, _walk_masp

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


GUARD_OVER_PARAMETER = """
class C(v) { method m(x) { await x == 2; return v } }
{ vars c, f, r; c = new C(1); f = c!m(2); await f?; r = f.get }
"""

GUARD_OVER_LOCAL = """
class C(v) { method m(x) { vars y; y = x; await y == 2; return v } }
{ vars c, f, r; c = new C(1); f = c!m(2); await f?; r = f.get }
"""


@pytest.mark.parametrize(
    "src, steps, outside",
    [(GUARD_OVER_PARAMETER, 52, 15), (GUARD_OVER_LOCAL, 60, 9)],
    ids=["parameter", "local"],
)
def test_bool_guard_over_method_variables(src, steps, outside):
    """A boolean guard's condition method takes the variables the guard
    reads, so a running process's statements translate under its own
    variables: the ``condition_<k>`` call keeps its arguments."""
    program = parse_abs(src)
    fwd = check_forward_simulation(program, depth=30, width=10_000)
    assert fwd.failures == []
    assert fwd.matched == fwd.steps_checked == steps
    bwd = check_backward_simulation(program, depth=30, width=10_000)
    assert bwd.failures == []
    assert bwd.outside_fragment == outside


# a plain ``if`` lies inside the proved fragment: the backward check
# answers its translation's ``Cond-True`` with the cooperative one, then
# checks the return, the await and the get behind it
IF_PROGRAM = """
class C() {
  method m(x) { vars y; if (x > 0) { y = 1 } else { y = 2 }; return y }
}
{ vars c, f, r; c = new C(); f = c!m(1); await f?; r = f.get }
"""


def test_an_if_is_checked_in_both_directions():
    program = parse_abs(IF_PROGRAM)
    fwd = check_forward_simulation(program, depth=60, width=10_000)
    assert fwd.failures == [] and fwd.outside_fragment == 0
    assert fwd.matched == fwd.steps_checked == 60
    bwd = check_backward_simulation(program, depth=60, width=10_000)
    assert bwd.failures == [] and bwd.outside_fragment == 0
    assert (bwd.states, bwd.steps_checked, bwd.matched) == (609, 922, 922)
    assert bwd.stop == "exhausted"
    answered = {rule for r in bwd.rows for rule in r.get("abs_rules", ())}
    assert {"Cond-True", "Return", "Await-True", "Read-Fut"} <= answered


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
        "stop",
    ):
        assert key in j


# (direction, program, depth) -> (states, steps_checked, matched,
# prescribed rows, outside_fragment) at width 10^4, and the SHA-256 of the
# whole report: to_json() without elapsed_s, plus its rows. A memo that
# changed which match is found would move the hash even where the counts
# stay. The rows come in level order, and the counts are those that
# test_check_reaches_every_state_within_the_depth confirms the search
# covers.
PINNED_REPORTS = {
    ("forward", "mapreduce.abs", 16): (
        (188, 419, 419, 281, 0),
        "e31d4bd7cf85065a433040a0df04180bc901ef8897adc92db38875afa900bb86",
    ),
    ("backward", "mapreduce.abs", 20): (
        (398, 579, 579, 0, 0),
        "bf73c9737a744d21532c815d457380d4de415aa2e5f3a64fffae72d9b3ec3e5a",
    ),
    ("forward", "chat.abs", 10): (
        (19, 21, 21, 5, 0),
        "06de37d911093118fb25f7e9b8a9336c538406fea43ab84213066b9ca29e0d52",
    ),
    ("backward", "chat.abs", 16): (
        (165, 221, 221, 0, 0),
        "9dfb19b6f78efb0e7338bf15ff596618e67f5b1baf00a5b2d611f87a7c0c50d8",
    ),
    ("forward", "bank_account.abs", 30): (
        (53, 96, 88, 53, 8),
        "bb8fef4b3b50da4031a64b89551da5ebf0cf1bab9becd777b9e642367efe55a0",
    ),
}


def report_sha256(rep) -> str:
    """SHA-256 of every report field but the elapsed time, rows included."""
    j = rep.to_json()
    del j["elapsed_s"]
    j["rows"] = rep.rows
    return hashlib.sha256(json.dumps(j, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "case", sorted(PINNED_REPORTS), ids=lambda c: f"{c[0]}-{c[1]}-d{c[2]}"
)
def test_simulation_reports_are_pinned(case):
    """Twice in one process, on one program: what the first check leaves
    in the memos and caches must not move the second's report."""
    direction, name, depth = case
    check = (
        check_forward_simulation if direction == "forward" else check_backward_simulation
    )
    program = load_abs(name)
    counts, sha = PINNED_REPORTS[case]
    for _ in range(2):
        rep = check(program, depth, 10_000)
        prescribed = sum(1 for r in rep.rows if r.get("via") == "prescribed")
        got = (rep.states, rep.steps_checked, rep.matched, prescribed, rep.outside_fragment)
        assert got == counts
        assert report_sha256(rep) == sha
        assert rep.failures == [] and rep.skipped_restriction == 0
        assert rep.stop == ("exhausted" if name == "bank_account.abs" else "depth")


# program -> (cooperative, multi-active) configurations among the pairs,
# forward then backward, at depth 30 / width 10^4: backward reaches few
# of the cooperative states forward reaches
COVERAGE = {
    "bank_account.abs": ((53, 31), (7, 2802)),
    "futures_of_futures.abs": ((45, 29), (8, 2534)),
    "mapreduce.abs": ((710, 322), (7, 3288)),
}


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_reports_count_the_states_each_side_covers(name):
    program = load_abs(name)
    reports = [
        check(program, 30, 10_000)
        for check in (check_forward_simulation, check_backward_simulation)
    ]
    assert tuple((rep.abs_states, rep.masp_states) for rep in reports) == COVERAGE[name]


def _reference_states(cfg, depth, successors, digest):
    """Digests of the states within ``depth`` steps of ``cfg``, by a
    plain breadth-first search over one calculus."""
    seen = {digest(cfg)}
    level = [cfg]
    for _ in range(depth):
        nxt = []
        for c in level:
            for succ in successors(c):
                d = digest(succ)
                if d not in seen:
                    seen.add(d)
                    nxt.append(succ)
        level = nxt
    return seen


def _abs_successors(cfg):
    """Cooperative steps the forward check follows: a successor holding a
    future of a future is skipped (restriction 3)."""
    for label in abs_enabled_steps(cfg, mode="explore"):
        succ = abs_apply_step(cfg, label)
        if not detect_future_of_future(succ):
            yield succ


def _masp_successors(cfg):
    """Multi-active steps the backward check follows: the first update
    alone when one is enabled, and no step outside the proved fragment."""
    labels = enabled_steps(cfg, mode="explore")
    updates = [l for l in labels if l.rule == "Update"]
    for label in updates[:1] or labels:
        if _masp_label_class(cfg, label) is not None:
            yield apply_step(cfg, label)


# (direction, program, depth) -> states of the driving side within the
# depth: the pinned reports without steps outside the proved fragment,
# and two deeper cases
REFERENCE_STATES = {
    ("forward", "mapreduce.abs", 16): 169,
    ("backward", "mapreduce.abs", 20): 398,
    ("forward", "chat.abs", 10): 19,
    ("backward", "chat.abs", 16): 165,
    ("forward", "mapreduce.abs", 24): 609,
    ("backward", "bank_account.abs", 30): 2802,
}


@pytest.mark.parametrize(
    "direction, name, depth, states",
    [(*case, n) for case, n in REFERENCE_STATES.items()],
    ids=[f"{d}-{n}-d{k}" for d, n, k in REFERENCE_STATES],
)
def test_check_reaches_every_state_within_the_depth(direction, name, depth, states, monkeypatch):
    """The driving side's states in the checked pairs are exactly those a
    reference search reaches within the depth, pruned the same way: a
    pair first reached by a long path is still checked when a shorter
    path reaches it later."""
    program = load_abs(name)
    if direction == "forward":
        expected = _reference_states(
            abs_initial_config(program), depth, _abs_successors, abs_digest
        )
        digest, check = abs_digest, check_forward_simulation
    else:
        expected = _reference_states(
            initial_config(translate_program(program)), depth, _masp_successors, masp_digest
        )
        digest, check = masp_digest, check_backward_simulation
    reached = set()

    def recorded(cfg):
        d = digest(cfg)
        reached.add(d)
        return d

    monkeypatch.setattr(simulate, digest.__name__, recorded)
    rep = check(program, depth, 10_000)
    assert rep.failures == [] and rep.outside_fragment == 0 and rep.stop == "depth"
    assert len(expected) == states
    assert reached == expected


@pytest.mark.parametrize(
    "direction, name", [("forward", "mapreduce.abs"), ("backward", "chat.abs")]
)
def test_the_pair_key_fixes_the_future_bijection(direction, name):
    """The seen set keys a pair on its two digests, without the future
    bijection ``ctx``: matched successor pairs whose raw configurations
    are equal on both sides carry equal ``fut_map`` and ``rev_map``."""
    steps = simulate._forward_steps if direction == "forward" else simulate._backward_steps
    found = {}

    def recorded(report, cn, mcn, ctx):
        matched = steps(report, cn, mcn, ctx)
        for pair in matched:
            found.setdefault((abs_digest(pair[0]), masp_digest(pair[1])), []).append(pair)
        return matched

    rep = simulate._check(direction, load_abs(name), 16, 10_000, recorded)
    assert rep.failures == []
    compared = 0
    for group in found.values():
        for i, (cn, mcn, ctx) in enumerate(group):
            for cn2, mcn2, ctx2 in group[:i]:
                if cn == cn2 and mcn == mcn2:
                    compared += 1
                    assert (ctx.fut_map, ctx.rev_map) == (ctx2.fut_map, ctx2.rev_map)
    assert compared > 0


def test_admission_shares_only_raw_equal_configurations():
    """A pair's configuration is replaced by the one admitted under the
    same digest, in its level or the one before, only when the two are
    equal as raw values: an alpha variant names other futures, so it
    keeps its own object and the labels and successors that go with it."""
    program = translate_program(load_abs("mapreduce.abs"))
    walked = _walk_masp(initial_config(program), random.Random(5), 12)
    again = _walk_masp(initial_config(program), random.Random(5), 12)
    acts, futs = list(walked.activities), list(walked.futures)
    moved = _rename_masp(walked, dict(zip(acts, acts)), dict(zip(futs, futs)), dict.fromkeys(acts, 3))
    cogs = _look_alike_cogs(ObjRef(1, "a1"), ObjRef(1, "a2"))
    swapped = _rename_abs(cogs, {"a0": "a0", "a1": "a2", "a2": "a1"}, {"f0": "f0"})
    rebuilt = _rename_abs(cogs, {c: c for c in cogs.cogs}, {"f0": "f0"})
    for config, variant, copy, digest in (
        (walked, moved, again, masp_digest),
        (cogs, swapped, rebuilt, abs_digest),
    ):
        d = digest(config)
        assert digest(variant) == d and variant != config
        assert digest(copy) == d and copy == config and copy is not config
        admitted = {}
        assert simulate._shared(config, d, admitted, {}) is config
        assert simulate._shared(variant, d, admitted, {}) is variant
        assert simulate._shared(copy, d, admitted, {}) is config
        later = {}
        assert simulate._shared(copy, d, later, admitted) is config
        assert later == {d: config}


def _report_text(rep) -> str:
    """Everything a report says but the elapsed time."""
    j = rep.to_json()
    del j["elapsed_s"]
    j.update(rows=rep.rows, abs_states=rep.abs_states, masp_states=rep.masp_states)
    return json.dumps(j, sort_keys=True)


def _unshared_report(check, program, depth, width):
    """The report with every label and successor computed afresh."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_labels", lambda config, enabled: tuple(enabled(config, mode="explore")))
        mp.setattr(simulate, "_successor", lambda config, label, apply: apply(config, label))
        return check(program, depth, width)


@pytest.mark.parametrize("name", ABS_CORPUS)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_shared_steps_leave_the_reports_unchanged(direction, name):
    check = check_forward_simulation if direction == "forward" else check_backward_simulation
    program = load_abs(name)
    shared = check(program, 16, 10_000)
    assert _report_text(shared) == _report_text(_unshared_report(check, program, 16, 10_000))


def test_shared_steps_leave_the_fuzz_reports_unchanged():
    """Forward, on the cooperative programs of ``test_fuzz``."""
    rng = random.Random(12345)
    for _ in range(30):
        program = gen_runnable_abs(rng)
        shared = check_forward_simulation(program, 8, 2000)
        unshared = _unshared_report(check_forward_simulation, program, 8, 2000)
        assert _report_text(shared) == _report_text(unshared)


def test_forward_steps_each_configuration_once(monkeypatch):
    """Each step function is called about once per distinct key it
    serves: (multi-active digest, label), multi-active digest, and
    (cooperative digest, label). Without shared configurations the
    multi-active calls run at about three times their keys."""
    layers = {
        "apply_step": lambda config, label, **kw: (masp_digest(config), label),
        "enabled_steps": lambda config, **kw: masp_digest(config),
        "abs_apply_step": lambda config, label, **kw: (abs_digest(config), label),
    }
    calls = {name: [] for name in layers}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name].append(layers[name](*args, **kw))
            return fn(*args, **kw)

        return wrapper

    for name in layers:
        monkeypatch.setattr(simulate, name, counted(name, getattr(simulate, name)))
    rep = check_forward_simulation(load_abs("mapreduce.abs"), 24, 10_000)
    assert rep.failures == [] and rep.states == 983
    for name, keys in calls.items():
        assert len(set(keys)) <= len(keys) <= 1.15 * len(set(keys)), (name, len(keys), len(set(keys)))


WRONG_LITERAL = """
class C() { method m() { vars v; v = 1; return v } }
{ vars c, f, r; c = new C(); f = c!m(); r = f.get }
"""


def _mistranslated(monkeypatch, wrong_src):
    """Checks against the translation of ``wrong_src`` in place of the
    program's own."""
    monkeypatch.setattr(
        simulate, "translate_program", lambda p: translate_program(parse_abs(wrong_src))
    )


def test_a_wrong_translation_fails_both_directions(monkeypatch, tmp_path, capsys):
    _mistranslated(monkeypatch, WRONG_LITERAL.replace("v = 1", "v = 2"))
    program = parse_abs(WRONG_LITERAL)
    fwd = check_forward_simulation(program, 30, 10_000)
    assert fwd.failures and not fwd.ok
    assert {f["abs_rule"] for f in fwd.failures} == {"Rendez-vous-Comm"}
    for f in fwd.failures:
        assert set(f) == {
            "abs_rule", "abs_label", "expected_seq", "found", "abs_digest", "masp_digest"
        }
        assert f["found"] == "no matching silent sequence"
    bwd = check_backward_simulation(program, 30, 10_000)
    assert bwd.failures and not bwd.ok
    assert {f["masp_rule"] for f in bwd.failures} == {"Invk-Active"}
    for f in bwd.failures:
        assert set(f) == {"masp_rule", "masp_label", "found", "masp_digest", "abs_digest"}
        assert f["found"] == "no cooperative response"
    path = tmp_path / "wrong.abs"
    path.write_text(WRONG_LITERAL)
    assert cli(["check-sim", str(path)]) == 1
    out = capsys.readouterr().out
    assert "forward: matched" in out and "backward: matched" in out


def test_a_wrong_main_block_fails_the_initial_pair(monkeypatch):
    good = WRONG_LITERAL.replace("r; c = new", "r; r = 1; c = new")
    _mistranslated(monkeypatch, good.replace("r = 1", "r = 2"))
    for check, side in (
        (check_forward_simulation, "abs_rule"),
        (check_backward_simulation, "masp_rule"),
    ):
        rep = check(parse_abs(good), 30, 10_000)
        assert rep.failures == [
            {side: "initial", "found": "object 0_a0: active task differs"}
        ]
        assert rep.states == 0 and rep.steps_checked == 0


def _backward_walks(p, walks, steps, seed):
    """Seeded random walks of the backward check: from the initial pair,
    each step checks every multi-active step of the pair, as the level
    search does, and moves to one matched successor pair at random. The
    number of walks that reach a failure."""
    rng = random.Random(seed)
    failed = 0
    for _ in range(walks):
        report = simulate.SimulationReport("backward")
        pairs = simulate._initial_pairs(report, p)
        for _ in range(steps):
            if not pairs or report.failures:
                break
            pairs = simulate._backward_steps(report, *rng.choice(pairs))
        failed += bool(report.failures)
    return failed


@pytest.mark.parametrize("name", ["leader_election.abs", "mapreduce.abs"])
def test_backward_walks_find_a_response_to_every_step(name):
    # Serve and Activate-Thread of an execute request, answered by a cog
    # that must first release its finished process, fail without the
    # Release-Cog, Activate row
    assert _backward_walks(load_abs(name), walks=20, steps=2000, seed=7) == 0
