"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced. Budgets are fixed here, not tuned per machine:
exploration is capped at 10^5 canonical states per program, never by the
clock, so the covered states do not depend on machine speed; simulation
at depth 30 / width 10^4 and five minutes per program.
"""

import random
import sys
import time

import pytest

from genprog import gen_runnable_masp
from multiactive.absm.engine import abs_initial_config
from multiactive.deadlock import diagnose_deadlock
from multiactive.explore import Property, default_properties, explore
from multiactive.lang import check_wellformed
from multiactive.masp.engine import initial_config, run
from multiactive.simulate import check_backward_simulation, check_forward_simulation
from multiactive.translate import detect_future_of_future, translate_program

from conftest import load_abs, load_masp
from test_translate import GOLDEN, _translate_one

STATE_CAP = 100_000
SIM_DEPTH = 30
SIM_WIDTH = 10_000

MASP_CORPUS = ["circular_hard.masp", "circular_soft.masp", "peer_policy.masp"]
TRANSLATED = [
    "bank_account.abs",
    "leader_election.abs",
    "chat.abs",
    "mapreduce.abs",
    "futures_of_futures.abs",
]
SIM_CORPUS = ["bank_account.abs", "leader_election.abs", "chat.abs"]


def _report(ok: bool, line: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {line}", file=sys.stderr)
    assert ok, line


def _execute_thread_cap(config):
    out = []
    for name, act in config.activities.items():
        n = sum(
            1
            for t in act.current.values()
            if t.state == "A" and t.request.method == "execute"
        )
        if n > 1:
            out.append(f"{name}: {n} active execute threads")
    return out


@pytest.fixture(scope="module")
def corpus_explorations():
    """One bounded exploration per corpus program, all properties at once."""
    results = {}
    for name in MASP_CORPUS:
        cfg = initial_config(load_masp(name))
        results[name] = explore(
            cfg,
            depth=10_000,
            width=STATE_CAP,
            properties=default_properties(cfg),
        )
    for name in TRANSLATED:
        cfg = initial_config(translate_program(load_abs(name)))
        props = default_properties(cfg) + (
            Property("cog-single-execute", state=_execute_thread_cap),
        )
        results["translated " + name] = explore(
            cfg,
            depth=10_000,
            width=STATE_CAP,
            properties=props,
        )
    return results


def test_criterion_1_safe_parallelism(corpus_explorations):
    bad = []
    covered = 0
    for name, r in corpus_explorations.items():
        covered += r.states_visited
        bad.extend(
            v for v in r.property_violations if v["property"] == "safe-parallelism"
        )
    rng = random.Random(1001)
    random_bad = 0
    for _ in range(200):
        p = gen_runnable_masp(rng)
        cfg = initial_config(p)
        r = explore(
            cfg,
            depth=100,
            width=400,
            properties=default_properties(cfg),
        )
        random_bad += sum(
            1 for v in r.property_violations if v["property"] == "safe-parallelism"
        )
    _report(
        not bad and random_bad == 0,
        "criterion 1: safe parallelism - 0 incompatible pairs over"
        f" {covered} corpus states and 200 random programs",
    )


def test_criterion_2_thread_limit_soundness(corpus_explorations):
    bad = []
    for name, r in corpus_explorations.items():
        bad.extend(
            v
            for v in r.property_violations
            if v["property"] in ("thread-limits", "cog-single-execute")
        )
    _report(
        not bad,
        "criterion 2: thread limits - group and pool bounds hold, and"
        " translated programs never run two execute threads",
    )


def test_criterion_3_deadlock_dichotomy():
    hard_cfg, hard_trace = run(
        initial_config(load_masp("circular_hard.masp")), budget=10_000
    )
    soft_cfg, soft_trace = run(
        initial_config(load_masp("circular_soft.masp")), budget=10_000
    )
    hard_ok = (
        hard_trace.terminal["terminal"]
        and hard_trace.terminal["request_never_ends"]
        and hard_trace.terminal["steps"] < 10_000
    )
    diag = diagnose_deadlock(hard_cfg)
    starved = "thread-starved" in diag.kinds()
    soft_ok = (
        soft_trace.terminal["terminal"]
        and soft_trace.terminal["unresolved_futures"] == []
        and soft_trace.terminal["steps"] < 10_000
    )
    _report(
        hard_ok and starved and soft_ok,
        "criterion 3: deadlock dichotomy - hard limit never ends"
        " (classified thread-starved), soft limit completes",
    )


def test_criterion_4_translation_golden():
    mismatches = [src for src in GOLDEN if _translate_one(src) != GOLDEN[src]]
    diag_count = 0
    for name in TRANSLATED:
        out = translate_program(load_abs(name))
        diag_count += len(check_wellformed(out))
    _report(
        not mismatches and len(GOLDEN) == 11 and diag_count == 0,
        "criterion 4: translation - 11 golden clauses byte-exact,"
        " translated corpus wellformed with 0 diagnostics",
    )


def test_criterion_5_forward_simulation():
    ok = True
    details = []
    for name in SIM_CORPUS:
        t0 = time.monotonic()
        rep = check_forward_simulation(load_abs(name), SIM_DEPTH, SIM_WIDTH)
        dt = time.monotonic() - t0
        frac = rep.outside_fragment / max(1, rep.steps_checked)
        good = (
            not rep.failures
            and rep.matched + rep.outside_fragment + rep.skipped_restriction
            == rep.steps_checked
            and frac < 0.20
            and dt < 300.0
        )
        ok = ok and good
        details.append(
            f"{name}: {rep.matched}/{rep.steps_checked} matched,"
            f" {frac:.1%} outside, {rep.states} pairs ({rep.abs_states} cooperative,"
            f" {rep.masp_states} multi-active states), stop {rep.stop}, {dt:.0f}s"
        )
    _report(ok, "criterion 5: forward simulation - " + "; ".join(details))


def test_criterion_6_backward_simulation():
    ok = True
    details = []
    for name in SIM_CORPUS:
        t0 = time.monotonic()
        rep = check_backward_simulation(load_abs(name), SIM_DEPTH, SIM_WIDTH)
        dt = time.monotonic() - t0
        silent_rows = [
            r
            for r in rep.rows
            if r.get("masp_rule") in ("New-Active", "Set-Soft-Limit")
            and "abs_rules" in r
        ]
        plumbing_silent = all(r["abs_rules"] == [] for r in silent_rows)
        good = not rep.failures and plumbing_silent and dt < 300.0
        ok = ok and good
        details.append(
            f"{name}: {rep.matched}/{rep.steps_checked} mapped,"
            f" {rep.states} pairs ({rep.abs_states} cooperative,"
            f" {rep.masp_states} multi-active states), stop {rep.stop}, {dt:.0f}s"
        )
    _report(ok, "criterion 6: backward simulation - " + "; ".join(details))


def test_criterion_7_lemma_suite():
    import test_lemmas

    test_lemmas.test_lemma_value_equiv_closed_under_evaluation()
    test_lemmas.test_lemma_serialise_and_rename_preserve_equivalence()
    test_lemmas.test_lemma_evaluation_equivalence_on_paired_frames()
    test_lemmas.test_invariant_reg_over_500_retrieves()
    _report(
        True,
        "criterion 7: lemma suite - value/serialise/rename closure (500 each),"
        " evaluation equivalence (1000), registry invariant (500 retrieves)",
    )


def test_criterion_8_restriction_detectors():
    from multiactive.absm.steps import abs_apply_step, abs_enabled_steps

    program = load_abs("futures_of_futures.abs")
    frontier = [abs_initial_config(program)]
    flagged_depth = None
    for depth in range(1, 21):
        nxt = []
        for cfg in frontier:
            for label in abs_enabled_steps(cfg):
                succ = abs_apply_step(cfg, label)
                if detect_future_of_future(succ):
                    flagged_depth = depth
                nxt.append(succ)
        if flagged_depth is not None or not nxt:
            break
        frontier = nxt[:300]
    rep = check_forward_simulation(program, depth=25, width=1500)
    noted = rep.skipped_restriction > 0 and any(
        "restriction-3" in r.get("note", "") for r in rep.rows
    )
    _report(
        flagged_depth is not None and flagged_depth <= 20 and noted
        and not rep.failures,
        f"criterion 8: restriction detectors - flagged at depth {flagged_depth},"
        f" {rep.skipped_restriction} branches skipped with a restriction-3 note",
    )


def test_criterion_9_determinism():
    target = load_masp("circular_soft.masp")
    _, t1 = run(initial_config(target), strategy="random", seed=11)
    _, t2 = run(initial_config(target), strategy="random", seed=11)
    byte_equal = t1.to_jsonl() == t2.to_jsonl()
    _report(byte_equal, "criterion 9: determinism - seeded runs byte-identical")
