"""Bounded exploration, built-in properties, worker independence."""

import importlib

from multiactive.absm.engine import abs_initial_config
from multiactive.explore import MASP_PROPERTIES, Property, default_properties, explore
from multiactive.lang import parse_masp
from multiactive.masp.engine import initial_config
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.translate import translate_program
from multiactive.values import FutRef

from conftest import load_abs, load_masp

# the package re-exports the function ``explore`` under the module's name
explore_mod = importlib.import_module("multiactive.explore")


def test_empty_main_tiny_state_space():
    cfg = initial_config(parse_masp("{ }"))
    r = explore(cfg, depth=10, width=100, properties=default_properties(cfg))
    assert 1 <= r.states_visited <= 3
    assert r.property_violations == []
    assert len(r.terminal_states) == 1
    digest, unresolved, stuck = r.terminal_states[0]
    assert unresolved == 0 and stuck == 0


def test_masp_corpus_properties_hold(masp_corpus_program):
    name, program = masp_corpus_program
    cfg = initial_config(program)
    r = explore(cfg, depth=200, width=20000, properties=default_properties(cfg))
    assert not r.frontier_truncated, name
    assert r.property_violations == [], name


def test_abs_corpus_properties_hold(abs_corpus_program):
    name, program = abs_corpus_program
    cfg = abs_initial_config(program)
    r = explore(cfg, depth=200, width=20000, properties=default_properties(cfg))
    assert not r.frontier_truncated, name
    assert r.property_violations == [], name


def test_peer_policy_never_serves_two_broadcasts():
    program = load_masp("peer_policy.masp")

    def two_broadcasts(config):
        out = []
        for name, act in config.activities.items():
            n = sum(
                1
                for t in act.current.values()
                if t.request.method == "broadcast"
            )
            if n > 1:
                out.append(f"{name}: {n} broadcasts in parallel")
        return out

    cfg = initial_config(program)
    r = explore(
        cfg,
        depth=200,
        width=20000,
        properties=(Property("exclusive-broadcast", state=two_broadcasts),),
    )
    assert not r.frontier_truncated
    assert r.property_violations == []


def test_deadlocked_terminals_flagged():
    program = load_masp("circular_hard.masp")
    cfg = initial_config(program)
    r = explore(cfg, depth=200, width=20000)
    assert not r.frontier_truncated
    assert r.terminal_states
    # the circular scenario never resolves its call futures
    assert all(unresolved > 0 for _, unresolved, _ in r.terminal_states)


def test_violation_witness_replays():
    # a property that is deliberately false somewhere: flag any Serve
    program = load_masp("peer_policy.masp")

    def no_second_activity_requests(config):
        act = config.activities.get("a1")
        if act is not None and act.current:
            return ["a request is being served"]
        return []

    cfg = initial_config(program)
    r = explore(
        cfg,
        depth=60,
        width=5000,
        properties=(Property("toy", state=no_second_activity_requests),),
    )
    assert r.property_violations
    witness = r.property_violations[0]["witness"]
    state = cfg
    from multiactive.steplabel import Label

    for key in witness:
        rule, activity, *restbits = key.split("/")
        # replay via enabled-step lookup keyed by the label text
        from multiactive.masp.steps import enabled_steps

        match = [l for l in enabled_steps(state) if l.key() == key]
        assert match, key
        state = apply_step(state, match[0])
    act = state.activities.get("a1")
    assert act is not None and act.current


def test_time_budget_truncates():
    program = load_masp("peer_policy.masp")
    cfg = initial_config(program)
    r = explore(cfg, depth=500, width=10**6, time_budget=0.0)
    assert r.frontier_truncated


def test_time_budget_is_checked_within_a_level(monkeypatch):
    # a fake clock that advances one second per expanded configuration
    now = [0.0]
    expansions = []
    real_expand = explore_mod._expand

    def expand(*args):
        expansions.append(args[0])
        now[0] += 1.0
        return real_expand(*args)

    monkeypatch.setattr(explore_mod.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(explore_mod, "_expand", expand)
    cfg = initial_config(load_masp("peer_policy.masp"))
    r = explore(cfg, depth=500, width=10**6, time_budget=6.5)
    assert r.frontier_truncated
    # expanded at clock readings 0 to 6, then stopped by the deadline
    assert len(expansions) == 7
    # inside a level: whole levels 0..d hold explore(depth=d) states
    monkeypatch.undo()
    whole = {explore(cfg, depth=d, width=10**6).states_visited for d in range(8)}
    assert 7 not in whole


def test_store_closure_sees_futures_dropped_around_a_shared_activity():
    store_closure = next(p for p in MASP_PROPERTIES if p.name == "store-closure").state
    cfg = initial_config(translate_program(load_abs("bank_account.abs")))
    while not any(
        isinstance(v, FutRef) for a in cfg.activities.values() for v in a.store.values()
    ):
        cfg = apply_step(cfg, enabled_steps(cfg)[0])
    act, fut = next(
        (a, v.name)
        for a in cfg.activities.values()
        for v in a.store.values()
        if isinstance(v, FutRef)
    )
    assert store_closure(cfg) == []
    # the successor shares the activity (and its memo) but drops the future
    futures = {f: b for f, b in cfg.futures.items() if f != fut}
    succ = cfg.update(futures=futures)
    assert succ.activities[act.name] is act
    assert any(f"unknown future {fut}" in m for m in store_closure(succ))
    assert store_closure(cfg) == []
