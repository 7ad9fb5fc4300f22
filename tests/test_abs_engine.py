"""The cooperative engine: evaluation, awaits, scheduling, sync calls."""

import hashlib

import pytest

from multiactive.absm.engine import abs_initial_config, abs_run
from multiactive.absm.evalfn import abs_evaluate
from multiactive.absm.steps import abs_apply_step, abs_enabled_steps
from multiactive.lang import parse_abs
from multiactive.lang.ast_abs import AAssign, AAwait, AGet
from multiactive.lang.ast_expr import Binop, Lit, Var
from multiactive.canon import abs_digest
from multiactive.explore import default_properties, explore
from multiactive.steplabel import Label
from multiactive.values import UNRESOLVED, EngineFault, FutRef, ObjRef

from conftest import ABS_CORPUS, load_abs



def _drive(cfg, stop, limit=2000):
    """Step with a rotating pick until ``stop(cfg)`` returns labels/truthy."""
    k = 0
    while True:
        got = stop(cfg)
        if got:
            return cfg, got
        labels = abs_enabled_steps(cfg)
        assert labels, "stuck before reaching the target"
        assert k < limit, "drive limit exceeded"
        cfg = abs_apply_step(cfg, labels[k % len(labels)])
        k += 1

def test_abs_evaluate_direct_values():
    assert abs_evaluate(Binop("+", Lit(1), Lit(2)), {}, {}) == 3
    # futures are first-class: no chasing
    assert abs_evaluate(Var("x"), {}, {"x": FutRef("f3")}) == FutRef("f3")


def test_locals_shadow_fields():
    assert abs_evaluate(Var("v"), {"v": 1}, {"v": 2}) == 2
    assert abs_evaluate(Var("v"), {"v": 1}, {}) == 1


def test_unbound_is_engine_fault():
    with pytest.raises(EngineFault):
        abs_evaluate(Var("zz"), {}, {})


def test_initial_config_shape():
    p = parse_abs("{ vars a; a = 1 }")
    cfg = abs_initial_config(p)
    start = ObjRef(0, "a0")
    (cog,) = cfg.cogs.values()
    assert cog.name == "a0" and cog.running == start and cog.next_id == 1
    assert list(cog.objects) == [0]
    ob = cfg.ob(start)
    assert ob.active is not None
    assert ob.active.locals["destiny"] == FutRef("f0")
    assert cfg.futures == {"f0": UNRESOLVED}


def test_empty_main_terminates_quietly():
    p = parse_abs("{ }")
    cfg, trace = abs_run(abs_initial_config(p))
    assert trace.terminal["terminal"]
    assert trace.terminal["unresolved_futures"] == []


def test_await_true_and_false_enabled_steps():
    p = parse_abs(
        """
class W() { method go() { return 1 } }
{ vars w, f, r; w = new W(); f = w!go(); await f?; r = f.get }
"""
    )
    cfg = abs_initial_config(p)
    # step main until the await is the head
    while True:
        labels = [l for l in abs_enabled_steps(cfg) if l.activity == "a0"]
        ob = cfg.ob(ObjRef(0, "a0"))
        if ob.active and isinstance(ob.active.stmts[0], AAwait):
            break
        cfg = abs_apply_step(cfg, labels[0])
    # future unresolved: Await-False with every insertion position
    labels = [l for l in abs_enabled_steps(cfg) if l.activity == "a0" and l.rule.startswith("Await")]
    assert {l.rule for l in labels} == {"Await-False"}
    assert len(labels) == len(cfg.ob(ObjRef(0, "a0")).queue) + 1
    # resolve the future by letting the callee run
    while True:
        others = [l for l in abs_enabled_steps(cfg) if l.activity != "a0"]
        if not others:
            break
        cfg = abs_apply_step(cfg, others[0])
    labels = [l for l in abs_enabled_steps(cfg) if l.rule.startswith("Await")]
    assert {l.rule for l in labels} == {"Await-True"}


def test_get_on_unresolved_blocks_cog():
    p = parse_abs(
        """
class W() { method go() { return 1 } }
{ vars w, f, r; w = new W(); f = w!go(); r = f.get }
"""
    )
    cfg = abs_initial_config(p)
    while True:
        ob = cfg.ob(ObjRef(0, "a0"))
        if ob.active and isinstance(ob.active.stmts[0], AAssign) and isinstance(
            ob.active.stmts[0].rhs, AGet
        ):
            break
        labels = [l for l in abs_enabled_steps(cfg) if l.activity == "a0"]
        cfg = abs_apply_step(cfg, labels[0])
    # the main cog can do nothing: Read-Fut needs a resolved future
    assert not [l for l in abs_enabled_steps(cfg) if l.activity == "a0"]


def test_new_cog_object_creates_idle_cog():
    p = parse_abs("class C(){ } { vars x; x = new C() }")
    cfg = abs_initial_config(p)
    lab = [l for l in abs_enabled_steps(cfg) if l.rule == "New-Cog-Object"][0]
    cfg2 = abs_apply_step(cfg, lab)
    assert cfg2.cogs["a1"].running is None
    ob = cfg2.ob(ObjRef(1, "a1"))
    assert ob.active is None and ob.queue == ()


def test_self_sync_call_pushes_continuation():
    p = parse_abs(
        """
class C() {
  method outer() { vars x; x = this.inner(); return x }
  method inner() { return 5 }
}
{ vars c, f, r; c = new C(); f = c!outer(); await f?; r = f.get }
"""
    )
    cfg, sync = _drive(
        abs_initial_config(p),
        lambda c: [l for l in abs_enabled_steps(c) if l.rule == "Self-Sync-Call"],
    )
    ob_name = ObjRef(sync[0].extra[0], sync[0].activity)
    cfg2 = abs_apply_step(cfg, sync[0])
    ob = cfg2.ob(ob_name)
    assert "cont" in ob.active.locals
    continuation = ob.queue[-1]
    assert isinstance(continuation.stmts[0], AAwait)
    assert isinstance(continuation.stmts[1], AAssign)
    assert isinstance(continuation.stmts[1].rhs, AGet)
    # and the whole program still completes
    final, trace = abs_run(abs_initial_config(p), budget=2000)
    assert trace.terminal["unresolved_futures"] == []


def test_cog_sync_call_checks_the_callee_id():
    p = parse_abs(
        "class C() { method m() { return 1 } }"
        " { vars c, x; c = new local C(); x = c.m() }"
    )
    cfg, sync = _drive(
        abs_initial_config(p),
        lambda c: [l for l in abs_enabled_steps(c) if l.rule == "Cog-Sync-Call"],
    )
    (label,) = sync
    assert label.extra == (0, 1)
    wrong = Label(label.rule, label.activity, label.future, (0, 99))
    with pytest.raises(EngineFault):
        abs_apply_step(cfg, wrong)
    succ = abs_apply_step(cfg, label)
    assert succ.cogs[label.activity].running == ObjRef(1, label.activity)
    # the callee hands its cog back to the waiting caller, and the run ends
    final, trace = abs_run(abs_initial_config(p), budget=200)
    assert "abs:Cog-Sync-Return-Sched" in [r.rule for r in trace.records]
    assert trace.terminal["terminal"]
    assert trace.terminal["unresolved_futures"] == []
    start = abs_initial_config(p)
    res = explore(start, properties=default_properties(start))
    assert (res.states_visited, res.transitions, res.stop) == (10, 9, "exhausted")
    assert res.ok


def test_return_without_cont_resolves_and_idles():
    p = parse_abs("class C(){ method m() { return 2 } } { vars c, f; c = new C(); f = c!m() }")
    cfg, rets = _drive(
        abs_initial_config(p),
        lambda c: [
            l
            for l in abs_enabled_steps(c)
            if l.rule == "Return" and l.activity != "a0"
        ],
    )
    cfg2 = abs_apply_step(cfg, rets[0])
    assert cfg2.futures[rets[0].future] == 2
    ob = cfg2.ob(ObjRef(rets[0].extra[0], rets[0].activity))
    assert ob.active is None


def test_await_true_guard_is_noop():
    p = parse_abs("{ vars x; await true; x = 1 }")
    cfg, trace = abs_run(abs_initial_config(p))
    assert trace.terminal["terminal"]
    rules = [r.rule for r in trace.records]
    assert "abs:Await-True" in rules


def test_await_false_cycles_forever():
    p = parse_abs("{ await false }")
    cfg, trace = abs_run(abs_initial_config(p), budget=60)
    assert trace.terminal["budget_exhausted"]
    assert not trace.terminal["terminal"]


def test_await_conjunction_two_micro_steps():
    p = parse_abs(
        """
class W() { method go() { return 1 } }
{ vars w, f, g; w = new W(); f = w!go(); g = w!go(); await f? && g? }
"""
    )
    cfg, trace = abs_run(abs_initial_config(p), budget=500)
    assert trace.terminal["unresolved_futures"] == []
    true_steps = [r for r in trace.records if r.rule == "abs:Await-True"]
    assert len(true_steps) >= 2


def test_suspend_releases_then_resumes():
    p = parse_abs("{ vars x; x = 1; suspend; x = 2 }")
    cfg, trace = abs_run(abs_initial_config(p), budget=100)
    rules = [r.rule for r in trace.records]
    assert "abs:Suspend" in rules
    i = rules.index("abs:Suspend")
    assert "abs:Activate" in rules[i:]
    assert trace.terminal["terminal"]


def test_rendezvous_is_synchronous_enqueue():
    p = parse_abs("class C(){ method m() { return 1 } } { vars c, f; c = new C(); f = c!m() }")
    cfg, rv = _drive(
        abs_initial_config(p),
        lambda c: [l for l in abs_enabled_steps(c) if l.rule == "Rendez-vous-Comm"],
    )
    before_futures = set(cfg.futures)
    cfg2 = abs_apply_step(cfg, rv[0])
    (new_fut,) = set(cfg2.futures) - before_futures
    callee = [o for c in cfg2.cogs.values() if c.name != "a0" for o in c.objects.values()][0]
    assert callee.queue and callee.queue[0].locals["destiny"] == FutRef(new_fut)
    # caller's statement now assigns the future
    main = cfg2.ob(ObjRef(0, "a0"))
    assert main.active.stmts[0].rhs.value == FutRef(new_fut)


def test_corpus_runs_terminate(abs_corpus_program):
    name, program = abs_corpus_program
    cfg, trace = abs_run(abs_initial_config(program), budget=10000)
    assert trace.terminal["terminal"], name
    assert trace.terminal["unresolved_futures"] == [], name


def test_abs_replay_reproduces_terminal_digest(bank):
    from multiactive.absm.engine import abs_replay
    from multiactive.canon import abs_digest

    final, trace = abs_run(abs_initial_config(bank), budget=500)
    replayed = abs_replay(bank, trace)
    assert abs_digest(replayed) == trace.terminal["final_digest"]


# (steps, SHA-256 of the label keys) of a seed-7 random run without
# digests, recorded before the objects were grouped by cog once per call.
ABS_RUN_PINS = {
    "bank_account.abs": (41, "54f0970a8eafbdd6b42c6c276912b0d622cf3a0775e268f34b561ef841fc2dcf"),
    "leader_election.abs": (91, "9f2078b5227e8c46502efcc05d1b90f17a9b3693343cee7f7326755fc372c808"),
    "chat.abs": (57, "4d62b260e7e6e03fe05a5018e4fb130f72f629773f6f941a4a9ee341d9fd4e67"),
    "mapreduce.abs": (59, "a1bd86e8b0f8e40dc255e47fb205a9c9367277d90a20bcf48ec32037a36b74ec"),
    "futures_of_futures.abs": (26, "d8646a8188620c29743f54d8cc8e0b97b37719a5be43951adf65f2c86116502a"),
}


@pytest.mark.parametrize("name", ABS_CORPUS)
def test_seeded_abs_run_matches_pin(name):
    _, trace = abs_run(abs_initial_config(load_abs(name)), strategy="random", seed=7, digests=False)
    keys = "\n".join(Label.from_detail(r.detail).key() for r in trace.records)
    assert (len(trace.records), hashlib.sha256(keys.encode()).hexdigest()) == ABS_RUN_PINS[name]


def test_abs_update_rejects_unknown_fields():
    cfg = abs_initial_config(parse_abs("{ vars a; a = 1 }"))
    with pytest.raises(TypeError):
        cfg.ob(ObjRef(0, "a0")).update(nope=1)
    with pytest.raises(TypeError):
        cfg.update(nope=1)


def test_abs_update_carries_no_memo_to_the_successor(bank):
    cfg = abs_initial_config(bank)
    before = abs_digest(cfg)
    ob = cfg.ob(ObjRef(0, "a0"))
    idle = cfg.with_cog(cfg.cogs["a0"].with_object(ob.update(active=None, queue=(ob.active,))))
    assert abs_digest(idle) != before
    assert cfg.ob(ObjRef(0, "a0")).update(active=ob.active) == ob
