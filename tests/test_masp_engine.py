"""The multi-active engine: evaluation, auxiliaries, reduction rules, runs."""

import dataclasses
import hashlib
import random

import pytest

from multiactive.canon import masp_digest
from multiactive.lang import parse_masp
from multiactive.lang.ast_expr import Binop, Lit, Var
from multiactive.masp.engine import initial_config, replay, run
from multiactive.masp.evalfn import evaluate, rename_disjoint, serialise
from multiactive.masp.runtime import Activity, FutBinder, MaspConfig, Obj, bind
from multiactive.masp.steps import apply_step, enabled_steps, stuck_threads
from multiactive.steplabel import Label
from multiactive.values import (
    UNDEFINED,
    ActRef,
    EngineFault,
    FutRef,
    Loc,
)

from multiactive.translate import translate_program

from conftest import ABS_CORPUS, MASP_CORPUS, load_abs, load_masp


def test_evaluate_arithmetic():
    assert evaluate(Binop("+", Lit(1), Lit(2)), {}, {}) == 3


def test_evaluate_chases_locations():
    store = {Loc(1): Loc(2), Loc(2): 5}
    assert evaluate(Var("x"), store, {"x": Loc(1)}) == 5


def test_evaluate_stops_at_future_location():
    store = {Loc(1): FutRef("f1")}
    assert evaluate(Var("x"), store, {"x": Loc(1)}) == Loc(1)


def test_evaluate_stops_at_object_location():
    store = {Loc(1): Obj("C", {"a": 1})}
    assert evaluate(Var("x"), store, {"x": Loc(1)}) == Loc(1)


def test_future_arithmetic_is_undefined():
    store = {Loc(1): FutRef("f1")}
    assert evaluate(Binop("+", Var("x"), Lit(1)), store, {"x": Loc(1)}) is UNDEFINED


def test_unbound_variable_is_engine_fault():
    with pytest.raises(EngineFault):
        evaluate(Var("nope"), {}, {"this": Loc(1)})


def test_field_read_through_this():
    store = {Loc(1): Obj("C", {"n": 41})}
    assert evaluate(Binop("+", Var("n"), Lit(1)), store, {"this": Loc(1)}) == 42


def test_bind_shapes():
    p = parse_masp(
        "class C(){ method z() { return null } method m(a, b) { vars c; return a } } { }"
    )
    frame = bind(p, Loc(1), "C", "z", ())
    assert frame.locals == {"this": Loc(1)}
    frame2 = bind(p, Loc(1), "C", "m", (1, 2))
    assert frame2.locals == {"this": Loc(1), "a": 1, "b": 2, "c": None}
    assert bind(p, Loc(1), "C", "missing", ()) is None
    assert bind(p, Loc(1), "C", "m", (1,)) is None  # arity mismatch


def test_serialise_primitive_is_empty():
    assert serialise(5, {}) == {}
    assert serialise(None, {}) == {}
    assert serialise(ActRef("a1"), {}) == {}
    assert serialise(FutRef("f1"), {}) == {}


def test_serialise_transitive():
    store = {Loc(1): Obj("C", {"x": Loc(2)}), Loc(2): 3}
    piece = serialise(Loc(1), store)
    assert piece == {Loc(1): store[Loc(1)], Loc(2): 3}


def test_serialise_cyclic_terminates():
    store = {Loc(1): Obj("C", {"x": Loc(1)})}
    piece = serialise(Loc(1), store)
    assert piece == store
    # independent fixpoint oracle: iterate mark-and-copy until stable
    marked = set()
    work = [Loc(1)]
    while work:
        l = work.pop()
        if l in marked or not isinstance(l, Loc):
            continue
        marked.add(l)
        s = store[l]
        if isinstance(s, Obj):
            work.extend(s.fields.values())
        else:
            work.append(s)
    assert marked == set(piece)


def test_rename_disjoint_empty_piece():
    values, piece, _ = rename_disjoint({Loc(1): 1}, (5, None), {})
    assert values == (5, None)
    assert piece == {}


def test_rename_disjoint_consistent():
    base = {Loc(1): 0}
    piece = {Loc(1): Obj("C", {"x": Loc(2)}), Loc(2): 3}
    (v,), piece2, counter = rename_disjoint(base, (Loc(1),), piece)
    assert v != Loc(1) and v in piece2
    assert set(piece2).isdisjoint(base)
    assert piece2[v].fields["x"] in piece2
    # futures and activity names untouched
    (w,), piece3, _ = rename_disjoint(base, (FutRef("f0"),), {})
    assert w == FutRef("f0")


def test_empty_main_runs_to_completion():
    cfg = initial_config(parse_masp("{ }"))
    labels = enabled_steps(cfg)
    assert [l.rule for l in labels] == ["Skip"]
    final, trace = run(cfg)
    assert trace.terminal["terminal"]
    assert trace.terminal["unresolved_futures"] == []


def test_initial_config_digest_deterministic():
    from multiactive.canon import masp_digest

    p = parse_masp("class C(a){ } { vars x; x = newActive C(3) }")
    assert masp_digest(initial_config(p)) == masp_digest(initial_config(p))


def test_invk_future_only_under_soft_limit():
    src = """
class Srv() {
  policy { group g selfcompatible; }
  method slow() group g { vars r; r = 1; return r }
}
{
  vars s, f, w;
  s = newActive Srv();
  f = s.slow();
  %s;
  w = f.get()
}
"""
    soft = parse_masp(src % "setLimitSoft")
    cfg = initial_config(soft)
    # drive up to the blocked get
    for rule in ("New-Active", "Assign-Local", "Invk-Active", "Assign-Local", "Set-Soft-Limit"):
        lab = [l for l in enabled_steps(cfg) if l.rule == rule and l.activity == "a0"][0]
        cfg = apply_step(cfg, lab)
    labels = [l for l in enabled_steps(cfg) if l.activity == "a0"]
    assert any(l.rule == "Invk-Future" for l in labels)

    hard = parse_masp(src % "setLimitHard")
    cfg = initial_config(hard)
    for rule in ("New-Active", "Assign-Local", "Invk-Active", "Assign-Local", "Set-Hard-Limit"):
        lab = [l for l in enabled_steps(cfg) if l.rule == rule and l.activity == "a0"][0]
        cfg = apply_step(cfg, lab)
    labels = [l for l in enabled_steps(cfg) if l.activity == "a0"]
    assert not labels  # the main thread is blocked, nothing enabled locally


def test_serve_moves_request_and_binds():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible; }
  method m(k) group g { return k }
}
{ vars s, f; s = newActive Srv(); f = s.m(9) }
"""
    )
    cfg = initial_config(p)
    while True:
        serve = [l for l in enabled_steps(cfg) if l.rule == "Serve"]
        if serve:
            break
        cfg = apply_step(cfg, enabled_steps(cfg)[0])
    before = cfg.activities["a1"]
    assert len(before.queue) == 1
    cfg = apply_step(cfg, serve[0])
    after = cfg.activities["a1"]
    assert after.queue == ()
    thread = after.current[serve[0].future]
    assert thread.state == "A"
    assert thread.stack[0].locals["k"] == 9


def test_invk_active_creates_future_and_copies_args():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible; }
  method m(o) group g { return o }
}
class Box(v) { }
{ vars s, b, f; s = newActive Srv(); b = new Box(7); f = s.m(b) }
"""
    )
    cfg = initial_config(p)
    while True:
        invks = [l for l in enabled_steps(cfg) if l.rule == "Invk-Active"]
        if invks:
            break
        cfg = apply_step(cfg, enabled_steps(cfg)[0])
    cfg2 = apply_step(cfg, invks[0])
    callee = cfg2.activities["a1"]
    (req,) = callee.queue
    assert cfg2.futures[req.future].resolved is False
    assert cfg2.futures[req.future].method == "m"
    # argument serialised into the callee store under a fresh location
    (arg,) = req.args
    assert isinstance(arg, Loc) and isinstance(callee.store[arg], Obj)
    assert callee.store[arg].fields["v"] == 7
    # caller now holds a location mapped to the new future
    caller = cfg2.activities["a0"]
    head = caller.current["f0"].stack[0].stmts[0]
    loc = head.rhs.value
    assert caller.store[loc] == FutRef(req.future)


def test_return_resolves_with_serialised_piece():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible; }
  method m() group g { vars b; b = new Box(5); return b }
}
class Box(v) { }
{ vars s, f; s = newActive Srv(); f = s.m() }
"""
    )
    cfg, trace = run(initial_config(p), budget=100)
    assert trace.terminal["unresolved_futures"] == []
    binder = cfg.futures["f1"]
    assert isinstance(binder.value, Loc)
    assert binder.piece[binder.value].fields["v"] == 5


def test_update_is_not_repeatable():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible; }
  method m() group g { return 3 }
}
{ vars s, f; s = newActive Srv(); f = s.m() }
"""
    )
    cfg = initial_config(p)
    while True:
        ups = [l for l in enabled_steps(cfg) if l.rule == "Update"]
        if ups:
            break
        labels = enabled_steps(cfg)
        if not labels:
            pytest.fail("no update ever enabled")
        cfg = apply_step(cfg, labels[0])
    cfg2 = apply_step(cfg, ups[0])
    # the location no longer holds the future: same label must be rejected
    with pytest.raises(EngineFault):
        apply_step(cfg2, ups[0])
    assert not [l for l in enabled_steps(cfg2) if l.rule == "Update"]


def test_unknown_method_is_stuck_not_crash():
    p = parse_masp("class C(){ } { vars c, x; c = new C(); x = c.nope() }")
    cfg, trace = run(initial_config(p), budget=50)
    assert trace.terminal["terminal"]
    stuck = stuck_threads(cfg)
    assert [s[2] for s in stuck] == ["method-missing"]


def test_retrieve_of_an_unregistered_id_is_stuck():
    p = parse_masp(
        "class COG() { method go() { vars r; r = this.retrieve(5); return r } }"
        " { vars c, f; c = newActive COG(); f = c.go() }"
    )
    cfg, trace = run(initial_config(p), budget=100)
    assert trace.terminal["terminal"]
    assert stuck_threads(cfg) == [("a1", "f1", "retrieve-miss")]


def test_native_call_on_an_id_behind_a_future_waits_by_necessity():
    # ``w`` never serves ``nope``, so the id stays an unresolved future
    p = parse_masp(
        "class W() { }"
        " class COG(w) { method go() {"
        " vars i, r; i = w.nope(); r = this.retrieve(i); return r } }"
        " { vars w, c, f; w = newActive W(); c = newActive COG(w); f = c.go() }"
    )
    cfg, trace = run(initial_config(p), budget=100)
    assert trace.terminal["terminal"]
    assert stuck_threads(cfg) == [("a2", "f1", "wait-by-necessity")]


def test_run_determinism_byte_identical():
    p = load_masp("circular_soft.masp")
    _, t1 = run(initial_config(p), strategy="random", seed=7)
    _, t2 = run(initial_config(p), strategy="random", seed=7)
    assert t1.to_jsonl() == t2.to_jsonl()
    _, t3 = run(initial_config(p), strategy="random", seed=8)
    assert t3.to_jsonl() != t1.to_jsonl()


def test_replay_reproduces_terminal_digest():
    p = load_masp("circular_soft.masp")
    final, trace = run(initial_config(p), budget=200)
    from multiactive.canon import masp_digest

    replayed = replay(p, trace)
    assert masp_digest(replayed) == trace.terminal["final_digest"]


def test_deadlock_scenario_dichotomy():
    hard = load_masp("circular_hard.masp")
    cfg, t = run(initial_config(hard), budget=10000)
    assert t.terminal["terminal"] and t.terminal["request_never_ends"]
    soft = load_masp("circular_soft.masp")
    cfg2, t2 = run(initial_config(soft), budget=10000)
    assert t2.terminal["terminal"]
    assert t2.terminal["unresolved_futures"] == []


# (steps, SHA-256 of the label keys) of a seed-7 random run without
# digests, recorded before enumeration was memoized per activity: the
# memo must offer the same labels in the same order.
RUN_PINS = {
    "circular_hard.masp": (24, "77ea1a4c71260188a2f7146a9e2586d1f49a5cd1d31396d320b9bc2581ad0725"),
    "circular_soft.masp": (39, "64339238d99299b7dc7e1ee0bea336b35cc48dbc0a1c5d164e26d7463208b5ab"),
    "peer_policy.masp": (29, "4db5e94cd2211999655ec84a9ec4aaeaaea6e871bfed64ad493faf935da7f128"),
    "bank_account.abs": (136, "94161f57a50213a1d406b78bd8ce96cad110e217573e19d6264e26a2399fba8a"),
    "leader_election.abs": (280, "87877a649da963fe8fab88125c359725e051dfb5d4213feef92b9e35d8765799"),
    "chat.abs": (159, "83125ab7c65605175623383805faac02dca19f01ae27134bd88fe0db7c901d2e"),
    "mapreduce.abs": (134, "ac00e98c1c30b88b332ca7f2a92b621c6da298875639f41b60010ada492e3ef5"),
    "futures_of_futures.abs": (74, "15bb933102acf8b8ff1c8a4cf418c7e812509e012489dc7782427be4f6cc9b48"),
}


def _program(name):
    """A native program as written, a cooperative one translated."""
    if name.endswith(".abs"):
        return translate_program(load_abs(name))
    return load_masp(name)


@pytest.mark.parametrize("name", MASP_CORPUS + ABS_CORPUS)
def test_seeded_run_matches_pin(name):
    _, trace = run(initial_config(_program(name)), strategy="random", seed=7, digests=False)
    keys = "\n".join(Label.from_detail(r.detail).key() for r in trace.records)
    assert (len(trace.records), hashlib.sha256(keys.encode()).hexdigest()) == RUN_PINS[name]


def _rebuilt(cfg):
    """The same configuration with every activity rebuilt field for field,
    so no memo computed on the originals can answer for it."""
    acts = {
        n: Activity(**{f.name: getattr(a, f.name) for f in dataclasses.fields(Activity)})
        for n, a in cfg.activities.items()
    }
    return MaspConfig(cfg.program, acts, cfg.futures, cfg.act_counter, cfg.fut_counter)


@pytest.mark.parametrize("name", MASP_CORPUS + ABS_CORPUS)
def test_memoized_labels_match_fresh_enumeration(name):
    rng = random.Random(name)
    for _ in range(3):
        cfg = initial_config(_program(name))
        for _ in range(120):
            for mode in ("explore", "run"):
                got = enabled_steps(cfg, mode)
                assert got == enabled_steps(cfg, mode)  # served from the memo
                assert got == enabled_steps(_rebuilt(cfg), mode)
            labels = enabled_steps(cfg)
            if not labels:
                break
            cfg = apply_step(cfg, labels[rng.randrange(len(labels))])


def _with_update_enabled():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible; }
  method m() group g { return 3 }
}
{ vars s, f; s = newActive Srv(); f = s.m() }
"""
    )
    cfg = initial_config(p)
    while not [l for l in enabled_steps(cfg) if l.rule == "Update"]:
        cfg = apply_step(cfg, enabled_steps(cfg)[0])
    return cfg


def test_update_labels_follow_the_configuration_not_the_shared_activity():
    resolved = _with_update_enabled()
    (up,) = [l for l in enabled_steps(resolved) if l.rule == "Update"]
    futures = dict(resolved.futures)
    futures[up.future] = FutBinder(method=futures[up.future].method)
    pending = resolved.update(futures=futures)
    assert pending.activities[up.activity] is resolved.activities[up.activity]
    for mode in ("explore", "run"):
        assert up not in enabled_steps(pending, mode)
        assert up in enabled_steps(resolved, mode)
        assert up not in enabled_steps(pending, mode)


def test_update_rejects_unknown_fields():
    cfg = initial_config(load_masp("circular_soft.masp"))
    with pytest.raises(TypeError):
        cfg.activities["a0"].update(nope=1)
    with pytest.raises(TypeError):
        cfg.update(nope=1)


def test_update_carries_no_memo_to_the_successor():
    cfg = initial_config(load_masp("peer_policy.masp"))
    while not [l for l in enabled_steps(cfg) if l.rule == "Serve"]:
        cfg = apply_step(cfg, enabled_steps(cfg)[0])
    serve = [l for l in enabled_steps(cfg) if l.rule == "Serve"][0]
    act = cfg.activities[serve.activity]
    emptied = cfg.with_activity(act.update(queue=()))
    assert not [
        l for l in enabled_steps(emptied) if l.rule == "Serve" and l.activity == act.name
    ]
    before = masp_digest(cfg)
    flipped = cfg.with_activity(act.update(limit="H" if act.limit == "S" else "S"))
    assert masp_digest(flipped) != before
    assert act.update(limit=act.limit) == act
