"""The step memo of both engines against the rule handlers run fresh.

Every ``apply_step``/``abs_apply_step`` call that ``explore`` makes on the
corpus and on ``genprog`` programs is repeated by the rule's handler on a
field-for-field copy of the configuration, down to each activity, cog
and object, which carries no memo; the two successors must be equal and
have equal digests. The hand-built cases pin what a memo entry reads:
the node (an activity or a cog), the program and the configuration cells
its rule reads (a future's binder or value), and when it keeps its
successor alive.

The enabledness tests apply, at states that ``explore`` reaches, every
enumerated label and mutants of it: another future, another ``extra``,
another activity, another rule. Every rule of either engine must raise
``EngineFault`` exactly when the label is not enumerated.
"""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest

import multiactive.absm.engine as abs_engine
import multiactive.absm.steps as abs_steps
import multiactive.masp.engine as masp_engine
import multiactive.masp.steps as masp_steps
from genprog import gen_runnable_abs, gen_runnable_masp
from multiactive.absm.engine import abs_initial_config
from multiactive.canon import abs_digest, masp_digest
from multiactive.explore import Property, default_properties, explore
from multiactive.lang import parse_abs, parse_masp
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import MaspConfig
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.steplabel import Label
from multiactive.translate import translate_program
from multiactive.values import EngineFault, ObjRef, evolve

from conftest import ABS_CORPUS, MASP_CORPUS, load_abs, load_masp


def _rebuilt(config):
    """A copy of ``config`` down to each activity, or each cog and object,
    so no memo on the originals reaches it."""
    if isinstance(config, MaspConfig):
        return config.update(
            activities={n: evolve(a, {}) for n, a in config.activities.items()}
        )
    return config.update(
        cogs={
            n: c.update(objects={i: evolve(o, {}) for i, o in c.objects.items()})
            for n, c in config.cogs.items()
        }
    )


@pytest.fixture
def differential(monkeypatch):
    """Checks every step ``explore`` applies; returns per-rule counts of
    local steps taken and of handler runs (the memo's misses)."""
    counts = {"steps": Counter(), "handled": Counter()}
    # each engine's semantics record reads its apply function from the
    # engine module, so the checked one is bound there
    for steps, engine, name, digest in (
        (masp_steps, masp_engine, "apply_step", masp_digest),
        (abs_steps, abs_engine, "abs_apply_step", abs_digest),
    ):
        handlers = dict(steps._RULES)
        for rule in steps._LOCAL:
            monkeypatch.setitem(steps._RULES, rule, _counted(handlers[rule], counts))
        checked = _checked(getattr(steps, name), handlers, steps._LOCAL, digest, counts)
        monkeypatch.setattr(engine, name, checked)
    return counts


def _counted(handler, counts):
    def run(config, label):
        counts["handled"][label.rule] += 1
        return handler(config, label)

    return run


def _checked(apply_fn, handlers, local, digest, counts):
    def step(config, label):
        got = apply_fn(config, label)
        want = handlers[label.rule](_rebuilt(config), label)
        assert got == want, label.key()
        assert digest(got) == digest(want), label.key()
        if label.rule in local:
            counts["steps"][label.rule] += 1
        return got

    return step


def _hits(counts) -> int:
    return sum(counts["steps"].values()) - sum(counts["handled"].values())


def _corpus_config(name):
    if name.endswith(".masp"):
        return initial_config(load_masp(name))
    if name.endswith(".abs"):
        return abs_initial_config(load_abs(name))
    return initial_config(translate_program(load_abs(name[: -len(">masp")])))


@pytest.mark.parametrize(
    "name", MASP_CORPUS + ABS_CORPUS + [n + ">masp" for n in ABS_CORPUS]
)
def test_memoized_steps_match_fresh_on_corpus(name, differential):
    cfg = _corpus_config(name)
    explore(cfg, depth=60, width=1500, properties=default_properties(cfg))
    assert _hits(differential) > 0


def test_memoized_steps_match_fresh_on_generated_programs(differential):
    rng = random.Random(8)
    configs = []
    for _ in range(25):
        program = gen_runnable_abs(rng)
        configs.append(abs_initial_config(program))
        configs.append(initial_config(translate_program(program)))
    configs += [initial_config(gen_runnable_masp(rng)) for _ in range(25)]
    for cfg in configs:
        explore(cfg, depth=20, width=150, properties=default_properties(cfg))
    assert _hits(differential) > 0


# -- enabledness ------------------------------------------------------------------


def _reached(config, width):
    """The states that ``explore`` reaches from ``config``, to ``width``."""
    states = []
    record = Property("reached", state=lambda c: states.append(c) or [])
    explore(config, depth=40, width=width, properties=(record,))
    return states


def _mutants(label, rules, activities, futures):
    """``label`` and its variants in one field each."""
    yield label
    for fut in futures:
        yield replace(label, future=fut)
    yield replace(label, extra=label.extra + (0,))
    if label.extra:
        yield replace(label, extra=label.extra[:-1])
        yield replace(label, extra=label.extra[:-1] + (label.extra[-1] + 1,))
    for name in activities:
        yield replace(label, activity=name)
    for rule in rules:
        yield replace(label, rule=rule)


def _check_enabledness(config, tally):
    """At ``config``, each checked label applies exactly when it is
    enumerated; ``tally`` counts the applied and the refused labels."""
    if isinstance(config, MaspConfig):
        enabled, apply = enabled_steps, apply_step
        rules = set(masp_steps._RULES)
        activities = set(config.activities)
    else:
        enabled, apply = abs_steps.abs_enabled_steps, abs_steps.abs_apply_step
        rules = set(abs_steps._RULES)
        activities = set(config.cogs)
    labels = enabled(config)
    offered = set(labels)
    futures = sorted({l.future for l in labels} | {None, "f999"}, key=str)
    tried = set()
    for label in labels:
        for cand in _mutants(label, sorted(rules), sorted(activities), futures):
            if cand in tried:
                continue
            tried.add(cand)
            try:
                apply(config, cand)
                applied = True
            except EngineFault:
                applied = False
            assert applied == (cand in offered), cand.key()
            tally[applied] += 1


def test_a_handler_takes_exactly_the_enumerated_labels_on_the_corpus():
    tally = Counter()
    for name in MASP_CORPUS + ABS_CORPUS + [n + ">masp" for n in ABS_CORPUS]:
        for cfg in _reached(_corpus_config(name), 400):
            _check_enabledness(cfg, tally)
    assert tally[True] > 0 and tally[False] > 0


def test_a_handler_takes_exactly_the_enumerated_labels_on_generated_programs():
    rng = random.Random(15)
    configs = []
    for _ in range(25):
        program = gen_runnable_abs(rng)
        configs.append(abs_initial_config(program))
        configs.append(initial_config(translate_program(program)))
    configs += [initial_config(gen_runnable_masp(rng)) for _ in range(25)]
    tally = Counter()
    for cfg in configs:
        for state in _reached(cfg, 100):
            _check_enabledness(state, tally)
    assert tally[True] > 0 and tally[False] > 0


# beside the corpus, the rules it does not reach: a remote, a self and a
# cog-local synchronous call, ``suspend``, a boolean guard, ``skip``, both
# branches of an ``if`` and both thread limits
RULE_PROGRAMS_ABS = [
    "class A() { method m() { return 1 } }"
    " class B(a) { method go() { vars x; x = a.m(); return x } }"
    " { vars a, b, f; a = new A(); b = new B(a); f = b!go(); await f? }",
    "class C() { method outer() { vars x; x = this.inner(); return x }"
    " method inner() { return 5 } }"
    " { vars c, f, r; c = new C(); f = c!outer(); await f?; r = f.get }",
    "class C() { method m() { return 1 } } { vars c, x; c = new local C(); x = c.m() }",
    "{ vars x; x = 1; suspend; x = 2 }",
    "class C(v) { method set() { v = 1; return null }"
    " method waiter() { await v == 1; return 2 } }"
    " { vars c, f, g; c = new C(0); f = c!waiter(); g = c!set(); await f? }",
    "{ vars x; skip; x = 1; if (x == 2) { x = 3 } else { x = 4 };"
    " if (x == 4) { x = 5 } else { skip } }",
]
RULE_PROGRAM_MASP = (
    "{ vars x; setLimitHard; skip; setLimitSoft; x = 1;"
    " if (x == 2) { x = 3 } else { x = 4 }; if (x == 4) { x = 5 } else { skip } }"
)


def _applied_rules(config) -> set:
    rules = set()
    note = Property("rules", transition=lambda old, new, label: rules.add(label.rule) or [])
    explore(config, depth=40, width=300, properties=(note,))
    return rules


def test_explore_applies_every_rule_of_both_engines():
    """No rule's handler serves labels that nothing reaches: over the
    corpus and the programs above, `explore` applies every rule."""
    masp_rules, abs_rules = set(), set()
    for name in MASP_CORPUS + ABS_CORPUS + [n + ">masp" for n in ABS_CORPUS]:
        cfg = _corpus_config(name)
        (masp_rules if isinstance(cfg, MaspConfig) else abs_rules).update(_applied_rules(cfg))
    for source in RULE_PROGRAMS_ABS:
        abs_rules |= _applied_rules(abs_initial_config(parse_abs(source)))
    masp_rules |= _applied_rules(initial_config(parse_masp(RULE_PROGRAM_MASP)))
    assert masp_rules == set(masp_steps._RULES)
    assert abs_rules == set(abs_steps._RULES)


# ``hi`` outranks ``lo`` and the groups are compatible: once both requests
# are queued, only ``h``'s may be served
PRIORITY_SERVER = """
class S() {
  policy { group hi selfcompatible; group lo selfcompatible;
           compatible hi lo; priority hi > lo; }
  method h() group hi { return 1 }
  method l() group lo { return 2 }
}
{ vars s, a, b; s = newActive S(); a = s.l(); b = s.h() }
"""


def test_serve_refuses_a_request_the_priority_puts_behind():
    refused = []
    for state in _reached(initial_config(parse_masp(PRIORITY_SERVER)), 400):
        offered = set(enabled_steps(state))
        for name, act in state.activities.items():
            for idx, q in enumerate(act.queue):
                label = Label("Serve", name, q.future, (idx,))
                if label not in offered:
                    with pytest.raises(EngineFault):
                        apply_step(state, label)
                    refused.append(label.key())
    assert refused == ["Serve/a1/f1/0"] * 3


# ``get`` and ``inc`` are compatible, so ``get`` answers 0 or 1 by how the
# two interleave, while main, which made both calls first, is one shared
# activity in every branch: its ``Update`` meets its future bound to
# either value, which a memo that ignored the binder would mix up
_RACE = """
class Counter(n) {
  policy {
    group all selfcompatible;
  }
  method inc() group all { n = n + 1; return n }
  method get() group all { return n }
}
{
  vars c, f, g, x;
  c = newActive Counter(0);
  f = c.get();
  g = c.inc();
  x = f + 1
}
"""


def test_memoized_steps_match_fresh_on_a_racy_future(differential):
    cfg = initial_config(parse_masp(_RACE))
    explore(cfg, depth=60, width=1500, properties=default_properties(cfg))
    assert differential["steps"]["Update"] > differential["handled"]["Update"]


# -- hand-built cases -----------------------------------------------------------

_BOX = """
class Box(v) {
  method get() { return v }
}
{
  vars b, f, x, y;
  b = newActive Box(3);
  f = b.get();
  x = 1;
  y = f + x
}
"""


def _steps(config, *rules):
    """Apply the first enabled label of each rule in turn."""
    for rule in rules:
        config = apply_step(config, _label(config, rule))
    return config


def _ready():
    """Main has called ``b.get()``: its ``x = 1`` and Box's ``Serve`` wait."""
    return _steps(
        initial_config(parse_masp(_BOX)),
        "New-Active",
        "Assign-Local",
        "Invk-Active",
        "Assign-Local",
    )


def _label(config, rule):
    return next(l for l in enabled_steps(config) if l.rule == rule)


def _fresh(config, label):
    return masp_steps._RULES[label.rule](_rebuilt(config), label)


def _entry(config, label):
    return config.activities[label.activity].__dict__.get("_next", {}).get(label)


def test_both_orders_of_a_diamond_share_each_node():
    s = _ready()
    assign, serve = _label(s, "Assign-Local"), _label(s, "Serve")
    left = apply_step(apply_step(s, assign), serve)
    right = apply_step(apply_step(s, serve), assign)
    assert left == right
    assert assign.activity != serve.activity
    for name in (assign.activity, serve.activity):
        assert left.activities[name] is right.activities[name]


def test_update_misses_when_the_binder_is_another_object():
    s = _steps(_ready(), "Serve", "Return")
    update = _label(s, "Update")
    first = apply_step(s, update)
    binder = s.futures[update.future]
    other = s.update(futures={**s.futures, update.future: evolve(binder, {"value": 5})})
    second = apply_step(other, update)
    assert second == _fresh(other, update)
    assert second != first
    # the same binder again hits the entry the second call left
    assert apply_step(other, update).activities[update.activity] is second.activities[
        update.activity
    ]


def test_return_hands_its_binder_on_so_update_hits():
    s = _steps(_ready(), "Serve")
    ret = _label(s, "Return")
    one, two = apply_step(s, ret), apply_step(s, ret)
    assert one.futures[ret.future] is two.futures[ret.future]
    update = _label(one, "Update")
    assert (
        apply_step(one, update).activities[update.activity]
        is apply_step(two, update).activities[update.activity]
    )


def _held(entry):
    """The successor node an entry holds; None once it was collected."""
    succ = entry[3]
    return succ() if isinstance(succ, weakref.ref) else succ


def test_an_entry_whose_successor_was_collected_recomputes():
    s = _ready()
    assign, serve = _label(s, "Assign-Local"), _label(s, "Serve")
    apply_step(s, assign)
    gc.collect()
    assert _held(_entry(s, assign)) is None
    again = apply_step(s, assign)
    assert again == _fresh(s, assign)
    succ = weakref.ref(again.activities[assign.activity])
    assert _held(_entry(s, assign)) is succ()
    # needed a second time, the successor now lives as long as its source
    del again
    gc.collect()
    assert succ() is not None and _held(_entry(s, assign)) is succ()
    assert apply_step(s, assign).activities[assign.activity] is succ()
    # while a first-time entry's successor still dies when nothing holds it
    apply_step(s, serve)
    gc.collect()
    assert _held(_entry(s, serve)) is None


def test_another_program_misses():
    s = _ready()
    assign = _label(s, "Assign-Local")
    first = apply_step(s, assign)
    moved = s.update(program=parse_masp(_BOX))
    second = apply_step(moved, assign)
    assert second == first
    assert second.activities[assign.activity] is not first.activities[assign.activity]


def test_non_local_rules_store_no_entry():
    s = initial_config(parse_masp(_BOX))
    for rule in ("New-Active", "Assign-Local", "Invk-Active"):
        label = _label(s, rule)
        nxt = apply_step(s, label)
        assert (_entry(s, label) is None) == (rule != "Assign-Local")
        s = nxt
    cfg = abs_initial_config(load_abs("bank_account.abs"))
    applied = set()
    for _ in range(100):
        labels = abs_steps.abs_enabled_steps(cfg)
        if not labels:
            break
        label = next((l for l in labels if l.rule in _ABS_GLOBAL), labels[0])
        nxt = abs_steps.abs_apply_step(cfg, label)
        if label.rule in _ABS_GLOBAL:
            applied.add(label.rule)
            for cog in cfg.cogs.values():
                assert label not in cog.__dict__.get("_next", {})
        cfg = nxt
    assert applied == set(_ABS_GLOBAL)


_ABS_GLOBAL = ("New-Cog-Object", "Rendez-vous-Comm")


# -- hand-built cooperative cases ---------------------------------------------

# Box answers from its own cog while main awaits the answer, then reads it
_ABS_BOX = """
class Box(v) {
  method get() { return v }
}
{
  vars b, f, x;
  b = new Box(3);
  f = b!get();
  await f?;
  x = f.get
}
"""


def _abs_steps(config, *rules):
    """Apply the first enabled label of each rule in turn."""
    for rule in rules:
        config = abs_steps.abs_apply_step(config, _abs_label(config, rule))
    return config


def _abs_label(config, rule):
    return next(l for l in abs_steps.abs_enabled_steps(config) if l.rule == rule)


def _abs_fresh(config, label):
    return abs_steps._RULES[label.rule](_rebuilt(config), label)


def _abs_called():
    """Main has called ``b!get()``: Box's ``Activate`` and main's ``f = ...``
    wait."""
    return _abs_steps(
        abs_initial_config(parse_abs(_ABS_BOX)),
        "New-Cog-Object",
        "Assign-Local",
        "Rendez-vous-Comm",
    )


def _with_future(config, fut, value):
    return config.update(futures={**config.futures, fut: value})


def test_activate_misses_while_its_cog_runs_another_object():
    s = _abs_called()
    activate = _abs_label(s, "Activate")
    one, two = abs_steps.abs_apply_step(s, activate), abs_steps.abs_apply_step(s, activate)
    ref, cog = ObjRef(activate.extra[0], activate.activity), s.cogs[activate.activity]
    assert one.cogs[cog.name] is two.cogs[cog.name]
    assert two.cogs[cog.name].running == ref and two == _abs_fresh(s, activate)
    busy = s.with_cog(cog.update(running=ObjRef(2, cog.name)))
    with pytest.raises(EngineFault):
        abs_steps.abs_apply_step(busy, activate)


def test_await_false_then_await_true_across_the_resolution():
    s = _abs_steps(_abs_called(), "Assign-Local")
    waiting = _abs_label(s, "Await-False")
    fut = s.ob(ObjRef(0, "a0")).active.locals["f"].name
    parked = abs_steps.abs_apply_step(s, waiting)  # holds the entry's successor
    resolved = _with_future(s, fut, 3)
    with pytest.raises(EngineFault):
        abs_steps.abs_apply_step(resolved, waiting)
    done = _abs_label(resolved, "Await-True")
    assert abs_steps.abs_apply_step(resolved, done) == _abs_fresh(resolved, done)
    with pytest.raises(EngineFault):
        abs_steps.abs_apply_step(s, done)
    # the unresolved future still answers the entry ``waiting`` left
    assert abs_steps.abs_apply_step(s, waiting) == parked == _abs_fresh(s, waiting)


def test_return_puts_its_written_value_back_on_a_hit():
    s = _abs_steps(_abs_called(), "Activate")
    ret = _abs_label(s, "Return")
    first = abs_steps.abs_apply_step(s, ret)
    # main steps first: another configuration holding the same Box
    other = _abs_steps(s, "Assign-Local")
    hit = abs_steps.abs_apply_step(other, ret)
    assert hit.cogs[ret.activity] is first.cogs[ret.activity]
    assert hit == _abs_fresh(other, ret)
    assert hit.futures[ret.future] == 3


def test_read_fut_misses_on_another_value():
    s = _abs_steps(_abs_called(), "Assign-Local")
    fut = s.ob(ObjRef(0, "a0")).active.locals["f"].name
    s = _abs_steps(_with_future(s, fut, 3), "Await-True")
    read = _abs_label(s, "Read-Fut")
    first = abs_steps.abs_apply_step(s, read)
    other = _with_future(s, fut, 4)
    second = abs_steps.abs_apply_step(other, read)
    assert second == _abs_fresh(other, read)
    assert second.ob(ObjRef(0, "a0")) != first.ob(ObjRef(0, "a0"))
