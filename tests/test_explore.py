"""Bounded exploration, built-in properties and pinned exploration results."""

import hashlib
import json

import pytest

from multiactive.absm.engine import abs_initial_config
from multiactive.absm.runtime import AbsConfig, Cog, Ob, Process
from multiactive.explore import (
    MASP_PROPERTIES,
    Property,
    default_properties,
    explore,
    levels,
    semantics_of,
)
from multiactive.lang import parse_abs, parse_masp
from multiactive.lang.ast_abs import ASkip
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import Activity, Frame, Request, Thread
from multiactive.masp.steps import apply_step, enabled_steps
from multiactive.policy import resolve_policy
from multiactive.steplabel import Label
from multiactive.translate import translate_program
from multiactive.properties import ABS_PROPERTIES
from multiactive.values import UNRESOLVED, ActRef, FutRef, ObjRef

from conftest import load_abs, load_masp
from test_simulate import _reference_states


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


def test_activity_properties_report_per_activity_and_forget_on_update():
    p = parse_masp(
        """
class Srv() {
  policy { group g selfcompatible max 1; threads pool 2 soft; }
  method m() group g { return 1 }
  method u() { return 2 }
}
{ }
"""
    )
    props = {pr.name: pr for pr in MASP_PROPERTIES}
    threads = {
        f: Thread(Request(f, m, ()), "A", (Frame({}, ()),))
        for f, m in (("f1", "m"), ("f2", "m"), ("f3", "u"))
    }
    act = Activity("a1", "Srv", None, {}, threads, (), policy=resolve_policy(p.cls("Srv")))
    cfg = initial_config(p).with_activity(act)
    expected = {
        "safe-parallelism": [
            "a1: incompatible requests m and u in parallel",
            "a1: incompatible requests m and u in parallel",
        ],
        "thread-limits": [
            "a1: 3 active threads over the pool",
            "a1: group g has 2 active threads",
        ],
    }
    for name, msgs in expected.items():
        assert props[name].state(cfg) == msgs
        assert props[name].state(cfg) == msgs  # served from the memo
    calm = cfg.with_activity(act.update(current={"f1": threads["f1"]}))
    assert props["safe-parallelism"].state(calm) == []
    assert props["thread-limits"].state(calm) == []
    # queue order: a reordering is reported, an untouched activity is not
    fifo = props["fifo-integrity"].transition
    queue = (Request("f4", "m", ()), Request("f5", "u", ()))
    queued = cfg.with_activity(act.update(queue=queue))
    swapped = cfg.with_activity(act.update(queue=queue[::-1]))
    skip = Label("Skip", "a1", "f1")
    assert fifo(queued, swapped, skip) == ["a1: queue order changed under Skip"]
    assert fifo(queued, queued, skip) == []


def _abs_config(objects, running, futures):
    """A cooperative configuration holding ``objects`` (in creation
    order), with each cog's running object and the futures given."""
    cogs = {c: Cog(c, r, 1, {}) for c, r in running.items()}
    for o in objects:
        cogs[o.name.cog] = cogs[o.name.cog].with_object(o, next_id=o.name.ident + 1)
    return AbsConfig(parse_abs("{ }"), cogs, futures)


def _proc(dest):
    return Process({} if dest is None else {"destiny": FutRef(dest)}, (ASkip(),))


def _obj(ident, cog, active=None, queue=()):
    """An object of cog ``cog``; ``active`` and ``queue`` name destinies."""
    return Ob(
        ObjRef(ident, cog),
        "C",
        {"cog": ActRef(cog)},
        None if active is False else _proc(active),
        tuple(_proc(d) for d in queue),
    )


_U = UNRESOLVED
# (property, objects in creation order, running objects, futures, messages);
# 1_a1 is created between 0_a0 and 1_a0, as a main block that creates a
# cog and then an object of its own cog does; messages come cog by cog
_ABS_STATE_CASES = {
    "several-busy": (
        "one-active-per-cog",
        [_obj(0, "a0", "f1"), _obj(1, "a0", "f2")],
        {"a0": ObjRef(0, "a0")},
        {"f1": _U, "f2": _U},
        [
            "a0: several non-idle objects [0_a0, 1_a0]",
            "a0: non-idle 1_a0 is not the running object",
        ],
    ),
    "busy-not-running": (
        "one-active-per-cog",
        [_obj(0, "a0", False), _obj(1, "a1", "f1")],
        {"a0": None, "a1": None},
        {"f1": _U},
        ["a1: non-idle 1_a1 is not the running object"],
    ),
    "destinies": (
        "destiny-totality",
        [_obj(0, "a0", None), _obj(1, "a1", False, ["f1", "f9"]), _obj(1, "a0", "f1", ["f2"])],
        {"a0": None, "a1": None},
        {"f1": 5, "f2": _U},
        [
            "0_a0: process without a destiny future",
            "1_a0: live process with resolved destiny",
            "1_a1: live process with resolved destiny",
            "1_a1: process without a destiny future",
        ],
    ),
}


@pytest.mark.parametrize("case", list(_ABS_STATE_CASES))
def test_abs_state_property_messages(case):
    name, objects, running, futures, messages = _ABS_STATE_CASES[case]
    (prop,) = [p for p in ABS_PROPERTIES if p.name == name]
    cfg = _abs_config(objects, running, futures)
    assert prop.state(cfg) == messages
    assert prop.state(cfg) == messages  # a second look reads the same
    calm = _abs_config([_obj(0, "a0", "f1")], {"a0": ObjRef(0, "a0")}, {"f1": _U})
    assert prop.state(calm) == []


def test_abs_transition_property_messages():
    props = {p.name: p.transition for p in ABS_PROPERTIES if p.transition}
    step = Label("Activate", "a0", "f1", (1,))
    running = {"a0": None, "a1": None}
    # futures-write-once: a resolved future rewritten or dropped
    old = _abs_config([], running, {"f1": 1, "f2": _U, "f3": 3})
    new = _abs_config([], running, {"f1": 2, "f2": 7})
    assert props["futures-write-once"](old, new, step) == [
        "future f1 changed after resolution",
        "future f3 changed after resolution",
    ]
    assert props["futures-write-once"](old, old, step) == []
    # fresh-request-fifo: two reordered queues; an object kept as it is,
    # one that loses its head and one created by the step are not reported
    before = [
        _obj(0, "a0", False, ["f1", "f2"]),
        _obj(1, "a1", False, ["f3", "f4"]),
        _obj(1, "a0", False, ["f5", "f6"]),
        _obj(2, "a0", False, ["f7", "f8"]),
    ]
    after = [
        before[0],
        before[1].update(queue=before[1].queue[::-1]),
        before[2].update(queue=before[2].queue[::-1]),
        before[3].update(queue=before[3].queue[1:]),
        _obj(3, "a0", False, ["f10", "f9"]),
    ]
    old, new = _abs_config(before, running, {}), _abs_config(after, running, {})
    assert props["fresh-request-fifo"](old, new, step) == [
        "1_a0: pending order changed under Activate",
        "1_a1: pending order changed under Activate",
    ]
    assert props["fresh-request-fifo"](old, old, step) == []


def test_width_caps_the_states_reported():
    cfg = initial_config(load_masp("peer_policy.masp"))
    full = explore(cfg, depth=60, width=100, properties=default_properties(cfg))
    assert full.states_visited == 100
    for width in (0, 1, 2, 3):
        r = explore(cfg, depth=60, width=width, properties=default_properties(cfg))
        assert r.states_visited == max(width, 1)
        assert r.frontier_truncated and r.stop == "width"
        if width < 2:  # the root fills the width: it is not expanded
            assert r.transitions == 0 and r.terminal_states == []


# a cycle 1 -> 2 -> 3 -> 1, with 3 -> 4 -> 5 and the second root 4
GRAPH = {1: (2,), 2: (3,), 3: (1, 4), 4: (5,), 5: ()}


def _levels(depth, width):
    """``levels`` over GRAPH from the roots 1 and 4; the admitted
    (key, level) pairs and the expanded keys, in order, beside its result."""
    admitted, expanded = [], []

    def admit(item, key, level):
        admitted.append((key, level))
        return item

    def expand(item):
        expanded.append(item)
        return GRAPH[item]

    seen, stop = levels([1, 4], lambda n: n, admit, expand, depth, width)
    return seen, stop, admitted, expanded


def test_levels_admits_each_key_once_at_its_least_level():
    seen, stop, admitted, expanded = _levels(10, 100)
    assert stop == "exhausted" and seen == set(GRAPH)
    # 4 and 1 are reached again at deeper levels, and not re-admitted
    assert admitted == [(1, 0), (4, 0), (2, 1), (5, 1), (3, 2)]
    assert expanded == [1, 4, 2, 5, 3]


def test_levels_admits_but_does_not_expand_the_last_level():
    seen, stop, admitted, expanded = _levels(1, 100)
    assert stop == "depth" and seen == {1, 2, 4, 5}
    assert admitted == [(1, 0), (4, 0), (2, 1), (5, 1)]
    assert expanded == [1, 4]
    assert _levels(0, 100)[1:] == ("depth", [(1, 0), (4, 0)], [])
    # only keys new at the last level make it a depth cut
    assert _levels(2, 100)[1] == "depth" and _levels(3, 100)[1] == "exhausted"


def test_levels_counts_the_roots_in_the_width_and_stops_expanding():
    for width in (0, 1, 2):  # the roots fill it: nothing is expanded
        seen, stop, admitted, expanded = _levels(10, width)
        assert stop == "width" and expanded == []
        assert len(seen) == len(admitted) == max(width, 1)
    # the 4th key is admitted by expanding the 2nd item, which ends it there
    seen, stop, admitted, expanded = _levels(10, 4)
    assert stop == "width" and seen == {1, 2, 4, 5}
    assert admitted[-1] == (5, 1) and expanded == [1, 4]
    # a width the search exhausts first is no cut
    assert _levels(10, 6)[1] == "exhausted"


@pytest.mark.parametrize(
    "name, depth", [("peer_policy.masp", 16), ("chat.abs", 20), ("mapreduce.abs>masp", 25)]
)
def test_explore_visits_the_states_within_the_depth(name, depth):
    """The states ``explore`` visits at a depth below its width are the
    states within that many steps of the initial one, by a plain search
    over every enabled step."""
    if name.endswith(".masp"):
        cfg = initial_config(load_masp(name))
    elif name.endswith(".abs"):
        cfg = abs_initial_config(load_abs(name))
    else:
        cfg = initial_config(translate_program(load_abs(name[: -len(">masp")])))
    sem = semantics_of(cfg)
    visited = []
    record = Property("record", state=lambda c: visited.append(sem.digest(c)) or [])
    r = explore(cfg, depth=depth, properties=(record,))
    assert r.stop == "depth" and r.states_visited == len(visited)

    def successors(c):
        return (sem.apply(c, label) for label in sem.enabled(c))

    assert set(visited) == _reference_states(cfg, depth, successors, sem.digest)


# SHA-256 of ``explore(...).to_json()`` (keys sorted) at depth 60 / width
# 1,500 with the default properties. "x.abs>masp" explores the translation.
EXPLORE_PINS = {
    "circular_hard.masp": "3259fc6bcaf655d2fa2df7e6437c6764147c812ce477e882f8250b8192ebc739",
    "circular_soft.masp": "98aae29ae93c688847608e980a22de4b2ce62d23f53f7ba89edb53c7e4692d1e",
    "peer_policy.masp": "d6dbacc5e52a43b3a96372286572d566f6a2037794109e56199b178b4911004b",
    "bank_account.abs": "d3e5d53084d493e3a232bbd9d456e9c64af5cadb74211ee854c3a6435385df97",
    "leader_election.abs": "9ae4bb0ab1dad84e2e7c6276d4f96d3e940dbaddb37d7af849f3b0c953256b98",
    "chat.abs": "0c8860ce8c6a47b3223b64bc75ae317118a05719f8f6c8146b0a63185e9c7eac",
    "mapreduce.abs": "faee9c76e1eb42f8b0346b17210fc3555477b1186f745881490a1f5d07bd3300",
    "futures_of_futures.abs": "42de17447fc86f2214b59b51e41f5fe0807f4e5f26432fbb60c58182efca4df2",
    "bank_account.abs>masp": "48f62be5b3debafb415f313941a35142b7c87e4721d719b7dca205abbe3d60ce",
    "leader_election.abs>masp": "20f3bcab0bd7bec84028c3fb041bd3655759e58e11b06d8f2b710884843cbbee",
    "chat.abs>masp": "48f62be5b3debafb415f313941a35142b7c87e4721d719b7dca205abbe3d60ce",
    "mapreduce.abs>masp": "20f3bcab0bd7bec84028c3fb041bd3655759e58e11b06d8f2b710884843cbbee",
    "futures_of_futures.abs>masp": "22a54042ec59c6f941d4e14c87f0dcd131888dcddab6e1aab20d7622143439f7",
}


# No translated exploration reaches a terminal state or a violation within
# that width, so its JSON holds only counts (two pairs of programs share
# one), and a cooperative exploration's JSON holds only its terminal
# digests. These pin the states each one visits: the SHA-256 of the sorted
# canonical digests, one per line. Re-pin one only after checking that
# the new digests partition the same states as the old.
VISIT_PINS = {
    "bank_account.abs": "daf6ef04619fc792f3d47edb20eee789b501c4e09f5d099cb2a2a163caca6130",
    "leader_election.abs": "b3865a21655ed4cb0876392413d99e77a14e6fbd38a90f3a1fded68b22e024a4",
    "chat.abs": "74a4f4e0f66577dae18180c5b67ebb4f296476343786f92947d032020bbae155",
    "mapreduce.abs": "b0345291daef943a48badcb69392b331827dcad8aaa48a6210646265c0768963",
    "futures_of_futures.abs": "fd2e83817efa1cf76d36da56bdde7a1b9049b248efcb5fedbb47c3e502ce7815",
    "bank_account.abs>masp": "d929e2ff426bb86162d73d2669ffab746271606b7bdf3aa4faf53ec1312ea5cb",
    "leader_election.abs>masp": "0e5ed179af07b2d3fca940648061aed571544b7cebd54bbe1acbef64e98b1a5c",
    "chat.abs>masp": "41a181d9314438bb13a3b119ef7c192ca5d507dcfd69f99df8d0c04f97c218d7",
    "mapreduce.abs>masp": "adb331cf04c6a109b6aceb9a55445b5cbd54e5f94be478594fd93693375991f7",
    "futures_of_futures.abs>masp": "b4168857d61cf87056eb24baa7c973efab6d6a075dce9b34a53749acdffce92f",
}


@pytest.mark.parametrize("name", list(EXPLORE_PINS))
def test_exploration_matches_pin(name):
    if name.endswith(".masp"):
        cfg = initial_config(load_masp(name))
    elif name.endswith(".abs"):
        cfg = abs_initial_config(load_abs(name))
    else:
        cfg = initial_config(translate_program(load_abs(name[: -len(">masp")])))
    sem = semantics_of(cfg)
    visited = []
    record = Property("record", state=lambda c: visited.append(sem.digest(c)) or [])
    r = explore(cfg, depth=60, width=1500, properties=sem.properties + (record,))
    text = json.dumps(r.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_PINS[name]
    assert len(visited) == r.states_visited
    if name in VISIT_PINS:
        states = "\n".join(sorted(visited)).encode()
        assert hashlib.sha256(states).hexdigest() == VISIT_PINS[name]
