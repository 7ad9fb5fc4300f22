"""Memos that equal content shares.

A step memo entry matches a configuration cell by value (``values.same``),
and canon's table of unit nodes (``_units``, on the program) lets a node
interchangeable with one shaped earlier borrow that node's memos: its
successors, labels, property messages and equivalence verdicts.

The differential tests run every corpus exploration and the benchmark's
three simulation checks twice, once with the table and once with every
lookup in it missing, and want the same results. The work pins count
what the sharing saves, so a change that stops it fails here.
"""

from collections import Counter

import pytest

import multiactive.absm.steps as abs_steps
import multiactive.canon as canon
import multiactive.equiv as equiv
import multiactive.masp.steps as masp_steps
from multiactive.absm.engine import abs_initial_config
from multiactive.canon import abs_digest, masp_digest
from multiactive.explore import Property, default_properties, explore, semantics_of
from multiactive.lang.ast_masp import Origin
from multiactive.masp.engine import initial_config
from multiactive.masp.runtime import FutBinder, MHole
from multiactive.masp.steps import apply_step
from multiactive.simulate import check_backward_simulation, check_forward_simulation
from multiactive.translate import translate_program
from multiactive.values import Loc, evolve, same

from conftest import ABS_CORPUS, MASP_CORPUS, load_abs, load_masp
from test_simulate import report_sha256
from test_step_memo import _label, _reached, _ready, _rebuilt, _steps

# -- the value match ----------------------------------------------------------------


def test_same_is_equality_with_classes_orders_and_every_field():
    assert same((1, (2, "x")), (1, (2, "x"))) and same({"a": 1, "b": 2}, {"a": 1, "b": 2})
    assert (True,) == (1,) and not same((True,), (1,))
    assert not same(FutBinder(True), FutBinder(1))
    assert not same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    # an origin takes no part in equality, but it does in what a step does
    get, sync = MHole("x", Origin("get", True)), MHole("x", Origin("sync", True))
    assert get == sync and not same(get, sync)
    assert not same(Loc(1), Loc(2)) and same(Loc(1), Loc(1))


def test_a_rebuilt_binder_equal_to_the_recorded_one_hits():
    s = _steps(_ready(), "Serve", "Return")  # Box has answered main's b.get()
    update = _label(s, "Update")
    first = apply_step(s, update).activities[update.activity]
    binder = s.futures[update.future]
    rebuilt = evolve(binder, {})
    assert rebuilt is not binder and rebuilt == binder
    other = s.update(futures={**s.futures, update.future: rebuilt})
    assert apply_step(other, update).activities[update.activity] is first


# -- the unit table -----------------------------------------------------------------


def test_an_equal_node_borrows_the_memos_of_the_first():
    s = _ready()
    masp_digest(s)
    assign = _label(s, "Assign-Local")
    first = apply_step(s, assign)
    main = s.activities[assign.activity]
    copy = _rebuilt(s)
    twin = copy.activities[assign.activity]
    assert twin is not main and "_next" not in twin.__dict__
    assert masp_digest(copy) == masp_digest(s)
    assert twin.__dict__["_next"] is main.__dict__["_next"]
    assert twin.__dict__["_labels"] is main.__dict__["_labels"]
    # so the copy's step hands on the successor the first step built
    assert apply_step(copy, assign).activities[assign.activity] is first.activities[
        assign.activity
    ]


def _initial(name):
    if name.endswith(".masp"):
        return initial_config(load_masp(name))
    return abs_initial_config(load_abs(name))


def _stepped(config):
    """``config`` after its digest and every step from it: the memos of
    its nodes are filled."""
    sem = semantics_of(config)
    sem.digest(config)
    for label in sem.enabled(config):
        sem.apply(config, label)
    return config


def _lent(node) -> set:
    """The memos ``node`` holds beyond its shape."""
    return {k for k in node.__dict__ if k not in node.__dataclass_fields__} - {"_canon"}


def test_a_node_in_another_thread_order_borrows_nothing():
    def two_threads(c):
        return any(len(a.current) > 1 for a in c.activities.values())

    config = _stepped(next(filter(two_threads, _reached(_initial("peer_policy.masp"), 400))))
    act = next(a for a in config.activities.values() if len(a.current) > 1)
    assert _lent(act)
    flipped = evolve(act, {"current": dict(reversed(act.current.items()))})
    assert flipped == act and not same(flipped, act)
    other = config.with_activity(flipped)
    assert masp_digest(other) == masp_digest(config)
    assert flipped.__dict__["_canon"] == act.__dict__["_canon"]  # one key in the table
    assert not _lent(flipped)


def test_a_cog_in_another_object_order_borrows_nothing():
    def two_objects(c):
        return any(len(cog.objects) > 1 for cog in c.cogs.values())

    config = _stepped(next(filter(two_objects, _reached(_initial("bank_account.abs"), 400))))
    cog = next(c for c in config.cogs.values() if len(c.objects) > 1)
    assert _lent(cog)
    flipped = evolve(cog, {"objects": dict(reversed(cog.objects.items()))})
    assert flipped == cog and not same(flipped, cog)
    abs_digest(config.with_cog(flipped))
    assert not _lent(flipped)


# -- with the table against without it -------------------------------------------


def _never_lend(monkeypatch):
    """Every lookup in the unit table misses."""
    monkeypatch.setattr(canon, "same", lambda a, b: False)


def _explored(name):
    """``to_json()`` and the sorted visited digests of ``name`` explored
    with the default properties: a program as written to exhaustion, but
    ``leader_election.abs`` (32 s that way) and every translation
    (``x.abs>masp``) to 1,500 states."""
    if name.endswith(">masp"):
        config = initial_config(translate_program(load_abs(name[: -len(">masp")])))
    else:
        config = _initial(name)
    width = 1500 if name.endswith((">masp", "leader_election.abs")) else 10**6
    sem = semantics_of(config)
    visited = []
    record = Property("record", state=lambda c: visited.append(sem.digest(c)) or [])
    r = explore(config, depth=10**6, width=width, properties=default_properties(config) + (record,))
    return r.to_json(), sorted(visited)


@pytest.mark.parametrize("name", MASP_CORPUS + ABS_CORPUS + [n + ">masp" for n in ABS_CORPUS])
def test_explorations_are_the_same_without_the_table(name, monkeypatch):
    shared = _explored(name)
    _never_lend(monkeypatch)
    assert _explored(name) == shared


# the benchmark's simulation checks, at width 10^4
SIMULATIONS = [
    (check_forward_simulation, "mapreduce.abs", 24),
    (check_backward_simulation, "mapreduce.abs", 28),
    (check_forward_simulation, "chat.abs", 13),
]


def _simulated(check, name, depth):
    rep = check(load_abs(name), depth, 10_000)
    return report_sha256(rep), rep.abs_states, rep.masp_states


@pytest.mark.parametrize("case", SIMULATIONS, ids=lambda c: f"{c[0].__name__}-{c[1]}-d{c[2]}")
def test_simulation_reports_are_the_same_without_the_table(case, monkeypatch):
    shared = _simulated(*case)
    _never_lend(monkeypatch)
    assert _simulated(*case) == shared


# -- work pins ----------------------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counts local step handler runs, ``_check_cog`` calls and unit shapes."""
    counts = Counter()

    def counted(key, fn):
        def run(*args):
            counts[key] += 1
            return fn(*args)

        return run

    for steps in (masp_steps, abs_steps):
        for rule in steps._LOCAL:
            monkeypatch.setitem(steps._RULES, rule, counted("handled", steps._RULES[rule]))
    monkeypatch.setattr(equiv, "_check_cog", counted("check_cog", equiv._check_cog))
    monkeypatch.setattr(canon, "_activity", counted("shapes", canon._activity))
    monkeypatch.setattr(canon, "_cog", counted("shapes", canon._cog))
    return counts


# Before memos were shared (reads matched by identity, no table of unit
# nodes), these read: forward mapreduce 1,042 handler runs, 1,301 cog
# checks and 1,090 shapes; peer_policy.masp 5,600 runs and 6,839 shapes;
# chat.abs 1,762 runs and 2,411 shapes.
WORK_PINS = {
    "forward mapreduce.abs d24": {"handled": 305, "check_cog": 353, "shapes": 395},
    "peer_policy.masp": {"handled": 2593, "shapes": 3832},
    "chat.abs": {"handled": 183, "shapes": 832},
}


@pytest.mark.parametrize("case", list(WORK_PINS))
def test_shared_memos_save_the_pinned_work(case, work):
    if case.startswith("forward"):
        check_forward_simulation(load_abs("mapreduce.abs"), 24, 10_000)
    else:
        config = _initial(case)
        explore(config, depth=10**6, width=10**6, properties=default_properties(config))
    assert dict(work) == WORK_PINS[case]
