"""Deadlock diagnosis: the two §-scenario causes and clean runs."""

import time

from multiactive.deadlock import _find_cycles, diagnose_deadlock
from multiactive.lang import parse_masp
from multiactive.masp.engine import initial_config, run

from conftest import load_masp


def test_thread_starved_classification():
    program = load_masp("circular_hard.masp")
    final, trace = run(initial_config(program), budget=10000)
    assert trace.terminal["request_never_ends"]
    diag = diagnose_deadlock(final)
    assert "thread-starved" in diag.kinds()
    assert "blocked-on-future" in diag.kinds()
    # the circular request dependency is visible
    assert diag.cycles == [("thread:a1:f2", "thread:a2:f3", "queued:a1:f4")]
    # starved entry names the queued callback
    starved = [c for c in diag.classifications if c["kind"] == "thread-starved"]
    assert any("limits" in c["detail"] for c in starved)


def test_no_unresolved_no_diagnosis():
    program = load_masp("circular_soft.masp")
    final, trace = run(initial_config(program), budget=10000)
    assert not trace.terminal["request_never_ends"]
    diag = diagnose_deadlock(final)
    assert diag.empty


def test_incompatible_forever_classification():
    # go() waits for a callback that conflicts with it forever
    src = """
class First(peer) {
  policy {
    group g1;
    group g2;
  }
  method setPeer(p) group g1 {
    peer = p;
    return null
  }
  method go() group g1 {
    vars x, w;
    x = peer.ping();
    w = x.get();
    return w
  }
  method back() group g2 {
    return 7
  }
}
class Second(first) {
  policy { group h selfcompatible; }
  method ping() group h {
    vars y, v;
    y = first.back();
    v = y.get();
    return 42
  }
}
{
  vars a, b, z, w, g;
  a = newActive First(null);
  b = newActive Second(a);
  z = a.setPeer(b);
  w = z.get();
  g = a.go()
}
"""
    program = parse_masp(src)
    final, trace = run(initial_config(program), budget=10000)
    assert trace.terminal["request_never_ends"]
    diag = diagnose_deadlock(final)
    assert "incompatible-forever" in diag.kinds()
    bad = [c for c in diag.classifications if c["kind"] == "incompatible-forever"]
    assert any("go" in c["detail"] for c in bad)


def test_non_terminal_config_yields_empty_diagnosis():
    program = load_masp("circular_soft.masp")
    diag = diagnose_deadlock(initial_config(program))
    assert diag.empty


def test_one_cycle_per_component():
    edges = {
        "e": {"a"},  # leads into the first component, is on no cycle
        "a": {"c", "b"},
        "b": {"a", "c"},
        "c": {"a"},
        "d": {"d"},  # a self-loop is a cycle
        "f": {"g"},
        "g": set(),
    }
    # overlapping cycles a-b, a-c and a-b-c make one component; the witness
    # starts at its first node and takes the sorted edges
    assert _find_cycles(edges) == [("a", "b"), ("d",)]
    # the witness stays inside its component (x-z); a walk from the first
    # node may close a cycle that leaves that node out
    edges = {"x": {"y", "z"}, "y": {"w"}, "w": {"y"}, "z": {"x"}}
    assert _find_cycles(edges) == [("x", "z"), ("y", "w")]
    edges = {"x": {"a"}, "a": {"b", "c"}, "b": {"a"}, "c": {"x"}}
    assert _find_cycles(edges) == [("a", "b")]


def test_complete_wait_for_graph_is_fast():
    nodes = [f"n{i:02d}" for i in range(12)]
    edges = {n: set(nodes) - {n} for n in nodes}
    t0 = time.perf_counter()
    cycles = _find_cycles(edges)
    assert time.perf_counter() - t0 < 1.0
    assert cycles == [("n00", "n01")]
