"""The benchmark's workloads: their operations, inputs and output checks.

An operation is one exploration, one simulation direction or one run.
It fails if it raises or if its output check fails. The checks never
look at digest text or at exact state counts, so that a change to the
digest or a state-space reduction can still be judged by them.

The workload seed fixes the order of the operations and, for ``run``,
the schedule seeds; the state caps, depths and program lists are fixed.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field

import multiactive as M

EXPLORE = importlib.import_module("multiactive.explore")
MASP_ENGINE = importlib.import_module("multiactive.masp.engine")
ABS_ENGINE = importlib.import_module("multiactive.absm.engine")
TRACE = importlib.import_module("multiactive.trace")

NO_LIMIT = 10**9

# Acceptance-fixture shape: BFS with every property over translated
# programs, where the canonical digest dominates; the cap fixes the work.
TRANSLATED_CAP = 600
TRANSLATED = ["bank_account.abs", "chat.abs", "leader_election.abs", "mapreduce.abs"]

# Explored to exhaustion, the only complete verdict; the set of
# (unresolved futures, stuck threads) pairs over terminal states was
# recorded when the benchmark was added. leader_election.abs is left out:
# it alone takes longer than the rest together.
EXHAUSTIVE = {
    "peer_policy.masp": {(0, 0)},
    "circular_soft.masp": {(0, 0)},
    "circular_hard.masp": {(3, 2)},  # requests that never end
    "chat.abs": {(0, 0)},
    "mapreduce.abs": {(0, 0)},
    "bank_account.abs": {(0, 0)},
}

SIM_WIDTH = 10_000
# (direction, program, depth): the silent-step search, config_equiv and
# the structural keys do the work here, explore does none. The depths
# give each direction about 7 s, so two repetitions fit in one run.
SIMULATIONS = [
    ("forward", "mapreduce.abs", 24),
    ("backward", "mapreduce.abs", 28),
    ("forward", "chat.abs", 13),
]

# Every (program, schedule seed) runs without per-step digests, which is
# pure engine; the first rounds' also run with them, one cold digest per
# step. A run with digests costs about 20 runs without, so both rates
# rest on similar measured times.
RUN_ROUNDS = 16
DIGEST_ROUNDS = 1
RUN_BUDGET = 10_000
RUN_PROGRAMS = [
    ("bank_account.abs", "abs"),
    ("chat.abs", "abs"),
    ("leader_election.abs", "abs"),
    ("mapreduce.abs", "abs"),
    ("futures_of_futures.abs", "abs"),
    ("bank_account.abs", "translated"),
    ("chat.abs", "translated"),
    ("leader_election.abs", "translated"),
    ("mapreduce.abs", "translated"),
    ("futures_of_futures.abs", "translated"),
    ("peer_policy.masp", "masp"),
    ("circular_soft.masp", "masp"),
    ("circular_hard.masp", "masp"),
]


@dataclass
class Op:
    kind: str  # explore | forward | backward | run
    program: str  # corpus file name
    calculus: str  # masp | abs | translated (an .abs program run as .masp)
    depth: int = NO_LIMIT
    width: int = NO_LIMIT
    seed: int = 0
    digests: bool = False
    expect: dict = field(default_factory=dict)

    def label(self) -> str:
        extra = f" seed={self.seed} digests={self.digests}" if self.kind == "run" else ""
        return f"{self.kind} {self.calculus} {self.program}{extra}"


def build_ops(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "explore-translated":
        ops = [
            Op("explore", p, "translated", depth=10_000, width=TRANSLATED_CAP,
               expect={"cap": TRANSLATED_CAP})
            for p in TRANSLATED
        ]
    elif workload == "explore-exhaustive":
        ops = [
            Op("explore", p, p.rsplit(".", 1)[1], expect={"terminal": shapes})
            for p, shapes in EXHAUSTIVE.items()
        ]
    elif workload == "check-sim":
        ops = [
            Op(kind, p, "abs", depth=depth, width=SIM_WIDTH)
            for kind, p, depth in SIMULATIONS
        ]
    elif workload == "run":
        ops = []
        for i in range(RUN_ROUNDS):
            for p, calculus in RUN_PROGRAMS:
                s = rng.randrange(2**31)
                for digests in (False, True)[: 2 if i < DIGEST_ROUNDS else 1]:
                    ops.append(Op("run", p, calculus, seed=s, digests=digests))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def setup(ops: list) -> dict:
    """Parse, check and translate each program once, and build the initial
    configurations: (program, calculus) -> (program AST, initial config)."""
    inputs = {}
    for op in ops:
        key = (op.program, op.calculus)
        if key in inputs:
            continue
        text = M.corpus_path(op.program).read_text()
        if op.program.endswith(".abs"):
            prog = M.parse_abs(text, filename=op.program)
        else:
            prog = M.parse_masp(text, filename=op.program)
        diags = M.check_wellformed(prog)
        if op.calculus == "translated":
            prog = M.translate_program(prog)
            diags += M.check_wellformed(prog)
        if diags:
            raise ValueError(f"{op.program}: {diags[0]}")
        if op.kind in ("forward", "backward"):
            cfg = None  # the checkers build their own configurations
        elif op.calculus == "abs":
            cfg = M.abs_initial_config(prog)
        else:
            cfg = M.initial_config(prog)
        inputs[key] = (prog, cfg)
    return inputs


def _execute_thread_cap(config) -> list:
    """The acceptance suite's cog-single-execute check: a translated cog
    never runs two execute threads."""
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


def _explore(op, cfg, tracer):
    props = tuple(EXPLORE.default_properties(cfg))
    if op.calculus == "translated":
        props += (EXPLORE.Property("cog-single-execute", state=_execute_thread_cap),)
    if tracer is not None:
        props = tuple(tracer.wrap_property(p) for p in props)
    t = time.perf_counter()
    r = EXPLORE.explore(cfg, depth=op.depth, width=op.width, properties=props)
    wall = time.perf_counter() - t
    problems = [f"violation {v['property']}: {v['detail']}" for v in r.property_violations[:3]]
    if "cap" in op.expect and not (r.frontier_truncated and r.states_visited >= op.expect["cap"]):
        problems.append(f"stopped at {r.states_visited} states, short of the cap")
    if "terminal" in op.expect:
        if r.frontier_truncated:
            problems.append("state space not exhausted")
        shapes = {(u, s) for _, u, s in r.terminal_states}
        if shapes != op.expect["terminal"]:
            problems.append(f"terminal (unresolved, stuck) pairs {sorted(shapes)}")
    counts = {
        "explore.states": r.states_visited,
        "explore.transitions": r.transitions,
        "explore.terminal_states": len(r.terminal_states),
    }
    return wall, r.states_visited, counts, problems


def _simulate(op, prog):
    check = M.check_forward_simulation if op.kind == "forward" else M.check_backward_simulation
    t = time.perf_counter()
    rep = check(prog, op.depth, op.width)
    wall = time.perf_counter() - t
    problems = [f"failure at {f.get('abs_rule') or f.get('masp_rule')}" for f in rep.failures[:3]]
    if rep.matched + rep.outside_fragment + rep.skipped_restriction != rep.steps_checked:
        problems.append("matched + outside + skipped != steps checked")
    if rep.truncated:
        problems.append("truncated at the width bound")
    counts = {
        "simulate.states": rep.states,
        "simulate.steps_checked": rep.steps_checked,
        "simulate.matched": rep.matched,
        "simulate.prescribed": sum(1 for r in rep.rows if r.get("via") == "prescribed"),
        "simulate.outside": rep.outside_fragment,
    }
    return wall, rep.steps_checked, counts, problems


def _run(op, prog, cfg):
    abs_side = op.calculus == "abs"
    engine = ABS_ENGINE.abs_run if abs_side else MASP_ENGINE.run
    t = time.perf_counter()
    final, trace = engine(cfg, strategy="random", budget=RUN_BUDGET, seed=op.seed, digests=op.digests)
    wall = time.perf_counter() - t
    term = trace.terminal
    problems = []
    if not term["terminal"] or term["budget_exhausted"]:
        problems.append(f"not terminal after {term['steps']} steps")
    text = trace.to_jsonl()
    back = TRACE.Trace.from_jsonl(text)
    if back.to_jsonl() != text:
        problems.append("trace does not round-trip through JSON lines")
    if abs_side:
        replayed = M.abs_digest(ABS_ENGINE.abs_replay(prog, back))
    else:
        replayed = M.masp_digest(MASP_ENGINE.replay(prog, back))
        if term["request_never_ends"] == M.diagnose_deadlock(final).empty:
            problems.append("request_never_ends disagrees with diagnose_deadlock")
    if replayed != term["final_digest"]:
        problems.append("replay does not reproduce the final digest")
    return wall, term["steps"], {"run.steps": term["steps"]}, problems


def execute(op: Op, inputs: dict, tracer=None) -> dict:
    """Run one operation and check its output; never raises."""
    rec = {"op": op.label(), "kind": op.kind, "digests": op.digests}
    prog, cfg = inputs[(op.program, op.calculus)]
    try:
        if op.kind == "explore":
            wall, units, counts, problems = _explore(op, cfg, tracer)
        elif op.kind in ("forward", "backward"):
            wall, units, counts, problems = _simulate(op, prog)
        else:
            wall, units, counts, problems = _run(op, prog, cfg)
        rec.update(wall_s=wall, units=units, counts=counts)
    except Exception as e:  # an operation that raises is a failed operation
        problems = [f"raised {type(e).__name__}: {e}"]
    rec["problems"] = problems
    return rec
