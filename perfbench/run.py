"""The multiactive benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload explore-translated --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: one process, one operation at
a time, no threads, ``workers=1`` and no ``time_budget``. Every bound is
a state cap or a depth, never a clock. Each repetition runs in a fresh
interpreter (``rep.py``).

``--trace 0`` runs set-up-only processes, then at least two whole
repetitions, more while another fits in ``--seconds``, and reports the
end-to-end metrics as medians over them. ``--trace 1`` runs one untraced and one traced repetition at
the same seed and reports the per-layer metrics of the traced one, the
tracing overhead, and fails the run if tracing changed any count.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
Python version, CPU count and git commit, is written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, METHODS, OPERATIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ["explore-translated", "explore-exhaustive", "check-sim", "run"]
SETUP_ONLY_PROCESSES = 4
MIN_REPETITIONS = 2
DEADLINE_S = 170.0

# What primary_per_s and secondary_per_s measure on each workload, by the
# names the workload definitions use for them.
RATE_NAMES = {
    "explore-translated": ("explore_states_per_s", "explore_transitions_per_s"),
    "explore-exhaustive": ("explore_states_per_s", "verdicts_per_s = 1 / verdict_s"),
    "check-sim": ("sim_forward_steps_per_s", "sim_backward_steps_per_s"),
    "run": ("run_steps_per_s", "run_digest_steps_per_s"),
}

# every built-in property, plus the acceptance suite's translated-cog check
PROPERTIES = [
    "safe-parallelism",
    "thread-limits",
    "store-closure",
    "fifo-integrity",
    "one-active-per-cog",
    "destiny-totality",
    "futures-write-once",
    "fresh-request-fifo",
    "cog-single-execute",
]
COUNTERS = [
    "explore.states",
    "explore.transitions",
    "explore.new_state_ratio",
    "explore.terminal_states",
    "simulate.states",
    "simulate.steps_checked",
    "simulate.prescribed_ratio",
    "simulate.outside_ratio",
    "run.steps",
]
TRACE_META = [
    "trace.traced_s",
    "trace.untraced_s",
    "trace.overhead_ratio",
    "trace.spans",
    "trace.outside_spans_s",
]


def per_layer_names() -> list:
    names = []
    for layer in [*LAYERS, *METHODS]:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.us_per_call"]
    names.append("equiv.config_equiv.ok_ratio")
    names += [f"{op}.self_s" for op in OPERATIONS]
    for prop in PROPERTIES:
        names += [f"explore.prop.{prop}.calls", f"explore.prop.{prop}.us_per_call"]
    return names + COUNTERS + TRACE_META


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(workload, seed, deadline, trace=0, setup_only=False, spans=None) -> dict:
    """One repetition in a fresh interpreter; exits on a crash or timeout."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: repetition of {workload} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: repetition of {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = time.perf_counter() - t
    return out


def rates(workload: str, records: list) -> tuple:
    """(primary, secondary) rate of one repetition, per second of the
    operations' own wall time, over the operations that finished; None
    when none did."""
    records = [r for r in records if "wall_s" in r]

    def rate(recs, units=lambda r: r["units"]):
        return sum(units(r) for r in recs) / sum(r["wall_s"] for r in recs) if recs else None

    if workload == "explore-translated":
        return rate(records), rate(records, lambda r: r["counts"]["explore.transitions"])
    if workload == "explore-exhaustive":
        return rate(records), 1 / sum(r["wall_s"] for r in records) if records else None
    if workload == "check-sim":
        return (
            rate([r for r in records if r["kind"] == "forward"]),
            rate([r for r in records if r["kind"] == "backward"]),
        )
    return (
        rate([r for r in records if not r["digests"]]),
        rate([r for r in records if r["digests"]]),
    )


def counters(records: list) -> dict:
    total = {}
    for r in records:
        for k, v in r.get("counts", {}).items():
            total[k] = total.get(k, 0) + v
    forward = [r for r in records if r["kind"] == "forward" and "counts" in r]
    explores = sum(1 for r in records if r["kind"] == "explore")

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "explore.states": total.get("explore.states", 0),
        "explore.transitions": total.get("explore.transitions", 0),
        # every state but an exploration's root was new on some transition
        "explore.new_state_ratio": ratio(
            total.get("explore.states", 0) - explores, total.get("explore.transitions", 0)
        ),
        "explore.terminal_states": total.get("explore.terminal_states", 0),
        "simulate.states": total.get("simulate.states", 0),
        "simulate.steps_checked": total.get("simulate.steps_checked", 0),
        "simulate.prescribed_ratio": ratio(
            sum(r["counts"]["simulate.prescribed"] for r in forward),
            sum(r["counts"]["simulate.matched"] for r in forward),
        ),
        "simulate.outside_ratio": ratio(
            total.get("simulate.outside", 0), total.get("simulate.steps_checked", 0)
        ),
        "run.steps": total.get("run.steps", 0),
    }


def layer_metrics(traced: dict, untraced: dict) -> dict:
    layers = traced["layers"]
    m = {}
    for name in [*LAYERS, *METHODS]:
        calls, self_s = layers.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        m[f"{name}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
    equiv_calls = layers.get("equiv.config_equiv", (0, 0.0))[0]
    m["equiv.config_equiv.ok_ratio"] = (
        traced["oks"].get("equiv.config_equiv", 0) / equiv_calls if equiv_calls else 0.0
    )
    for name in OPERATIONS:
        m[f"{name}.self_s"] = layers.get(name, (0, 0.0))[1]
    for prop in PROPERTIES:
        calls, self_s = layers.get(f"explore.prop.{prop}", (0, 0.0))
        m[f"explore.prop.{prop}.calls"] = calls
        m[f"explore.prop.{prop}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
    m.update(counters(traced["records"]))
    m["trace.traced_s"] = traced["traced_part_s"]
    m["trace.untraced_s"] = untraced["traced_part_s"]
    m["trace.overhead_ratio"] = traced["traced_part_s"] / untraced["traced_part_s"]
    m["trace.spans"] = traced["spans"]
    m["trace.outside_spans_s"] = traced["outside_spans_s"]
    return m


UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "ok_ratio": "ratio"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_ratio"):
        return "ratio"
    return "s" if last.endswith("_s") else "count"


def tally(reps: list) -> tuple:
    """(attempted, failed, problem lines): an operation fails if it raised
    or its output check found a problem."""
    records = [r for rep in reps for r in rep["records"]]
    problems = [f"{r['op']}: {p}" for r in records for p in r["problems"]]
    return len(records), sum(1 for r in records if r["problems"]), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "multiactive" / "__init__.py").is_file():
        print(f"perfbench: no multiactive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }
    w, seed = args.workload, args.seed
    if args.trace:
        untraced = child(w, seed, deadline)
        spans = OUT / f"spans-{w}-seed{seed}.jsonl.gz"
        traced = child(w, seed, deadline, trace=1, spans=spans)
        reps = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
        # same seed, same operations: tracing must not change what they did
        for a, b in zip(untraced["records"], traced["records"]):
            if a.get("counts") != b.get("counts"):
                b["problems"].append("counts differ from the untraced repetition")
        units = {name: unit_of(name) for name in metrics}
        notes = [f"spans written to {spans.relative_to(ROOT)}"]
    else:
        setups = [child(w, seed, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_ONLY_PROCESSES)]
        reps = []
        start = time.perf_counter()
        while len(reps) < MIN_REPETITIONS or (
            time.perf_counter() - start + reps[-1]["process_s"] <= args.seconds
        ):
            reps.append(child(w, seed, deadline))
        per_rep = [rates(w, rep["records"]) for rep in reps]
        primary = [p for p, _ in per_rep if p is not None]
        secondary = [s for _, s in per_rep if s is not None]
        if not primary or not secondary:
            raise SystemExit("perfbench: no repetition finished its operations")
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "primary_per_s": statistics.median(primary),
            "secondary_per_s": statistics.median(secondary),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "primary_per_s": "1/s", "secondary_per_s": "1/s"}
        a, b = RATE_NAMES[w]
        notes = [
            f"primary_per_s = {a}; secondary_per_s = {b}",
            f"setup_s is the median of {len(setups) + len(reps)} fresh processes",
        ]
    attempted, failed, problems = tally(reps)
    notes += [
        f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}",
        "no waiting times: one client, one process, one operation at a time,"
        " so no work ever waits for a layer",
    ]
    result = {
        "workload": w,
        "seed": seed,
        "trace": args.trace,
        "env": env,
        "repetitions": len(reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        "reps": [{k: v for k, v in rep.items() if k != "records"} for rep in reps],
    }
    (OUT / f"result-{w}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"perfbench {w} seed={seed} trace={args.trace} repetitions={len(reps)}"
          f" python={env['python']} cpus={env['cpu_count']} commit={env['commit']}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:14.6g} {units[k]}")
    for line in notes + [f"FAILED {p}" for p in problems]:
        print("  " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
