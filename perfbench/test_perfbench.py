"""Tests of the benchmark itself: failure accounting, the tracer's
binding and restoring of wrappers, and exact repetition of counts.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import run
import tracer as tracing
import workloads
from workloads import Op

HARD = ("circular_hard.masp", "masp")


def _inputs(*ops):
    return workloads.setup(list(ops))


def _hard_explore(expect=None):
    return Op("explore", *HARD, expect={"terminal": expect or workloads.EXHAUSTIVE[HARD[0]]})


def _small_ops():
    return [
        _hard_explore(),
        Op("run", *HARD, seed=3, digests=True),
        Op("run", "futures_of_futures.abs", "abs", seed=3),
    ]


def test_recorded_expectation_passes():
    op = _hard_explore()
    rec = workloads.execute(op, _inputs(op))
    assert rec["problems"] == []
    assert run.tally([{"records": [rec]}])[:2] == (1, 0)


def test_wrong_expected_value_is_a_failed_operation():
    op = _hard_explore(expect={(0, 0)})
    rec = workloads.execute(op, _inputs(op))
    assert rec["problems"]
    assert run.tally([{"records": [rec]}])[:2] == (1, 1)


def test_injected_exception_is_a_failed_operation(monkeypatch):
    op = Op("run", *HARD, seed=1)
    inputs = _inputs(op)

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.MASP_ENGINE, "run", boom)
    rec = workloads.execute(op, inputs)
    assert rec["problems"] == ["raised RuntimeError: injected"]
    assert "wall_s" not in rec
    assert run.tally([{"records": [rec]}])[:2] == (1, 1)
    assert run.rates("run", [rec]) == (None, None)


def _bindings():
    return {
        (m.__name__, key): value
        for m in tracing._package_modules()
        for key, value in vars(m).items()
    }


def test_tracer_binds_in_consumers_and_restores_everything():
    ops = _small_ops()
    inputs = _inputs(*ops)
    before = _bindings()
    trace_cls = sys.modules["multiactive.trace"].Trace
    methods_before = dict(vars(trace_cls))
    tr = tracing.Tracer()
    tr.install()
    try:
        # consumers that imported the layer by name see the wrapper too
        assert hasattr(sys.modules["multiactive.masp.engine"].masp_digest, tracing.MARK)
        assert hasattr(sys.modules["multiactive.simulate"].config_equiv, tracing.MARK)
        assert hasattr(sys.modules["multiactive.explore"].abs_apply_step, tracing.MARK)
        records = [workloads.execute(op, inputs, tr) for op in ops]
    finally:
        tr.uninstall()
    assert all(r["problems"] == [] for r in records)
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert dict(vars(trace_cls)) == methods_before
    names = tr.self_times()
    for layer in ("canon.masp_digest", "masp.steps.apply_step", "trace.Trace.from_jsonl",
                  "deadlock.diagnose_deadlock", "op.explore", "explore.prop.store-closure"):
        assert names[layer][0] > 0, layer


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.spans[:] = [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 60, 0]]
    times = tr.self_times()
    assert times["outer"][0] == 1 and times["outer"][1] == pytest.approx(60e-9)
    assert times["inner"][0] == 2 and times["inner"][1] == pytest.approx(40e-9)
    assert tr.top_level_s() == pytest.approx(100e-9)


def test_counts_repeat_exactly_at_one_seed():
    def traced_counts():
        ops = _small_ops()
        inputs = _inputs(*ops)
        tr = tracing.Tracer()
        tr.install()
        try:
            records = [workloads.execute(op, inputs, tr) for op in ops]
        finally:
            tr.uninstall()
        calls = {name: c for name, (c, _) in tr.self_times().items()}
        return calls, run.counters(records)

    assert traced_counts() == traced_counts()


def test_same_seed_same_operations():
    for w in run.WORKLOADS:
        assert workloads.build_ops(w, 5) == workloads.build_ops(w, 5)
    assert workloads.build_ops("run", 5) != workloads.build_ops("run", 6)


def test_properties_named_in_the_benchmark_are_the_built_in_ones():
    explore = sys.modules["multiactive.explore"]
    built_in = [p.name for p in explore.MASP_PROPERTIES + explore.ABS_PROPERTIES]
    assert run.PROPERTIES == built_in + ["cog-single-execute"]


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "primary_per_s", "secondary_per_s"
    ]
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
