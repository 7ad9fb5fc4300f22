"""Trace format round trips and the command-line surface."""

import json

import pytest

from multiactive import corpus_path
from multiactive.cli import cli
from multiactive.masp.engine import initial_config, run
from multiactive.trace import Trace

from conftest import load_masp


def test_trace_jsonl_round_trip():
    p = load_masp("circular_soft.masp")
    _, trace = run(initial_config(p), budget=50)
    text = trace.to_jsonl()
    back = Trace.from_jsonl(text)
    assert back.to_jsonl() == text
    assert back.seed == trace.seed
    assert len(back.records) == len(trace.records)


def test_trace_lines_are_json_objects():
    p = load_masp("peer_policy.masp")
    _, trace = run(initial_config(p), budget=30)
    for line in trace.to_jsonl().splitlines():
        obj = json.loads(line)
        assert isinstance(obj, dict)
    body = [json.loads(l) for l in trace.to_jsonl().splitlines()]
    step_lines = [o for o in body if "rule" in o]
    for o in step_lines:
        for key in ("index", "rule", "activity", "detail", "config_digest"):
            assert key in o


def test_cli_run_deterministic(tmp_path, capsys):
    target = str(corpus_path("circular_soft.masp"))
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert cli(["run", target, "--seed", "7", "--trace", str(out1)]) == 0
    assert cli(["run", target, "--seed", "7", "--trace", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_translate_then_run(tmp_path, capsys):
    bank = str(corpus_path("bank_account.abs"))
    out = tmp_path / "bank.masp"
    assert cli(["translate", bank, "-o", str(out)]) == 0
    text = out.read_text()
    assert "class COG()" in text
    capsys.readouterr()
    assert cli(["run", str(out), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terminal"] is True
    assert payload["unresolved_futures"] == []


def test_cli_explore_exit_codes(capsys):
    assert cli(["explore", str(corpus_path("peer_policy.masp")), "--width", "4000"]) == 0
    capsys.readouterr()


def test_cli_check_sim(capsys):
    code = cli(
        [
            "check-sim",
            str(corpus_path("mapreduce.abs")),
            "--depth",
            "12",
            "--width",
            "300",
            "--direction",
            "forward",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload[0]["failures"] == []


def test_cli_trace_dump(tmp_path, capsys):
    target = str(corpus_path("circular_soft.masp"))
    out = tmp_path / "t.jsonl"
    cli(["run", target, "--trace", str(out)])
    capsys.readouterr()
    assert cli(["trace", "dump", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "strategy=fifo-eager" in shown


def test_cli_usage_error_is_two(capsys):
    with pytest.raises(SystemExit) as e:
        cli(["run"])  # missing file argument
    assert e.value.code == 2


def test_cli_bad_extension_is_two(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("{ }")
    assert cli(["run", str(f)]) == 2


def test_cli_wellformedness_failure_is_one(tmp_path, capsys):
    f = tmp_path / "bad.masp"
    f.write_text("{ vars x; x = new Missing() }")
    with pytest.raises(SystemExit) as e:
        cli(["run", str(f)])
    assert e.value.code == 1


def test_cli_parse_error_is_one_line(tmp_path, capsys):
    f = tmp_path / "bad.masp"
    f.write_text("{ vars x; x = = 1 }")
    with pytest.raises(SystemExit) as e:
        cli(["run", str(f)])
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert err == f"{f}:1:15: expected expression, found '='\n"
