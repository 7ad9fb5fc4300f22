"""Trace format round trips, malformed labels and the command-line surface."""

import hashlib
import json

import pytest

import multiactive.absm.steps as abs_steps
import multiactive.masp.steps as masp_steps
from multiactive import corpus_path
from multiactive.absm.engine import abs_initial_config, abs_replay, abs_run
from multiactive.cli import cli
from multiactive.masp.engine import initial_config, run
from multiactive.steplabel import Label
from multiactive.trace import Trace
from multiactive.translate import translate_program
from multiactive.values import EngineFault

from conftest import ABS_CORPUS, MASP_CORPUS, load_abs, load_masp


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


@pytest.mark.parametrize(
    "bounds, stop, states",
    [(["--depth", "2"], "depth", 3), (["--width", "3"], "width", 3), ([], "exhausted", 3392)],
)
def test_cli_explore_says_why_it_stopped(capsys, bounds, stop, states):
    target = str(corpus_path("peer_policy.masp"))
    assert cli(["explore", target, *bounds]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"stop: {stop}" in lines and f"truncated: {stop != 'exhausted'}" in lines
    assert cli(["explore", target, *bounds, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["stop"], payload["states_visited"]) == (stop, states)
    assert payload["frontier_truncated"] == (stop != "exhausted")


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
    # the distinct cooperative and multi-active configurations among the pairs
    assert [payload[0][k] for k in ("states", "abs_states", "masp_states")] == [36, 36, 33]


def test_cli_check_sim_text_shows_states_and_truncation(capsys):
    target = str(corpus_path("bank_account.abs"))
    assert cli(["check-sim", target, "--width", "1"]) == 1  # nothing checked
    out = capsys.readouterr()
    assert out.err.splitlines() == [
        "check-sim: the width cut forward before its first step",
        "check-sim: the width cut backward before its first step",
    ]
    lines = out.out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["forward", "backward"]
    assert all(line.endswith("states 1, truncated") for line in lines)
    assert cli(["check-sim", target, "--depth", "3", "--direction", "forward"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert "truncated" not in line
    assert "states " in line and line.endswith(", cut at depth 3")
    assert cli(["check-sim", target, "--direction", "forward"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith("states 53")  # exhausted within the default bounds
    assert line.endswith("), cooperative 53, multi-active 31, states 53")


def test_cli_check_sim_fails_when_the_width_leaves_nothing_checked(capsys):
    target = str(corpus_path("bank_account.abs"))
    code = cli(["check-sim", target, "--width", "1", "--direction", "backward"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "check-sim: the width cut backward before its first step"
    ]
    # the depth bound likewise: --depth 0 checks no pair's steps
    assert cli(["check-sim", target, "--depth", "0"]) == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == [
        "check-sim: the depth cut forward before its first step",
        "check-sim: the depth cut backward before its first step",
    ]
    assert all(line.endswith("states 1, cut at depth 0") for line in out.out.splitlines())
    # cut after its first step, a direction still checked something
    assert cli(["check-sim", target, "--width", "2", "--direction", "forward"]) == 0
    out = capsys.readouterr()
    assert out.out.rstrip().endswith("truncated") and out.err == ""


def test_cli_trace_dump(tmp_path, capsys):
    target = str(corpus_path("circular_soft.masp"))
    out = tmp_path / "t.jsonl"
    cli(["run", target, "--trace", str(out)])
    capsys.readouterr()
    assert cli(["trace", "dump", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "strategy=fifo-eager" in shown


_HEADER = '{"type":"header","program_digest":"d","strategy":"fifo-eager","seed":0}'
_DETAIL = '{"rule":"Skip","activity":"a0","future":null,"extra":[0]}'


def _record(**changes) -> str:
    """A trace record line with some fields replaced (``None`` drops one)."""
    rec = {"index": 0, "rule": "abs:Skip", "activity": "a0", "request_future": None,
           "method": None, "detail": json.loads(_DETAIL), "config_digest": ""}
    rec.update(changes)
    return json.dumps({k: v for k, v in rec.items() if v is not None or k not in changes})


_MALFORMED = {
    "header-without-fields": ('{"type":"header"}', "line 1: missing key 'program_digest'"),
    "not-json": ("not json", "line 1: not JSON (Expecting value)"),
    "seed-not-int": (_HEADER.replace('"seed":0', '"seed":"0"'), "line 1: 'seed' is not an integer"),
    "seed-bool": (_HEADER.replace('"seed":0', '"seed":true'), "line 1: 'seed' is not an integer"),
    "strategy-not-str": (
        _HEADER.replace('"fifo-eager"', "5"), "line 1: 'strategy' is not a string"
    ),
    "digest-null": (
        _HEADER.replace('"d"', "null"), "line 1: 'program_digest' is not a string"
    ),
    "index-not-int": (_HEADER + "\n" + _record(index="zz"), "line 2: 'index' is not an integer"),
    "rule-null": (
        _HEADER + "\n" + _record().replace('"abs:Skip"', "null"), "line 2: 'rule' is not a string"
    ),
    "activity-not-str": (
        _HEADER + "\n" + _record(activity=5), "line 2: 'activity' is not a string"
    ),
    "config-digest-missing": (
        _HEADER + "\n" + _record(config_digest=None), "line 2: missing key 'config_digest'"
    ),
    "detail-not-object": (_HEADER + "\n" + _record(detail=5), "line 2: 'detail' is not an object"),
    "detail-missing": (_HEADER + "\n" + _record(detail=None), "line 2: missing key 'detail'"),
    "detail-without-activity": (
        _HEADER + "\n" + _record(detail={"rule": "Skip"}),
        "line 2: missing key 'activity' in detail",
    ),
    "detail-rule-not-str": (
        _HEADER + "\n" + _record(detail={"rule": 3, "activity": "a0"}),
        "line 2: 'rule' in detail is not a string",
    ),
    "detail-future-not-str": (
        _HEADER + "\n" + _record(detail={"rule": "Skip", "activity": "a0", "future": 5}),
        "line 2: 'future' in detail is not a string or null",
    ),
    "detail-extra-not-list": (
        _HEADER + "\n" + _record(detail={"rule": "Skip", "activity": "a0", "extra": 5}),
        "line 2: 'extra' in detail is not a list of integers",
    ),
    "detail-extra-nested": (
        _HEADER + "\n" + _record(detail={"rule": "Skip", "activity": "a0", "extra": [[1]]}),
        "line 2: 'extra' in detail is not a list of integers",
    ),
    "detail-extra-bool": (
        _HEADER + "\n" + _record(detail={"rule": "Skip", "activity": "a0", "extra": [True]}),
        "line 2: 'extra' in detail is not a list of integers",
    ),
}


@pytest.mark.parametrize("text,message", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_cli_trace_dump_malformed_is_one_line(tmp_path, capsys, text, message):
    f = tmp_path / "bad.jsonl"
    f.write_text(text + "\n")
    assert cli(["trace", "dump", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{f}: {message}\n"
    assert captured.out == ""


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


# SHA-256 of the JSON-lines traces of seeds 0-3 under both strategies, with
# every digest blanked (so only a record's fields, their order and the
# terminal keys are pinned, not the digest format). "x.abs" is the
# cooperative run, "x.abs>masp" the run of its translation.
TRACE_PINS = {
    "circular_hard.masp": "51e4ca891a03d2568fe4c4a4de59d26ac7992adc107ec704403b60b4ceb9523f",
    "circular_soft.masp": "7a1c42319c5f8af5565549a397d253824947f261814700c98822dca5c0ffa9dd",
    "peer_policy.masp": "54725352fefe6b54e30a723af000985a4f64d4a84b86a03234fba894428298d5",
    "bank_account.abs": "1910d702bbf9bcf215c22670e421f080207f24ae620180f577b94bcc1a54ca59",
    "leader_election.abs": "5be232e77e2b8c693f685091e1ecb58266b7922f36793c8b07db6d9d356c6f66",
    "chat.abs": "55ca9e69f8eed032fc58ba441a0bca3c381fe11ae1464213487fd403a386ec08",
    "mapreduce.abs": "8cbba64df67c2541d2bf46f3b1237f593b8a46235eb6a98afbd6d2dc058f9947",
    "futures_of_futures.abs": "3d96c8174554c003306dffb8679d50ec45fbe060253c2d6f0cdff48de4173d51",
    "bank_account.abs>masp": "3008e607dc271b690a0c78e5a4c2f935b12be59f71f41e943e07433142778e7e",
    "leader_election.abs>masp": "ba0e35318dc687a049e16639e953ae07513f3848fd4cbf71a546a21895e81b21",
    "chat.abs>masp": "bc5af61d93ae3c9960d34360a471da61f63eb5f60ce19d26da87e364770f50ac",
    "mapreduce.abs>masp": "82f136b43d4b7d97783b8e8bf70033835f293dc3be7602e92b8ba4b0cdcb029d",
    "futures_of_futures.abs>masp": "88337e400240df0799a602b8385c048f139c118964b83598bc6677d51d0c6634",
}


def _blank_digests(text: str) -> str:
    out = []
    for line in text.splitlines():
        obj = json.loads(line)
        for key in ("config_digest", "final_digest"):
            if obj.get(key):
                obj[key] = "*"
        out.append(json.dumps(obj, sort_keys=True))
    return "\n".join(out)


@pytest.mark.parametrize(
    "name", MASP_CORPUS + ABS_CORPUS + [n + ">masp" for n in ABS_CORPUS]
)
def test_seeded_trace_records_match_pin(name):
    assert _trace_hash(name) == TRACE_PINS[name]


def _trace_hash(name):
    if name.endswith(".masp"):
        cfg, runner = initial_config(load_masp(name)), run
    elif name.endswith(".abs"):
        cfg, runner = abs_initial_config(load_abs(name)), abs_run
    else:
        cfg, runner = initial_config(translate_program(load_abs(name[:-5]))), run
    h = hashlib.sha256()
    for seed in range(4):
        for strategy in ("fifo-eager", "random"):
            _, trace = runner(cfg, strategy=strategy, seed=seed)
            h.update(_blank_digests(trace.to_jsonl()).encode())
    return h.hexdigest()


def test_cli_directory_is_two(tmp_path, capsys):
    d = tmp_path / "dir.masp"
    d.mkdir()
    assert cli(["explore", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Is a directory" in err


def test_cli_undecodable_source_is_one(tmp_path, capsys):
    f = tmp_path / "bad.abs"
    f.write_bytes(b"{ vars x; x = 1 }\n\xff\xfe")
    with pytest.raises(SystemExit) as e:
        cli(["run", str(f)])
    assert e.value.code == 1
    assert capsys.readouterr().err == f"{f}: not UTF-8 text (byte 18)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sim", "chat.abs", "--depth", "-2"],
        ["check-sim", "chat.abs", "--width", "-1"],
        ["explore", "peer_policy.masp", "--depth", "-1"],
        ["explore", "peer_policy.masp", "--width", "-5"],
        ["run", "peer_policy.masp", "--budget", "-3"],
    ],
    ids=lambda a: f"{a[0]}{a[2]}",
)
def test_cli_negative_bound_is_two(argv, capsys):
    command, name, flag, value = argv
    with pytest.raises(SystemExit) as e:
        cli([command, str(corpus_path(name)), flag, value])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"multiactive {command}: error: argument {flag}: must not be negative, got {value}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["translate", "check-sim"])
def test_cli_cooperative_only_commands_refuse_masp(command, capsys):
    assert cli([command, str(corpus_path("peer_policy.masp"))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{command} expects a .abs file\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["translate", "check-sim"])
def test_cli_cooperative_only_commands_refuse_an_ill_formed_masp(command, tmp_path, capsys):
    f = tmp_path / "bad.masp"
    f.write_text("{ vars x; x = = 1 }")
    assert cli([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{command} expects a .abs file\n"
    assert captured.out == ""


def test_cli_run_diagnoses_a_request_that_never_ends(capsys):
    assert cli(["run", str(corpus_path("circular_hard.masp"))]) == 0
    captured = capsys.readouterr()
    assert "request_never_ends: True" in captured.out
    assert captured.err == (
        "request never ends; diagnosis:\n"
        "  blocked-on-future: a1/f2 (wait-by-necessity on f3 under a hard limit)\n"
        "  thread-starved: a1/f4 (service blocked by thread limits)\n"
        "  blocked-on-future: a2/f3 (wait-by-necessity on f4 under a hard limit)\n"
    )


# two cogs that wait on each other's answer with a blocking get
_ABS_DEADLOCK = """
class Main() {
  method go(b) {
    vars f, x;
    f = b!ping(this);
    x = f.get;
    return x
  }
  method back() { return 7 }
}
class Peer() {
  method ping(a) {
    vars g, y;
    g = a!back();
    y = g.get;
    return y
  }
}
{
  vars m, p, h, r;
  m = new Main();
  p = new Peer();
  h = m!go(p);
  r = h.get
}
"""


def test_cli_run_of_cooperative_program_prints_no_diagnosis(tmp_path, capsys):
    f = tmp_path / "dead.abs"
    f.write_text(_ABS_DEADLOCK)
    assert cli(["run", str(f)]) == 0
    captured = capsys.readouterr()
    assert "request_never_ends: True" in captured.out
    assert captured.err == ""


# -- malformed labels -------------------------------------------------------------

# how many items each rule's label carries in ``extra``: a queue index for
# a multi-active `Serve`, a store location for `Update`, none for the other
# multi-active rules; for a cooperative rule, the object's id, then a
# position in its queue, or the callee's id (`Cog-Sync-Call`), or another
# object's id and a position in that object's queue
_MASP_EXTRA = {"Serve": 1, "Update": 1}
_ABS_EXTRA = {"Await-False": 2, "Suspend": 2, "Cog-Sync-Call": 2,
              "Self-Sync-Return-Sched": 2, "Cog-Sync-Return-Sched": 3}

_ENGINES = {
    "masp": (masp_steps.apply_step, masp_steps._RULES, _MASP_EXTRA, 0),
    "abs": (abs_steps.abs_apply_step, abs_steps._RULES, _ABS_EXTRA, 1),
}


def _wrong_extras(size) -> list:
    """An empty extra, unless that is the right size, and one item too many."""
    return ([()] if size else []) + [(0,) * (size + 1)]


_WRONG_EXTRA = [
    (engine, rule, extra)
    for engine, (_, rules, sizes, default) in _ENGINES.items()
    for rule in rules
    for extra in _wrong_extras(sizes.get(rule, default))
]


@pytest.mark.parametrize("engine,rule,extra", _WRONG_EXTRA, ids=str)
def test_label_with_wrong_extra_is_engine_fault(engine, rule, extra):
    apply = _ENGINES[engine][0]
    if engine == "masp":
        cfg = initial_config(load_masp("peer_policy.masp"))
    else:
        cfg = abs_initial_config(load_abs("bank_account.abs"))
    with pytest.raises(EngineFault, match="step not enabled"):
        apply(cfg, Label(rule, "a0", "f0", extra))


def test_replay_of_a_record_without_extra_is_engine_fault():
    program = load_abs("bank_account.abs")
    _, trace = abs_run(abs_initial_config(program), budget=5)
    lines = trace.to_jsonl().splitlines()
    first = json.loads(lines[1])
    assert first["detail"]["extra"]
    del first["detail"]["extra"]
    lines[1] = json.dumps(first)
    with pytest.raises(EngineFault, match="step not enabled"):
        abs_replay(program, Trace.from_jsonl("\n".join(lines)))
