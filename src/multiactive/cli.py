"""Command-line front door: run, translate, explore, check-sim, trace."""

from __future__ import annotations

import argparse
import json
import sys

from .absm.engine import abs_initial_config, abs_run
from .deadlock import diagnose_deadlock
from .diagnostics import ParseError
from .explore import default_properties, explore
from .lang import check_wellformed, parse_abs, parse_masp, pretty_masp
from .masp.engine import initial_config, run
from .simulate import check_backward_simulation, check_forward_simulation
from .trace import Trace
from .translate import TranslateError, translate_program


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".abs"):
        parse = parse_abs
    elif path.endswith(".masp"):
        parse = parse_masp
    else:
        raise SystemExit(f"{path}: expected a .abs or .masp file")
    try:
        program = parse(text, filename=path)
    except ParseError as err:
        print(err, file=sys.stderr)
        raise SystemExit(1)
    diags = check_wellformed(program)
    if diags:
        for d in diags:
            print(str(d).replace("<input>", path), file=sys.stderr)
        raise SystemExit(1)
    return program


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _cmd_run(args) -> int:
    program = _load(args.file)
    if args.file.endswith(".abs"):
        config = abs_initial_config(program)
        final, trace = abs_run(
            config, strategy=args.strategy, budget=args.budget, seed=args.seed
        )
    else:
        config = initial_config(program)
        final, trace = run(
            config, strategy=args.strategy, budget=args.budget, seed=args.seed
        )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    if args.format == "json":
        print(json.dumps(trace.terminal, sort_keys=True))
    else:
        _emit(trace.terminal, "text")
    if trace.terminal.get("request_never_ends"):
        if args.file.endswith(".masp"):
            diag = diagnose_deadlock(final)
            if not diag.empty:
                print("request never ends; diagnosis:", file=sys.stderr)
                for c in diag.classifications:
                    print(f"  {c['kind']}: {c['activity']}/{c['request']}"
                          f" ({c['detail']})", file=sys.stderr)
    return 0


def _cmd_translate(args) -> int:
    program = _load(args.file)
    if not args.file.endswith(".abs"):
        raise SystemExit("translate expects a .abs file")
    try:
        out = translate_program(program)
    except TranslateError as err:
        for d in err.diagnostics:
            print(str(d).replace("<input>", args.file), file=sys.stderr)
        return 1
    text = pretty_masp(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_explore(args) -> int:
    program = _load(args.file)
    if args.file.endswith(".abs"):
        config = abs_initial_config(program)
    else:
        config = initial_config(program)
    result = explore(
        config,
        depth=args.depth,
        width=args.width,
        properties=default_properties(config),
    )
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        _emit(
            {
                "states_visited": result.states_visited,
                "transitions": result.transitions,
                "truncated": result.frontier_truncated,
                "terminal_states": len(result.terminal_states),
                "violations": len(result.property_violations),
            },
            "text",
        )
        for v in result.property_violations[:10]:
            print(f"  {v['property']}: {v['detail']}")
    return 1 if result.property_violations else 0


def _cmd_check_sim(args) -> int:
    program = _load(args.file)
    if not args.file.endswith(".abs"):
        raise SystemExit("check-sim expects a .abs file")
    reports = []
    if args.direction in ("forward", "both"):
        reports.append(check_forward_simulation(program, args.depth, args.width))
    if args.direction in ("backward", "both"):
        reports.append(check_backward_simulation(program, args.depth, args.width))
    payload = [r.to_json() for r in reports]
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in payload:
            print(
                f"{r['direction']}: matched {r['matched']}/{r['steps_checked']}"
                f" (outside fragment {r['outside_fragment']},"
                f" restriction skips {r['skipped_restriction']},"
                f" failures {len(r['failures'])})"
            )
    return 1 if any(r.failures for r in reports) else 0


def _cmd_trace(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        trace = Trace.from_jsonl(fh.read())
    if args.format == "json":
        sys.stdout.write(trace.to_jsonl())
        return 0
    print(f"strategy={trace.strategy} seed={trace.seed} program={trace.program_digest}")
    for r in trace.records:
        loc = f"{r.activity}" + (f"/{r.request_future}" if r.request_future else "")
        meth = f" {r.method}" if r.method else ""
        print(f"{r.index:5d} {r.rule:22s} {loc}{meth}  {r.config_digest}")
    for key, value in trace.terminal.items():
        print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiactive",
        description="interpreters, translator and simulation checkers for"
        " multi-active and cooperative active objects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one deterministic schedule")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--strategy", choices=("fifo-eager", "random"), default="fifo-eager")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--trace", help="write the JSON-lines trace here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("translate", help="translate a .abs program to .masp")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("explore", help="bounded exploration with property checks")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=60)
    p.add_argument("--width", type=int, default=100000)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("check-sim", help="weak-simulation check of the translation")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--width", type=int, default=10000)
    p.add_argument(
        "--direction", choices=("forward", "backward", "both"), default="both"
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_check_sim)

    p = sub.add_parser("trace", help="inspect a recorded trace")
    p.add_argument("dump", choices=("dump",))
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_trace)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        raise
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
