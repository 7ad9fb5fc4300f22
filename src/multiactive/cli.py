"""Command-line front door: run, translate, explore, check-sim, trace."""

from __future__ import annotations

import argparse
import json
import sys

from .diagnostics import ParseError
from .explore import explore, semantics_of
from .lang import check_wellformed, pretty_masp
from .simulate import check_backward_simulation, check_forward_simulation
from .trace import Trace
from .translate import TranslateError, translate_program


def _load(path: str, cooperative_only: str = ""):
    """The well-formed program at ``path``; a command named in
    ``cooperative_only`` refuses a multi-active path before it is parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        print(f"{path}: not UTF-8 text (byte {err.start})", file=sys.stderr)
        raise SystemExit(1)
    try:
        sem = semantics_of(path)
    except ValueError as err:  # neither a .abs nor a .masp path
        raise SystemExit(str(err))
    if cooperative_only and sem.name != "abs":
        raise SystemExit(f"{cooperative_only} expects a .abs file")
    try:
        program = sem.parse(text, filename=path)
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
    sem = semantics_of(program)
    final, trace = sem.run(
        sem.initial(program), strategy=args.strategy, budget=args.budget, seed=args.seed
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    if args.format == "json":
        print(json.dumps(trace.terminal, sort_keys=True))
    else:
        _emit(trace.terminal, "text")
    if trace.terminal.get("request_never_ends") and sem.diagnose is not None:
        diag = sem.diagnose(final)
        if not diag.empty:
            print("request never ends; diagnosis:", file=sys.stderr)
            for c in diag.classifications:
                print(f"  {c['kind']}: {c['activity']}/{c['request']}"
                      f" ({c['detail']})", file=sys.stderr)
    return 0


def _cmd_translate(args) -> int:
    program = _load(args.file, "translate")
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
    sem = semantics_of(program)
    result = explore(
        sem.initial(program), depth=args.depth, width=args.width, properties=sem.properties
    )
    if args.format == "json":
        # the stop reason rides beside to_json(), whose keys pinned explorations hash
        print(json.dumps({**result.to_json(), "stop": result.stop}, indent=2, sort_keys=True))
    else:
        _emit(
            {
                "states_visited": result.states_visited,
                "transitions": result.transitions,
                "truncated": result.frontier_truncated,
                "stop": result.stop,
                "terminal_states": len(result.terminal_states),
                "violations": len(result.property_violations),
            },
            "text",
        )
        for v in result.property_violations[:10]:
            print(f"  {v['property']}: {v['detail']}")
    return 1 if result.property_violations else 0


def _cmd_check_sim(args) -> int:
    program = _load(args.file, "check-sim")
    reports = []
    if args.direction in ("forward", "both"):
        reports.append(check_forward_simulation(program, args.depth, args.width))
    if args.direction in ("backward", "both"):
        reports.append(check_backward_simulation(program, args.depth, args.width))
    # the coverage counts ride beside to_json(), whose keys pinned reports hash
    payload = [
        {**r.to_json(), "abs_states": r.abs_states, "masp_states": r.masp_states}
        for r in reports
    ]
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        cut = {"width": ", truncated", "depth": f", cut at depth {args.depth}"}
        for r in payload:
            print(
                f"{r['direction']}: matched {r['matched']}/{r['steps_checked']}"
                f" (outside fragment {r['outside_fragment']},"
                f" restriction skips {r['skipped_restriction']},"
                f" failures {len(r['failures'])}), cooperative {r['abs_states']},"
                f" multi-active {r['masp_states']}, states {r['states']}"
                + cut.get(r["stop"], "")
            )
    unchecked = [r for r in reports if r.stop != "exhausted" and not r.steps_checked]
    for r in unchecked:
        print(
            f"check-sim: the {r.stop} cut {r.direction} before its first step",
            file=sys.stderr,
        )
    return 1 if unchecked or any(r.failures for r in reports) else 0


def _cmd_trace(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            trace = Trace.from_jsonl(fh.read())
    except ValueError as err:  # undecodable bytes included
        print(f"{args.file}: {err}", file=sys.stderr)
        return 1
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


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _bound(text: str) -> int:
    """A depth, width or budget: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multiactive",
        description="interpreters, translator and simulation checkers for"
        " multi-active and cooperative active objects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one deterministic schedule")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_bound, default=10000)
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
    p.add_argument("--depth", type=_bound, default=60)
    p.add_argument("--width", type=_bound, default=100000)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("check-sim", help="weak-simulation check of the translation")
    p.add_argument("file")
    p.add_argument("--depth", type=_bound, default=30)
    p.add_argument("--width", type=_bound, default=10000)
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
    except OSError as e:  # a path that cannot be read or written
        print(e, file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
