"""One repetition of one workload, in the interpreter that runs this file.

``run.py`` starts a fresh interpreter for every repetition: the
canonical-digest and structural-key caches are process-global and keyed
on ``id()``, so a warm cache would leak from one repetition into the
next, and ``ru_maxrss`` must be that of a process that ran only this
workload. CLI users pay cold caches on every run too.

Prints one JSON object on stdout. With ``--setup-only`` it stops after
set-up; with ``--trace 1`` it also records layer spans and writes them
to ``--spans``.

    python3 perfbench/rep.py --workload run --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="gzip JSON-lines file for the traced spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import multiactive

    t_import = time.perf_counter()
    if SRC not in Path(multiactive.__file__).resolve().parents:
        raise SystemExit(f"multiactive imported from {multiactive.__file__}, not from {SRC}")

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        ops = workloads.build_ops(args.workload, args.seed)
        inputs = workloads.setup(ops)
        t_setup = time.perf_counter()
        records = [] if args.setup_only else [workloads.execute(op, inputs, tracer) for op in ops]
        t_end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "setup_s": t_setup - t0,
        "import_s": t_import - t0,
        # everything after the import: the part the tracer can see
        "traced_part_s": t_end - t_import,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer is not None:
        out["layers"] = tracer.self_times()
        out["oks"] = tracer.oks
        out["spans"] = len(tracer.spans)
        out["outside_spans_s"] = (t_end - t_import) - tracer.top_level_s()
        if args.spans:
            tracer.write(args.spans)
        if tracing.leftover_wrappers():
            raise SystemExit(f"tracer wrappers left bound: {tracing.leftover_wrappers()}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
