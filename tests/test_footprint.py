"""What the package loads into a process: OpenSSL stays out."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# explore, one simulation direction and a run with digests whose trace
# round-trips and replays, then the modules the process holds
SCRIPT = """
import sys
import multiactive as M
from multiactive.masp.engine import replay
from multiactive.trace import Trace

program = M.parse_abs(M.corpus_path("mapreduce.abs").read_text())
translated = M.translate_program(program)
assert M.explore(M.initial_config(translated), width=300).states_visited == 300
assert M.check_backward_simulation(program, 6, 10_000).ok
_, trace = M.run(M.initial_config(translated), "random", seed=3, digests=True)
back = Trace.from_jsonl(trace.to_jsonl())
assert back == trace
assert M.masp_digest(replay(translated, back)) == trace.terminal["final_digest"]
print(" ".join(sorted({"hashlib", "_hashlib"} & set(sys.modules))))
"""


def test_no_hashlib_in_a_working_process():
    """hashlib would load _hashlib and map libcrypto (about 3.5 MB of peak RSS)
    only to return the built-in BLAKE2b canon uses directly."""
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
