"""Random well-formed programs through every entry point of the toolkit.

Thirty cooperative and thirty multi-active programs from ``genprog``: each
is checked, run, translated, explored and (the cooperative ones) checked
for simulation in both directions. Nothing may raise, and no simulation
check may report a failure. The cooperative programs have no synchronous
call, ``suspend`` or boolean guard, so no step of theirs lies outside the
proved fragment in either direction.
"""

import random

from genprog import gen_runnable_abs, gen_runnable_masp
from multiactive.absm.engine import abs_initial_config, abs_run
from multiactive.deadlock import diagnose_deadlock
from multiactive.explore import default_properties, explore
from multiactive.lang import check_wellformed
from multiactive.masp.engine import initial_config, run
from multiactive.simulate import check_backward_simulation, check_forward_simulation
from multiactive.translate import translate_program

PROGRAMS = 30


def _explore(cfg):
    explore(cfg, depth=20, width=300, properties=default_properties(cfg))


def _masp(program):
    assert check_wellformed(program) == []
    cfg = initial_config(program)
    final, _ = run(cfg)
    diagnose_deadlock(final)
    _explore(cfg)


def test_fuzz_every_entry_point():
    rng = random.Random(12345)
    abs_programs = [gen_runnable_abs(rng) for _ in range(PROGRAMS)]
    masp_programs = [gen_runnable_masp(rng) for _ in range(PROGRAMS)]
    for program in abs_programs:
        assert check_wellformed(program) == []
        cfg = abs_initial_config(program)
        abs_run(cfg)
        _explore(cfg)
        _masp(translate_program(program))
        for check in (check_forward_simulation, check_backward_simulation):
            report = check(program, depth=8, width=2000)
            assert report.failures == [], (check.__name__, report.failures)
            assert report.outside_fragment == 0, check.__name__
    for program in masp_programs:
        _masp(program)
