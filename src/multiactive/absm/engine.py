"""Initial configuration and deterministic runs of the cooperative engine,
and ``semantics()``, the record through which the generic tools drive it.

The run and replay loops are ``trace.run_steps`` and ``trace.replay_steps``;
what stays here is this calculus's scheduler (``choose`` in ``abs_run``)
and its step record, whose rule carries an ``abs:`` prefix.
"""

from __future__ import annotations

import random

from ..canon import abs_digest, program_digest
from ..lang.ast_abs import AbsProgram
from ..lang.parser_abs import parse_abs
from ..lang.pretty import pretty_abs
from ..properties import ABS_PROPERTIES
from ..trace import Semantics, StepRecord, Trace, replay_steps, run_steps
from ..values import UNRESOLVED, ActRef, FutRef, ObjRef
from .runtime import AbsConfig, Cog, Ob, Process, flatten_abs_body
from .steps import abs_apply_step, abs_enabled_steps

MAIN_COG = "a0"
MAIN_FUTURE = "f0"


def abs_initial_config(program: AbsProgram) -> AbsConfig:
    """A single start object, alone in its cog, activating the main block."""
    start = ObjRef(0, MAIN_COG)
    locals_ = {x: None for x in program.main_locals}
    locals_["this"] = start
    locals_["destiny"] = FutRef(MAIN_FUTURE)
    proc = Process(locals_, flatten_abs_body(program.main_body))
    ob = Ob(start, None, {"cog": ActRef(MAIN_COG)}, proc, ())
    return AbsConfig(
        program=program,
        cogs={MAIN_COG: Cog(MAIN_COG, start, 1, {0: ob})},
        futures={MAIN_FUTURE: UNRESOLVED},
        cog_counter=1,
        fut_counter=1,
    )


def _label_record(config, label, index) -> StepRecord:
    return StepRecord(
        index, f"abs:{label.rule}", label.activity, label.future, None, label.detail(), ""
    )


def abs_unresolved_futures(config: AbsConfig) -> list:
    return [f for f, v in config.futures.items() if v is UNRESOLVED]


def abs_run(
    config: AbsConfig,
    strategy: str = "fifo-eager",
    budget: int = 10000,
    seed: int = 0,
    digests: bool = True,
):
    """One deterministic execution; awaits re-queue at the tail in run mode."""
    rng = random.Random(seed)
    rotation = 0

    def choose(config, labels):
        nonlocal rotation
        if strategy == "random":
            return labels[rng.randrange(len(labels))]
        # round-robin over cogs; within one cog prefer real progress
        # over yielding so awaiting processes do not spin needlessly
        cog_order = list(config.cogs.keys())
        for offset in range(len(cog_order)):
            cog = cog_order[(rotation + offset) % len(cog_order)]
            mine = [l for l in labels if l.activity == cog]
            if mine:
                progress = [
                    l
                    for l in mine
                    if l.rule not in ("Await-False", "Suspend", "Release-Cog")
                ]
                rotation = rotation + offset + 1
                return progress[0] if progress else mine[0]
        return labels[0]

    trace = Trace(program_digest(config.program, pretty_abs), strategy, seed)
    return run_steps(config, semantics(), choose, _label_record, trace, budget, digests)


def abs_replay(program: AbsProgram, trace: Trace):
    """Re-apply a trace's recorded labels; returns the final configuration."""
    return replay_steps(abs_initial_config(program), abs_apply_step, trace)


def semantics() -> Semantics:
    """This calculus's record, built from this module's names on every call;
    it has no stuck threads and no deadlock diagnosis."""
    return Semantics("abs", parse_abs, abs_initial_config, abs_run, abs_enabled_steps,
                     abs_apply_step, abs_digest, abs_unresolved_futures, ABS_PROPERTIES)
