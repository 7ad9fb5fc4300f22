"""Initial configurations and deterministic runs of the multi-active engine,
and ``semantics()``, the record through which the generic tools drive it.

The run and replay loops are ``trace.run_steps`` and ``trace.replay_steps``;
what stays here is this calculus's scheduler (``choose`` in ``run``) and
its step record, which names the method a step serves.
"""

from __future__ import annotations

import random

from ..canon import masp_digest, program_digest
from ..deadlock import diagnose_deadlock
from ..lang.ast_expr import Var
from ..lang.ast_masp import MaspProgram, MReturn
from ..lang.parser_masp import parse_masp
from ..lang.pretty import pretty_masp
from ..policy import DEFAULT_POLICY, resolve_policy
from ..properties import MASP_PROPERTIES
from ..trace import Semantics, StepRecord, Trace, replay_steps, run_steps
from ..values import ActRef, Loc, MethodVal
from .runtime import (
    Activity,
    FutBinder,
    Frame,
    MHole,
    MaspConfig,
    Obj,
    Request,
    Thread,
    flatten_body,
)
from .steps import apply_step, enabled_steps, stuck_threads

MAIN_FUTURE = "f0"
MAIN_ACTIVITY = "a0"
MAIN_OBJECT_ID = 0


def initial_config(program: MaspProgram) -> MaspConfig:
    """One activity serving one request whose body is the main block.

    Programs carrying a COG class (translator output) get the serving
    shape of a cog: the main block runs as an execute request on a main
    object registered under id 0, so the stack mirrors an execute call.
    """
    locals_ = {x: None for x in program.main_locals}
    body = flatten_body(program.main_body)
    if program.cls("COG") is not None:
        cog_loc, main_loc = Loc(1), Loc(2)
        main_obj = Obj(None, {"cog": ActRef(MAIN_ACTIVITY), "myId": MAIN_OBJECT_ID})
        store = {cog_loc: Obj("COG", {}), main_loc: main_obj}
        top = Frame({**locals_, "this": main_loc}, body)
        below = Frame(
            {
                "this": cog_loc,
                "id": MAIN_OBJECT_ID,
                "m": MethodVal("main"),
                "args": (),
                "w": main_loc,
                "x": None,
            },
            (MHole("x"), MReturn(Var("x"))),
        )
        request = Request(MAIN_FUTURE, "execute", (MAIN_OBJECT_ID, MethodVal("main")))
        act = Activity(
            name=MAIN_ACTIVITY,
            cls="COG",
            active_loc=cog_loc,
            store=store,
            current={MAIN_FUTURE: Thread(request, "A", (top, below))},
            queue=(),
            policy=resolve_policy(program.cls("COG")),
            loc_counter=2,
            registry={MAIN_OBJECT_ID: main_loc},
        )
        method = "execute"
    else:
        main_loc = Loc(1)
        store = {main_loc: Obj(None, {})}
        top = Frame({**locals_, "this": main_loc}, body)
        request = Request(MAIN_FUTURE, "main", ())
        act = Activity(
            name=MAIN_ACTIVITY,
            cls=None,
            active_loc=main_loc,
            store=store,
            current={MAIN_FUTURE: Thread(request, "A", (top,))},
            queue=(),
            policy=DEFAULT_POLICY,
            loc_counter=1,
        )
        method = "main"
    futures = {MAIN_FUTURE: FutBinder(method=method)}
    return MaspConfig(
        program=program,
        activities={MAIN_ACTIVITY: act},
        futures=futures,
        act_counter=1,
        fut_counter=1,
    )


def _label_record(config, label, index) -> StepRecord:
    method = None
    act = config.activities.get(label.activity)
    if act is not None and label.future is not None:
        if label.future in act.current:
            method = act.current[label.future].request.method
        else:
            for q in act.queue:
                if q.future == label.future:
                    method = q.method
                    break
        if method is None:
            binder = config.futures.get(label.future)
            method = binder.method if binder else None
    return StepRecord(index, label.rule, label.activity, label.future, method, label.detail(), "")


def unresolved_futures(config: MaspConfig) -> list:
    return [f for f, b in config.futures.items() if not b.resolved]


def run(
    config: MaspConfig,
    strategy: str = "fifo-eager",
    budget: int = 10000,
    seed: int = 0,
    digests: bool = True,
):
    """Drive one deterministic execution; returns (config, trace).

    Future updates are applied eagerly before every scheduler pick; the
    fifo-eager strategy serves the oldest admissible request first, then
    activations, then thread steps in a rotating order (so busy-waiting
    condition threads get requeued behind everything else runnable).
    """
    rng = random.Random(seed)
    rotation = 0

    def choose(config, labels):
        nonlocal rotation
        for l in labels:
            if l.rule == "Update":
                return l
        serves = [l for l in labels if l.rule == "Serve"]
        activates = [l for l in labels if l.rule == "Activate-Thread"]
        others = [l for l in labels if l.rule not in ("Serve", "Activate-Thread")]
        if strategy == "random":
            pool = serves + activates + others
            return pool[rng.randrange(len(pool))]
        if serves:
            return serves[0]
        if activates:
            return activates[0]
        chosen = others[rotation % len(others)]
        rotation += 1
        return chosen

    trace = Trace(program_digest(config.program, pretty_masp), strategy, seed)
    return run_steps(config, semantics(), choose, _label_record, trace, budget, digests)


def replay(program: MaspProgram, trace: Trace):
    """Re-apply a trace's recorded labels; returns the final configuration."""
    return replay_steps(initial_config(program), apply_step, trace)


def semantics() -> Semantics:
    """This calculus's record, built from this module's names on every call."""
    return Semantics("masp", parse_masp, initial_config, run, enabled_steps, apply_step,
                     masp_digest, unresolved_futures, MASP_PROPERTIES, stuck_threads,
                     diagnose_deadlock)
