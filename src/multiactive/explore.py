"""Bounded state-space exploration with canonical-state deduplication.

Breadth-first over either configuration kind; property callbacks run at
every state (and over every transition), every reported violation comes
with a replayable witness path. Discovery order is deterministic, so the
same input always gives the same counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

from .absm.engine import abs_unresolved_futures
from .absm.runtime import AbsConfig
from .absm.steps import abs_apply_step, abs_enabled_steps
from .canon import abs_digest, masp_digest
from .masp.engine import unresolved_futures
from .masp.evalfn import ground
from .masp.runtime import MaspConfig, Obj
from .masp.steps import apply_step, enabled_steps, stuck_threads
from .policy import ThreadAccount, compatible
from .values import UNRESOLVED, FutRef, Loc


@dataclass
class Property:
    name: str
    state: Optional[Callable] = None  # config -> list of violation strings
    transition: Optional[Callable] = None  # (old, new, label) -> list


@dataclass
class ExplorationResult:
    states_visited: int = 0
    frontier_truncated: bool = False
    terminal_states: list = field(default_factory=list)
    property_violations: list = field(default_factory=list)
    transitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.property_violations

    def to_json(self) -> dict:
        return {
            "states_visited": self.states_visited,
            "frontier_truncated": self.frontier_truncated,
            "transitions": self.transitions,
            "terminal_states": [
                {"digest": d, "unresolved_futures": u, "stuck_threads": s}
                for d, u, s in sorted(self.terminal_states)
            ],
            "property_violations": self.property_violations,
        }


def _dispatch(config):
    if isinstance(config, MaspConfig):
        return enabled_steps, apply_step, masp_digest
    return abs_enabled_steps, abs_apply_step, abs_digest


def _terminal_info(config) -> tuple:
    if isinstance(config, MaspConfig):
        return len(unresolved_futures(config)), len(stuck_threads(config))
    return len(abs_unresolved_futures(config)), 0


def _expand(config, enabled, apply_fn, digest_fn, properties, mode):
    succs = []
    notes = []
    for label in enabled(config, mode=mode):
        succ = apply_fn(config, label)
        for prop in properties:
            if prop.transition is not None:
                for msg in prop.transition(config, succ, label):
                    notes.append((prop.name, label, msg))
        succs.append((label, succ, digest_fn(succ)))
    return succs, notes


def explore(
    config,
    depth: int = 50,
    width: int = 100000,
    properties=(),
    mode: str = "explore",
    time_budget: float = None,
) -> ExplorationResult:
    """BFS up to ``depth`` levels, ``width`` distinct canonical states (the
    root counts, so at least one), or ``time_budget`` seconds (checked
    before each expansion)."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    enabled, apply_fn, digest_fn = _dispatch(config)
    result = ExplorationResult()
    root = digest_fn(config)
    parents = {root: None}  # digest -> (parent digest, label)
    frontier = [(config, root)]
    visited = 1

    def witness(digest) -> list:
        path = []
        while parents.get(digest) is not None:
            digest, label = parents[digest]
            path.append(label.key())
        return list(reversed(path))

    def check_state(cfg, digest):
        for prop in properties:
            if prop.state is not None:
                for msg in prop.state(cfg):
                    result.property_violations.append(
                        {
                            "property": prop.name,
                            "digest": digest,
                            "detail": msg,
                            "witness": witness(digest),
                        }
                    )

    check_state(config, root)
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        for cfg, digest in frontier:
            if deadline is not None and time.monotonic() > deadline:
                result.frontier_truncated = True
                break
            succs, notes = _expand(cfg, enabled, apply_fn, digest_fn, properties, mode)
            for prop_name, label, msg in notes:
                result.property_violations.append(
                    {
                        "property": prop_name,
                        "digest": digest,
                        "detail": msg,
                        "witness": witness(digest) + [label.key()],
                    }
                )
            if not succs:
                unresolved, stuck = _terminal_info(cfg)
                result.terminal_states.append((digest, unresolved, stuck))
                continue
            result.transitions += len(succs)
            for label, succ, sd in succs:
                if sd in parents:
                    continue
                if visited >= width:  # only when width < 2: the root filled it
                    break
                parents[sd] = (digest, label)
                visited += 1
                check_state(succ, sd)
                next_frontier.append((succ, sd))
                if visited >= width:
                    break
            if visited >= width:
                break
        if visited >= width:
            result.frontier_truncated = True
        if result.frontier_truncated:
            break
        frontier = next_frontier
    else:
        result.frontier_truncated = bool(frontier)
    result.states_visited = visited
    return result


# -- built-in properties --------------------------------------------------------


def _per_activity(check):
    """A state property that runs ``check`` on each activity, memoizing
    its messages on the (immutable) activity: ``check`` reads only it."""
    key = f"_{check.__name__}"

    def prop(config: MaspConfig) -> list:
        out = []
        for act in config.activities.values():
            msgs = act.__dict__.get(key)
            if msgs is None:
                msgs = tuple(check(act))
                object.__setattr__(act, key, msgs)
            out.extend(msgs)
        return out

    return prop


def _parallelism(act) -> list:
    """Any two requests served in parallel are compatible."""
    g = lambda v: ground(v, act.store)
    out = []
    for t, t2 in combinations(act.current.values(), 2):
        q, q2 = t.request, t2.request
        if not compatible(q, q2, act.policy, g):
            out.append(
                f"{act.name}: incompatible requests {q.method} and {q2.method} in parallel"
            )
    return out


def _limits(act) -> list:
    acc = ThreadAccount.of_activity(act)
    pol = act.policy.policy
    out = []
    if pol.thread_pool_size is not None and acc.total_active > pol.thread_pool_size:
        out.append(f"{act.name}: {acc.total_active} active threads over the pool")
    for decl in pol.groups:
        if decl.max_threads is None:
            continue
        n = acc.per_group_active.get(decl.name, 0)
        if n > decl.max_threads:
            out.append(f"{act.name}: group {decl.name} has {n} active threads")
    return out


_safe_parallelism = _per_activity(_parallelism)
_thread_limits = _per_activity(_limits)


def _store_closure(config: MaspConfig) -> list:
    out = []
    for name, act in config.activities.items():
        for fut, detail in _closure_refs(act):
            if fut is None or fut not in config.futures:
                out.append(f"{name}: {detail}")
    return out


def _closure_refs(act) -> tuple:
    """What store closure checks in one activity, in walk order: a
    dangling location as ``(None, detail)``, a future reference as
    ``(name, detail)``, which holds only while the configuration binds
    that future. Memoized on the (immutable) activity."""
    refs = act.__dict__.get("_closure")
    if refs is not None:
        return refs
    out = []

    def check_value(v, where):
        if isinstance(v, Loc) and v not in act.store:
            out.append((None, f"dangling {v} in {where}"))
        if isinstance(v, FutRef):
            out.append((v.name, f"unknown future {v.name} in {where}"))

    for loc, storable in act.store.items():
        if isinstance(storable, Obj):
            for x, v in storable.fields.items():
                check_value(v, f"{loc}.{x}")
        else:
            check_value(storable, f"{loc}")
    for fut, thread in act.current.items():
        for frame in thread.stack:
            for x, v in frame.locals.items():
                if isinstance(v, tuple):
                    for w in v:
                        check_value(w, f"{fut}:{x}")
                else:
                    check_value(v, f"{fut}:{x}")
        for a in thread.request.args:
            check_value(a, f"{fut}:arg")
    for q in act.queue:
        for a in q.args:
            check_value(a, f"{q.future}:arg")
    refs = tuple(out)
    object.__setattr__(act, "_closure", refs)
    return refs


def _fifo_integrity(old: MaspConfig, new: MaspConfig, label) -> list:
    """Relative order of never-served requests is stable."""
    out = []
    for name, act in new.activities.items():
        before = old.activities.get(name)
        if before is None or before is act:
            continue
        new_order = [q.future for q in act.queue]
        new_set = set(new_order)
        old_order = [q.future for q in before.queue if q.future in new_set]
        old_set = set(old_order)
        filtered = [f for f in new_order if f in old_set]
        if filtered != old_order:
            out.append(f"{name}: queue order changed under {label.rule}")
    return out


MASP_PROPERTIES = (
    Property("safe-parallelism", state=_safe_parallelism),
    Property("thread-limits", state=_thread_limits),
    Property("store-closure", state=_store_closure),
    Property("fifo-integrity", transition=_fifo_integrity),
)


def _one_active_per_cog(config: AbsConfig) -> list:
    out = []
    for cog in config.cogs:
        busy = [
            o.name
            for o in config.objects.values()
            if o.name.cog == cog and o.active is not None
        ]
        if len(busy) > 1:
            out.append(f"{cog}: several non-idle objects {busy}")
        for name in busy:
            if config.cogs[cog] != name:
                out.append(f"{cog}: non-idle {name} is not the running object")
    return out


def _futures_write_once(old: AbsConfig, new: AbsConfig, label) -> list:
    out = []
    for f, v in old.futures.items():
        if v is not UNRESOLVED and new.futures.get(f) != v:
            out.append(f"future {f} changed after resolution")
    return out


def _destiny_totality(config: AbsConfig) -> list:
    out = []
    for ob in config.objects.values():
        procs = ([ob.active] if ob.active is not None else []) + list(ob.queue)
        for p in procs:
            dest = p.locals.get("destiny")
            if not isinstance(dest, FutRef) or dest.name not in config.futures:
                out.append(f"{ob.name}: process without a destiny future")
            elif config.futures[dest.name] is not UNRESOLVED:
                out.append(f"{ob.name}: live process with resolved destiny")
    return out


def _fresh_fifo(old: AbsConfig, new: AbsConfig, label) -> list:
    def dests(o):
        return [
            p.locals.get("destiny").name
            for p in o.queue
            if isinstance(p.locals.get("destiny"), FutRef)
        ]

    out = []
    for name, ob in new.objects.items():
        before = old.objects.get(name)
        if before is None or before is ob:
            continue
        new_order = dests(ob)
        new_set = set(new_order)
        old_order = [f for f in dests(before) if f in new_set]
        old_set = set(old_order)
        filtered = [f for f in new_order if f in old_set]
        if filtered != old_order:
            out.append(f"{name}: pending order changed under {label.rule}")
    return out


ABS_PROPERTIES = (
    Property("one-active-per-cog", state=_one_active_per_cog),
    Property("destiny-totality", state=_destiny_totality),
    Property("futures-write-once", transition=_futures_write_once),
    Property("fresh-request-fifo", transition=_fresh_fifo),
)


def default_properties(config):
    return MASP_PROPERTIES if isinstance(config, MaspConfig) else ABS_PROPERTIES
