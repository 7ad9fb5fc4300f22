"""Bounded state-space exploration with canonical-state deduplication.

Breadth-first over either calculus, through the semantics record that
``semantics_of`` picks, the one place that chooses a calculus; property
callbacks run at every state (and over every transition), every reported
violation comes with a replayable witness path. Discovery order is
deterministic, so the same input always gives the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .absm.engine import semantics as abs_semantics
from .absm.runtime import AbsConfig
from .lang.ast_abs import AbsProgram
from .lang.ast_masp import MaspProgram
from .masp.engine import semantics as masp_semantics
from .masp.runtime import MaspConfig
# re-exported, for callers that import the properties from here
from .properties import ABS_PROPERTIES, MASP_PROPERTIES, Property
from .trace import Semantics


def semantics_of(x) -> Semantics:
    """The record of the calculus ``x`` belongs to: a configuration, a
    program, or a source path by its suffix; ValueError for another path."""
    is_path = isinstance(x, str)
    if isinstance(x, (MaspConfig, MaspProgram)) or is_path and x.endswith(".masp"):
        return masp_semantics()
    if isinstance(x, (AbsConfig, AbsProgram)) or is_path and x.endswith(".abs"):
        return abs_semantics()
    raise ValueError(f"{x}: expected a .abs or .masp file")


def default_properties(config) -> tuple:
    return semantics_of(config).properties


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


def _expand(config, sem, properties):
    succs = []
    notes = []
    for label in sem.enabled(config):
        succ = sem.apply(config, label)
        for prop in properties:
            if prop.transition is not None:
                for msg in prop.transition(config, succ, label):
                    notes.append((prop.name, label, msg))
        succs.append((label, succ, sem.digest(succ)))
    return succs, notes


def explore(config, depth: int = 50, width: int = 100000, properties=()) -> ExplorationResult:
    """BFS up to ``depth`` levels or ``width`` distinct canonical states
    (the root counts, so at least one)."""
    sem = semantics_of(config)
    result = ExplorationResult()
    root = sem.digest(config)
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
            succs, notes = _expand(cfg, sem, properties)
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
                stuck = 0 if sem.stuck is None else len(sem.stuck(cfg))
                result.terminal_states.append((digest, len(sem.unresolved(cfg)), stuck))
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
            break
        frontier = next_frontier
    else:
        result.frontier_truncated = bool(frontier)
    result.states_visited = visited
    return result
