"""Bounded state-space exploration with canonical-state deduplication.

Breadth-first over either calculus, through the semantics record that
``semantics_of`` picks, the one place that chooses a calculus; property
callbacks run at every state (and over every transition), every reported
violation comes with a replayable witness path. Discovery order is
deterministic, so the same input always gives the same counts.
"""

from __future__ import annotations

from collections import deque
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


def levels(roots, key, admit, expand, depth, width):
    """Breadth-first search, level by level, from ``roots`` (level 0).

    Each distinct ``key(item)`` is admitted once, at its least level, in
    discovery order: ``admit(item, key, level)`` returns the item to keep.
    Items are expanded lazily, in order, each dropped once expanded;
    ``expand(item)`` gives its successor items. Items at level ``depth``
    are admitted but not expanded. Admitting the ``width``-th key (the
    roots count) ends the search before any further expansion. Returns
    the seen keys and why it stopped: "exhausted", "depth" or "width"."""
    seen = set()
    found, roots = roots, None  # a root too is dropped once expanded
    for level_no in range(depth + 1):
        level, known = deque(), len(seen)
        for item in found:
            k = key(item)
            if k in seen:
                continue
            seen.add(k)
            item = admit(item, k, level_no)
            if len(seen) >= width:
                return seen, "width"
            if level_no < depth:
                level.append(item)
        if len(seen) == known:
            return seen, "exhausted"
        found = _expanded(level, expand)
    return seen, "depth"


def _expanded(level, expand):
    while level:
        yield from expand(level.popleft())


@dataclass
class ExplorationResult:
    states_visited: int = 0
    stop: str = "exhausted"  # or the bound that ended it: "depth" or "width"
    terminal_states: list = field(default_factory=list)
    property_violations: list = field(default_factory=list)
    transitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.property_violations

    @property
    def frontier_truncated(self) -> bool:
        return self.stop != "exhausted"

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


def explore(config, depth: int = 50, width: int = 100000, properties=()) -> ExplorationResult:
    """BFS through ``levels``, up to ``depth`` levels or ``width`` distinct
    canonical states; an item is (configuration, digest, its parents entry)."""
    sem = semantics_of(config)
    result = ExplorationResult()
    parents = {}  # digest -> (parent digest, label), None for the root
    state_props = [p for p in properties if p.state is not None]
    step_props = [p for p in properties if p.transition is not None]

    def witness(digest) -> list:
        path = []
        while parents.get(digest) is not None:
            digest, label = parents[digest]
            path.append(label.key())
        return list(reversed(path))

    def violation(prop, digest, msg, path):
        result.property_violations.append(
            {"property": prop, "digest": digest, "detail": msg, "witness": path}
        )

    def admit(item, digest, level):
        parents[digest] = item[2]
        for prop in state_props:
            for msg in prop.state(item[0]):
                violation(prop.name, digest, msg, witness(digest))
        return item

    def expand(item):
        cfg, digest, _ = item
        succs = []
        for label in sem.enabled(cfg):
            succ = sem.apply(cfg, label)
            for prop in step_props:
                for msg in prop.transition(cfg, succ, label):
                    violation(prop.name, digest, msg, witness(digest) + [label.key()])
            succs.append((succ, sem.digest(succ), (digest, label)))
        if not succs:
            stuck = 0 if sem.stuck is None else len(sem.stuck(cfg))
            result.terminal_states.append((digest, len(sem.unresolved(cfg)), stuck))
        result.transitions += len(succs)
        return succs

    roots = [(config, sem.digest(config), None)]
    seen, result.stop = levels(roots, lambda item: item[1], admit, expand, depth, width)
    result.states_visited = len(seen)
    return result
