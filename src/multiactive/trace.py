"""Execution traces: JSON-lines records; the ``Semantics`` record through
which the generic tools drive either calculus; and the run loop
(``run_steps``) and replay loop (``replay_steps``) that both engines share."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from .steplabel import Label


@dataclass
class StepRecord:
    index: int
    rule: str
    activity: str
    request_future: Optional[str]
    method: Optional[str]
    detail: dict
    config_digest: str

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class Trace:
    program_digest: str
    strategy: str
    seed: int
    records: list = field(default_factory=list)
    terminal: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "type": "header",
                    "program_digest": self.program_digest,
                    "strategy": self.strategy,
                    "seed": self.seed,
                },
                sort_keys=True,
            )
        ]
        for r in self.records:
            lines.append(json.dumps(r.to_json(), sort_keys=True))
        lines.append(json.dumps({"type": "terminal", **self.terminal}, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse ``to_jsonl`` output; ValueError, naming the line, if the
        text is not such a trace."""
        header, records, terminal = None, [], {}
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                kind = obj.get("type")
                if kind == "header":
                    header = _typed(obj, _HEADER)
                elif kind == "terminal":
                    terminal = {k: v for k, v in obj.items() if k != "type"}
                else:
                    index, rule, activity, digest, detail = _typed(obj, _RECORD)
                    _typed(detail, _DETAIL, " in detail")
                    records.append(
                        StepRecord(
                            index,
                            rule,
                            activity,
                            obj.get("request_future"),
                            obj.get("method"),
                            detail,
                            digest,
                        )
                    )
            except json.JSONDecodeError as err:
                raise ValueError(f"line {n}: not JSON ({err.msg})") from None
            except AttributeError:
                raise ValueError(f"line {n}: not a JSON object") from None
            except TypeError as err:
                raise ValueError(f"line {n}: {err}") from None
        if header is None:
            raise ValueError("trace has no header line")
        return cls(*header, records, terminal)


_HEADER = (("program_digest", str), ("strategy", str), ("seed", int))
_RECORD = (
    ("index", int), ("rule", str), ("activity", str), ("config_digest", str), ("detail", dict)
)
_DETAIL = (("rule", str), ("activity", str))
_KIND = {str: "a string", int: "an integer", dict: "an object"}


def _typed(obj: dict, fields: tuple, where: str = "") -> list:
    """The values of ``fields``, (key, type) pairs, in order; TypeError
    for a missing key or a value of another JSON type."""
    values = []
    for key, kind in fields:
        if key not in obj:
            raise TypeError(f"missing key {key!r}{where}")
        v = obj[key]
        if not isinstance(v, kind) or v.__class__ is bool:
            raise TypeError(f"{key!r}{where} is not {_KIND[kind]}")
        values.append(v)
    return values


@dataclass(frozen=True, slots=True)
class Semantics:
    """One calculus as the generic tools (``explore``, the run loop, the
    CLI) see it. Each engine's ``semantics()`` builds it per call from its
    module-level names, so wrappers bound under those names are seen."""

    name: str  # "masp" (multi-active) or "abs" (cooperative)
    parse: Callable  # (text, filename) -> program
    initial: Callable  # program -> config
    run: Callable  # (config, strategy, budget, seed, digests) -> (config, trace)
    enabled: Callable  # (config, mode) -> labels
    apply: Callable  # (config, label) -> config
    digest: Callable  # config -> str
    unresolved: Callable  # config -> future names
    properties: tuple  # the built-in properties of ``explore``
    stuck: Optional[Callable] = None  # config -> stuck threads, if the calculus has them
    diagnose: Optional[Callable] = None  # config -> deadlock diagnosis, likewise


def run_steps(config, sem: Semantics, choose, record, trace: Trace, budget: int, digests: bool):
    """The run loop: apply ``choose(config, labels)`` until no step is
    enabled or ``budget`` steps are taken; ``record(config, label, index)``
    builds each step's record. Fills in ``trace``; returns (config, trace)."""
    enabled, apply, digest = sem.enabled, sem.apply, sem.digest
    records = trace.records
    steps = 0
    while steps < budget:
        labels = enabled(config, mode="run")
        if not labels:
            break
        chosen = choose(config, labels)
        rec = record(config, chosen, steps)
        config = apply(config, chosen)
        if digests:
            rec.config_digest = digest(config)
        records.append(rec)
        steps += 1
    unresolved = sem.unresolved(config)
    terminal = not enabled(config, mode="run")
    info = trace.terminal = {  # the keys in this order, for the text output
        "steps": steps,
        "terminal": terminal,
        "budget_exhausted": steps >= budget and not terminal,
        "unresolved_futures": sorted(unresolved),
    }
    if sem.stuck is not None:
        info["stuck_threads"] = [list(s) for s in sem.stuck(config)]
    info["request_never_ends"] = terminal and bool(unresolved)
    info["final_digest"] = digest(config)
    return config, trace


def replay_steps(config, apply, trace: Trace):
    """The replay loop: re-apply a trace's recorded labels to ``config``;
    returns the final configuration."""
    for record in trace.records:
        config = apply(config, Label.from_detail(record.detail))
    return config
