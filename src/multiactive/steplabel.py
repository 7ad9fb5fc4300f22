"""Step labels shared by both engines and the exploration harness, and
the memo of local step results that both engines keep on the node a
step rewrites."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from .values import same


# slotted: every live activity keeps its enabled labels memoized
@dataclass(frozen=True, slots=True)
class Label:
    rule: str
    activity: str
    future: Optional[str] = None
    extra: tuple = ()

    def key(self) -> str:
        bits = [self.rule, self.activity]
        if self.future is not None:
            bits.append(self.future)
        bits.extend(str(x) for x in self.extra)
        return "/".join(bits)

    def detail(self) -> dict:
        """The label as a trace record stores it; ``from_detail`` reads it back."""
        return {
            "rule": self.rule,
            "activity": self.activity,
            "future": self.future,
            "extra": list(self.extra),
        }

    @classmethod
    def from_detail(cls, detail: dict) -> "Label":
        return cls(
            detail["rule"],
            detail["activity"],
            detail.get("future"),
            tuple(detail.get("extra", ())),
        )


# what a memo entry reads at a configuration cell that does not exist
ABSENT = object()


def memo_step(config, node, label, handler, outcome, place):
    """``handler(config, label)`` for a rule that rewrites only ``node``,
    an immutable activity or cog, and at most a few futures; memoized on
    ``node`` as ``_next``, outside its fields, so that every configuration
    holding ``node`` shares the result.

    On a miss, ``outcome(config, new, node, label)`` names what the handler
    did: ``(successor node, reads, writes)``. ``reads`` is a tuple of
    ``(future, seen)``: the rule read ``seen`` at ``config.futures[future]``
    (``ABSENT`` for a missing future). ``writes`` is a tuple of ``(future,
    written)``: it put ``written`` there. A rule that reads only ``node``
    and the program has ``()`` for both. The entry keeps the program,
    ``reads``, ``writes`` and the successor node. A hit, on the same
    program with every ``seen`` still in place and the successor alive,
    returns ``place(config, successor)`` with each ``written`` put back,
    which is what the handler would build: it read nothing else. A cell
    matches by value: it holds ``seen`` itself or a value that
    ``values.same`` finds interchangeable with it, such as a binder that
    another path rebuilt, so the handler would read the same. ``canon``
    may lend the memo to a node interchangeable with ``node``: both then
    add to one table.

    An entry holds its successor through a weak reference when first
    stored. When a lookup finds one whose program and reads match but
    whose successor was collected, the derivation is needed a second time,
    and the recomputed successor is kept with a strong reference, as long
    as a node holding the memo lives (second-chance retention, as in the
    2Q policy of Johnson and Shasha). A handler's ``EngineFault`` is never
    stored.
    """
    memo = node.__dict__.get("_next")
    retain = False
    if memo is None:
        memo = node.__dict__["_next"] = {}
    else:
        entry = memo.get(label)
        if entry is not None and entry[0] is config.program:
            _, reads, writes, succ = entry
            futures = config.futures
            for fut, seen in reads:
                got = futures.get(fut, ABSENT)
                if got is not seen and not same(got, seen):
                    break
            else:
                if succ.__class__ is weakref.ReferenceType:
                    succ = succ()
                    retain = succ is None
                if succ is not None:
                    if not writes:
                        return place(config, succ)
                    return place(config, succ, futures={**futures, **dict(writes)})
    new = handler(config, label)
    succ, reads, writes = outcome(config, new, node, label)
    memo[label] = (config.program, reads, writes, succ if retain else weakref.ref(succ))
    return new

