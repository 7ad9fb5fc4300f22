"""Step labels shared by both engines and the exploration harness, and
the memo of local step results that both engines keep on the node a
step rewrites."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional


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


def memo_step(config, node, label, handler, outcome, place):
    """``handler(config, label)`` for a rule that rewrites only ``node``,
    an immutable activity or object, and at most the binder of the one
    future it reads; memoized on ``node`` as ``_next``, outside its
    fields, so that every configuration holding ``node`` shares the result.

    On a miss, ``outcome(config, new, node, label)`` names what the handler
    did: ``(successor node, fut, seen, written)``, where the rule read
    ``seen`` at ``config.futures[fut]`` (``fut`` is None for a rule that
    reads only ``node`` and the program) and, unless ``written`` is None,
    put ``written`` there. The entry keeps the program, ``fut``, ``seen``
    (whose identity a hit compares), ``written`` and a weak reference to
    the successor node. A hit, on the same program with ``seen`` still in
    place and the successor alive, returns ``place(config, successor)``
    with ``written`` put back, which is what the handler would build: it
    read nothing else. A handler's ``EngineFault`` is never stored.
    """
    memo = node.__dict__.get("_next")
    if memo is None:
        memo = node.__dict__["_next"] = {}
    else:
        entry = memo.get(label)
        if entry is not None and entry[0] is config.program:
            _, fut, seen, ref, written = entry
            if fut is None or config.futures.get(fut) is seen:
                succ = ref()
                if succ is not None:
                    if written is None:
                        return place(config, succ)
                    futures = dict(config.futures)
                    futures[fut] = written
                    return place(config, succ, futures=futures)
    new = handler(config, label)
    succ, fut, seen, written = outcome(config, new, node, label)
    memo[label] = (config.program, fut, seen, weakref.ref(succ), written)
    return new
