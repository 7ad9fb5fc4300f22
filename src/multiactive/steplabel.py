"""Step labels shared by both engines and the exploration harness."""

from __future__ import annotations

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
