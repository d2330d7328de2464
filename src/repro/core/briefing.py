"""The Webpage Briefing result type — the paper's task output (Fig. 1).

A :class:`Brief` is the hierarchical summary: the generated broad topic at
the top, the extracted key attributes below.  The hierarchy is extensible to
more levels (the paper's future work); level 0 is the topic, level 1 the key
attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Brief", "Degradation", "PartialBrief"]


@dataclass
class Brief:
    """Hierarchical webpage summary."""

    topic: List[str]
    attributes: List[str]
    #: Optional extra levels (level index ≥ 2) for future hierarchies.
    extra_levels: Dict[int, List[str]] = field(default_factory=dict)
    #: Indices of sentences predicted to be in informative sections.
    informative_sentences: List[int] = field(default_factory=list)

    @property
    def topic_text(self) -> str:
        return " ".join(self.topic)

    @property
    def levels(self) -> List[List[str]]:
        """All hierarchy levels, topic first."""
        levels = [[self.topic_text], list(self.attributes)]
        for index in sorted(self.extra_levels):
            levels.append(list(self.extra_levels[index]))
        return levels

    def render(self) -> str:
        """Human-readable, indented hierarchy (Fig. 1 style)."""
        lines = [f"Topic: {self.topic_text}"]
        for attribute in self.attributes:
            lines.append(f"  - {attribute}")
        for index in sorted(self.extra_levels):
            for item in self.extra_levels[index]:
                lines.append(f"{'  ' * index}- {item}")
        return "\n".join(lines)

    def word_count(self) -> int:
        """Total words in the brief (the paper: 'one or two dozen words')."""
        return len(self.topic) + sum(len(a.split()) for a in self.attributes)


@dataclass(frozen=True)
class Degradation:
    """One step down the graceful-degradation ladder, machine-readable.

    ``stage`` names the failing pipeline stage (``fetch`` / ``parse`` /
    ``render`` / ``topic`` / ``attributes`` / ``sections``), ``fallback`` the
    substitute the pipeline served instead, ``reason`` the underlying error.
    """

    stage: str
    fallback: str
    reason: str = ""

    def describe(self) -> str:
        text = f"{self.stage} -> {self.fallback}"
        return f"{text} ({self.reason})" if self.reason else text


@dataclass
class PartialBrief(Brief):
    """A :class:`Brief` that records which fallbacks produced it.

    The fault-tolerant pipeline always returns one of these instead of
    raising: whichever of topic / attributes / sections succeeded is filled
    in, and every fallback taken is listed in ``degradations``.  An empty
    ``degradations`` list means the brief is complete (no faults occurred),
    so ``PartialBrief`` is a drop-in ``Brief`` on the happy path.
    """

    degradations: List[Degradation] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Did every stage succeed first-class (no fallbacks taken)?"""
        return not self.degradations

    @property
    def degraded_stages(self) -> List[str]:
        return [d.stage for d in self.degradations]

    def describe_degradations(self) -> str:
        """Human-readable fallback report (empty string when complete)."""
        return "\n".join(d.describe() for d in self.degradations)
