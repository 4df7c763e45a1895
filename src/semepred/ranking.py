"""Scored sememe rankings shared by all predictors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import UnknownIdError, ValidationError
from .graph import NodeId


@dataclass(frozen=True)
class ScoredRanking:
    """A target synset's candidate sememes ordered best-first.

    Entries are (sememe, score) pairs with finite scores, sorted by
    descending score with lexicographic name order breaking ties, so equal
    inputs always yield identical rankings.  Ranks are 1-based positions
    in that order.
    """

    target: NodeId
    entries: tuple[tuple[NodeId, float], ...]
    _rank_index: dict[NodeId, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        names = [s.name for s, _ in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"ranking for {self.target} repeats sememes: {dupes}")
        non_finite = [s.name for s, v in self.entries if not math.isfinite(v)]
        if non_finite:
            raise ValidationError(f"ranking for {self.target} has non-finite scores for {non_finite}")
        for i in range(1, len(self.entries)):
            prev, cur = self.entries[i - 1], self.entries[i]
            if cur[1] > prev[1] or (cur[1] == prev[1] and cur[0].name < prev[0].name):
                raise ValidationError(
                    f"ranking for {self.target} is out of order at position {i + 1}"
                )
        object.__setattr__(
            self, "_rank_index", {s: i + 1 for i, (s, _) in enumerate(self.entries)}
        )

    @classmethod
    def from_scores(cls, target: NodeId, scores: Mapping[NodeId, float]) -> "ScoredRanking":
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0].name))
        return cls(target, tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def rank(self, sememe: NodeId) -> int:
        try:
            return self._rank_index[sememe]
        except KeyError as exc:
            raise UnknownIdError(f"{sememe} is not ranked for {self.target}") from exc

    def score(self, sememe: NodeId) -> float:
        return self.entries[self.rank(sememe) - 1][1]

    def sememes(self) -> tuple[NodeId, ...]:
        return tuple(s for s, _ in self.entries)

    def __contains__(self, sememe: NodeId) -> bool:
        return sememe in self._rank_index
