"""Scored sememe rankings shared by all predictors."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
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

    def __post_init__(self) -> None:
        names = [s.name for s, _ in self.entries]
        if len({s for s, _ in self.entries}) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"ranking for {self.target} repeats sememes: {dupes}")
        non_finite = [s.name for s, v in self.entries if not math.isfinite(v)]
        if non_finite:
            raise ValidationError(f"ranking for {self.target} has non-finite scores for {non_finite}")
        for i in range(1, len(self.entries)):
            prev, cur = self.entries[i - 1][1], self.entries[i][1]
            if cur > prev or (cur == prev and names[i] < names[i - 1]):
                raise ValidationError(
                    f"ranking for {self.target} is out of order at position {i + 1}"
                )

    @classmethod
    def from_scores(cls, target: NodeId, scores: Mapping[NodeId, float]) -> "ScoredRanking":
        """The ranking of ``scores``, sorted here.

        Mapping keys are unique and the sort below produces the order, so
        only the non-finite check of the constructor runs; when it fails,
        the constructor is called to name the offending sememes.
        """
        ranked = sorted(scores, key=operator.attrgetter("name"))
        # A stable descending sort keeps equal scores in name order.
        ranked.sort(key=scores.__getitem__, reverse=True)
        entries = tuple(zip(ranked, map(scores.__getitem__, ranked)))
        if not all(map(math.isfinite, scores.values())):
            return cls(target, entries)
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "target", target)
        object.__setattr__(ranking, "entries", entries)
        return ranking

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _rank_index(self) -> dict[NodeId, int]:
        return {s: i for i, (s, _) in enumerate(self.entries, start=1)}

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
