"""Reciprocal-rank fusion of the two sememe predictors and threshold selection.

The fused score of a sememe is a weighted sum of the reciprocals of its
ranks under the similarity recommender and the translation ranker, over
whichever of the two rankings are present.  Only ranks enter the fusion,
so it is invariant to monotone rescaling of either model's raw scores.
The final predicted set keeps every sememe scoring strictly above the
threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, ContractError, ParseError, ValidationError, numbered_lines
from .graph import NodeId
from .ranking import ScoredRanking


class Provenance(enum.Enum):
    """Which model produced a prediction: the similarity recommender, the
    translation ranker (also the fallback when similarity coverage is
    missing), or the fusion of both."""

    SIMILARITY = "similarity"
    TRANSLATION = "translation"
    FUSED = "fused"


@dataclass(frozen=True)
class FusionConfig:
    similarity_weight: float = 0.45
    translation_weight: float = 0.55
    threshold: float = 0.32

    def __post_init__(self) -> None:
        for name in ("similarity_weight", "translation_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not math.isfinite(self.threshold):
            raise ConfigError(f"threshold must be finite, got {self.threshold}")
        if self.similarity_weight + self.translation_weight <= 0:
            raise ConfigError("at least one fusion weight must be positive")


@dataclass(frozen=True)
class PredictionResult:
    target: NodeId
    ranking: ScoredRanking
    selected: frozenset[NodeId]
    provenance: Provenance

    def __post_init__(self) -> None:
        if self.target != self.ranking.target:
            raise ValidationError(
                f"prediction target {self.target} does not match ranking target {self.ranking.target}"
            )
        extra = sorted(s.name for s in self.selected if s not in self.ranking)
        if extra:
            raise ValidationError(f"selected sememes missing from ranking: {extra}")


def fuse(
    similarity: ScoredRanking | None,
    translation: ScoredRanking | None,
    config: FusionConfig,
) -> ScoredRanking:
    """Sum ``weight / rank`` over the rankings given, similarity first.

    With one ranking the result keeps its ordering at ``weight / rank``,
    which puts a single model on the fusion's scale, so one selection
    threshold applies whichever rankings are present.
    """
    present = [
        (ranking, weight, name)
        for ranking, weight, name in (
            (similarity, config.similarity_weight, "similarity"),
            (translation, config.translation_weight, "translation"),
        )
        if ranking is not None
    ]
    if not present:
        raise ContractError("fusion needs at least one ranking")
    if similarity is not None and translation is not None:
        if similarity.candidates.nodes != translation.candidates.nodes:
            sim_set, tr_set = set(similarity.candidates.nodes), set(translation.candidates.nodes)
            only_sim = sorted(s.name for s in sim_set - tr_set)
            only_tr = sorted(s.name for s in tr_set - sim_set)
            raise ContractError(
                f"candidate sets differ between the two rankings for {translation.target}: "
                f"similarity-only {only_sim[:3]}, translation-only {only_tr[:3]}"
            )
        if similarity.target != translation.target:
            raise ContractError(
                f"rankings describe different targets: {similarity.target} vs {translation.target}"
            )
    elif present[0][1] == 0:
        ranking, _, name = present[0]
        raise ConfigError(
            f"{ranking.target} has only a {name} ranking and fusion.{name}_weight is 0, "
            f"so every sememe would score 0"
        )
    # Both rankings share one name-ordered candidate tuple, so their rank
    # arrays line up element for element.
    (first, weight, _), *rest = present
    scores = weight / first.ranks
    for ranking, weight, _ in rest:
        scores += weight / ranking.ranks
    return ScoredRanking.from_array(first.target, first.candidates, scores)


def threshold_select(
    ranking: ScoredRanking, threshold: float, provenance: Provenance
) -> PredictionResult:
    """Keep sememes scoring strictly above ``threshold``; the full ranking
    is preserved for rank-based metrics."""
    # Scores fall along the ranking, so the kept sememes are its head.
    kept = ranking.order[: np.count_nonzero(ranking.scores > threshold)].tolist()
    nodes = ranking.candidates.nodes
    return PredictionResult(ranking.target, ranking, frozenset([nodes[i] for i in kept]), provenance)


# -- prediction dump --------------------------------------------------
#
# One line per target synset:
#   synset-id<TAB>s1:score1,s2:score2,...<TAB>selected-list
# The middle field lists the full ranking best-first; the last field the
# selected sememes in ranking order, empty when nothing passes the
# threshold.  Scores use 17 significant digits and round-trip exactly.


def save_predictions(results: Iterable[PredictionResult], path: str | Path) -> None:
    formats: dict[int, str] = {}
    with atomic_open(path) as fh:
        for result in results:
            ranking = result.ranking
            n = len(ranking)
            if n not in formats:
                formats[n] = "%s\t" + ",".join(["%s:%.17g"] * n) + "\t%s\n"
            names = ranking.candidates.names
            fields: list[object] = [None] * (2 * n)
            fields[0::2] = [names[i] for i in ranking.order.tolist()]
            fields[1::2] = ranking.scores[ranking.order].tolist()
            chosen = ",".join(s.name for s in sorted(result.selected, key=ranking.rank))
            fh.write(formats[n] % (result.target.name, *fields, chosen))


def load_predictions(path: str | Path) -> list[PredictionResult]:
    """Read a prediction dump; the file does not record provenance, so
    every row is labelled fused.  A target listed twice is a
    :class:`ParseError` naming both lines."""
    results: list[PredictionResult] = []
    first_line: dict[NodeId, int] = {}
    interned = NodeId._interned
    # Rows usually rank one candidate set, so each reuses the last row's order.
    candidates = None
    with numbered_lines(path) as lines:
        for lineno, line in lines:
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 TAB-separated fields, got {len(fields)}")
            try:
                target = NodeId(fields[0])
                if first_line.setdefault(target, lineno) != lineno:
                    raise ParseError(f"duplicate prediction for {target}, first on line {first_line[target]}")
                items = fields[1].split(",") if fields[1] else []
                parts = [item.rpartition(":") for item in items]
                try:
                    scores = np.array([float(score) for _, _, score in parts], dtype=np.float64)
                    nodes = [interned.get(name) or NodeId(name) for name, _, _ in parts]
                except (ValueError, ValidationError):
                    _raise_first_bad_item(items)
                ranking = ScoredRanking.from_ranked(target, nodes, scores, candidates)
                candidates = ranking.candidates
                selected = frozenset(NodeId(name) for name in fields[2].split(",") if name)
                results.append(PredictionResult(target, ranking, selected, Provenance.FUSED))
            except ValidationError as exc:
                raise ParseError(str(exc)) from exc
    return results


def _raise_first_bad_item(items: list[str]) -> None:
    """Raise the error of the first ``sememe:score`` item that does not parse."""
    for item in items:
        name, _, score = item.rpartition(":")
        try:
            float(score)
        except ValueError as exc:
            raise ParseError(f"bad score in {item!r}") from exc
        NodeId(name)
