"""Similarity-based sememe recommendation.

Scores sememes for a target synset by walking annotated synsets in
descending cosine similarity and crediting each neighbor's sememes with
``cos(target, neighbor) * decay ** rank``.  The geometric decay makes far
neighbors negligible, which justifies an optional neighbor cap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import read_vector_file, write_vector_file
from .errors import ConfigError, ContractError, CoverageError, ValidationError
from .graph import NodeId, NodeKind
from .ranking import ScoredRanking

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SrConfig:
    """Aggregation knobs: rank decay in (0, 1) and an optional neighbor cap."""

    decay: float = 0.8
    neighbor_cap: int | None = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"decay must lie strictly in (0, 1), got {self.decay}")
        if self.neighbor_cap is not None and self.neighbor_cap < 1:
            raise ConfigError(f"neighbor_cap must be >= 1 or None, got {self.neighbor_cap}")


class SemanticVectorStore:
    """Dense semantic vectors keyed by synset id.

    Vectors come from an external resource, so synsets unknown to the
    triplet store are kept but flagged; zero vectors are rejected because
    cosine similarity is undefined for them.
    """

    def __init__(self, dimension: int, vectors: Mapping[NodeId, np.ndarray]) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        zero_ids = []
        for node, vec in vectors.items():
            if node.kind is not NodeKind.SYNSET:
                raise ValidationError(f"semantic vectors are keyed by synset ids, got {node}")
            if vec.shape != (dimension,):
                raise ValidationError(
                    f"vector for {node} has shape {vec.shape}, expected ({dimension},)"
                )
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"vector for {node} has non-finite components")
            if not np.any(vec):
                zero_ids.append(node.name)
        if zero_ids:
            raise ValidationError(f"zero vectors are not allowed: {sorted(zero_ids)}")
        self._dimension = dimension
        self._vectors = {n: np.array(v, dtype=np.float64) for n, v in vectors.items()}
        self.unknown: tuple[NodeId, ...] = ()

    @property
    def dimension(self) -> int:
        return self._dimension

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._vectors

    def synsets(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self._vectors, key=lambda n: n.name))

    def vector(self, node: NodeId) -> np.ndarray:
        try:
            return self._vectors[node]
        except KeyError as exc:
            raise CoverageError(f"no semantic vector for {node}") from exc

    @classmethod
    def load(
        cls, path: str | Path, known_synsets: Iterable[NodeId] | None = None
    ) -> "SemanticVectorStore":
        dimension, rows = read_vector_file(path)
        vectors = {NodeId.parse(name): vec for name, vec in rows}
        store = cls(dimension, vectors)
        if known_synsets is not None:
            known = set(known_synsets)
            unknown = tuple(sorted((n for n in vectors if n not in known), key=lambda n: n.name))
            store.unknown = unknown
            if unknown:
                logger.warning(
                    "%d semantic vectors have no synset in the triplet store (e.g. %s)",
                    len(unknown),
                    unknown[0],
                )
        return store

    def save(self, path: str | Path) -> None:
        write_vector_file(
            path, self._dimension, ((n.name, self._vectors[n]) for n in self.synsets())
        )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def rank_neighbors(
    store: SemanticVectorStore, target: NodeId, annotated: Iterable[NodeId]
) -> list[tuple[NodeId, float]]:
    """Annotated synsets with vectors, sorted by cosine to ``target``.

    Descending cosine with lexicographic tie-breaking; the target never
    appears in its own neighbor list.  Raises :class:`CoverageError` when
    the target has no vector or no annotated synset does, in which case
    the caller falls back to translation-only prediction.
    """
    query = store.vector(target)
    candidates = sorted(
        (n for n in set(annotated) if n != target and n in store), key=lambda n: n.name
    )
    if not candidates:
        raise CoverageError(f"no annotated synset has a semantic vector to compare with {target}")
    matrix = np.stack([store.vector(n) for n in candidates])
    sims = matrix @ query / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(query))
    pairs = [(n, float(s)) for n, s in zip(candidates, sims)]
    pairs.sort(key=lambda p: (-p[1], p[0].name))
    return pairs


def score_sememes(
    target: NodeId,
    neighbors: Sequence[tuple[NodeId, float]],
    annotations: Mapping[NodeId, frozenset[NodeId]],
    config: SrConfig,
    candidates: Iterable[NodeId] | None = None,
) -> ScoredRanking:
    """Aggregate neighbor memberships into a sememe ranking for ``target``.

    Each neighbor at 1-based rank ``r`` contributes ``cos * decay**r`` to
    every sememe it is annotated with; negative cosines are clamped to
    zero so every term stays nonnegative.  ``candidates`` widens the
    ranked universe; sememes never seen among neighbors score 0 and sort
    after all positive scores.
    """
    if not neighbors:
        raise ContractError(f"no neighbors to aggregate for {target}")
    capped = neighbors if config.neighbor_cap is None else neighbors[: config.neighbor_cap]
    scores: dict[NodeId, float] = {}
    if candidates is not None:
        for s in candidates:
            if s.kind is not NodeKind.SEMEME:
                raise ContractError(f"candidate {s} is not a sememe")
            scores[s] = 0.0
    for rank, (neighbor, cos) in enumerate(capped, start=1):
        if neighbor not in annotations:
            raise ContractError(f"neighbor {neighbor} has no annotation entry")
        weight = max(cos, 0.0) * config.decay**rank
        for s in annotations[neighbor]:
            scores[s] = scores.get(s, 0.0) + weight
    return ScoredRanking.from_scores(target, scores)


def recommend(
    store: SemanticVectorStore,
    target: NodeId,
    annotations: Mapping[NodeId, frozenset[NodeId]],
    config: SrConfig,
    candidates: Iterable[NodeId] | None = None,
) -> ScoredRanking:
    """Neighbor ranking and sememe scoring in one call."""
    neighbors = rank_neighbors(store, target, annotations.keys())
    return score_sememes(target, neighbors, annotations, config, candidates)
