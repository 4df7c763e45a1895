"""Similarity-based sememe recommendation.

Scores sememes for a target synset by walking annotated synsets in
descending cosine similarity and crediting each neighbor's sememes with
``cos(target, neighbor) * decay ** rank``.  The geometric decay makes far
neighbors negligible, which justifies an optional neighbor cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import read_vector_file, stack_rows, write_vector_file
from .errors import ConfigError, ContractError, CoverageError, ParseError, ValidationError
from .graph import NodeId, NodeKind
from .ranking import CandidateOrder, ScoredRanking

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
    triplet store are kept but flagged; zero vectors, and vectors whose
    norm overflows or underflows float64, are rejected because cosine
    similarity is undefined for them.  The vectors are held as one
    read-only matrix with a row per synset in name order, next to its row
    norms, both computed once here and shared by every neighbour search.
    The rows of the last annotated set searched are kept gathered, since
    one prediction run searches the same set for every target.
    """

    def __init__(self, dimension: int, vectors: Mapping[NodeId, np.ndarray]) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        for node, vec in vectors.items():
            if node.kind is not NodeKind.SYNSET:
                raise ValidationError(f"semantic vectors are keyed by synset ids, got {node}")
            if vec.shape != (dimension,):
                raise ValidationError(
                    f"vector for {node} has shape {vec.shape}, expected ({dimension},)"
                )
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"vector for {node} has non-finite components")
        self._dimension = dimension
        ordered = sorted(vectors.items(), key=lambda item: item[0].name)
        self._ids = tuple(node for node, _ in ordered)
        self._row = {node: i for i, node in enumerate(self._ids)}
        self._matrix = stack_rows(ordered, dimension)
        self._matrix.flags.writeable = False
        self._norms = _row_norms(self._matrix)
        what, rejected = _rejected_rows(self._matrix, self._norms)
        if rejected.any():
            raise ValidationError(
                f"{what} are not allowed: {[self._ids[i].name for i in np.flatnonzero(rejected)]}"
            )
        self.unknown: tuple[NodeId, ...] = ()
        self._block: tuple[frozenset[NodeId], np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self._dimension

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._row

    def synsets(self) -> tuple[NodeId, ...]:
        return self._ids

    def _annotated_block(self, annotated: Iterable[NodeId]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, vectors and norms of the annotated synsets that have a
        vector, in name order.  Kept for the last annotated set, compared
        by value, so a changed set is gathered again."""
        key = frozenset(annotated)
        if self._block is None or self._block[0] != key:
            rows = np.array(sorted(self._row[n] for n in key if n in self._row), dtype=np.intp)
            self._block = key, rows, self._matrix[rows], self._norms[rows]
        return self._block[1:]

    def vector(self, node: NodeId) -> np.ndarray:
        """The synset's row, a read-only view."""
        try:
            return self._matrix[self._row[node]]
        except KeyError as exc:
            raise CoverageError(f"no semantic vector for {node}") from exc

    @classmethod
    def load(
        cls, path: str | Path, known_synsets: Iterable[NodeId] | None = None
    ) -> "SemanticVectorStore":
        dimension, rows, lines = read_vector_file(path, _parse_synset_id)
        try:
            store = cls(dimension, dict(rows))
        except ValidationError as exc:
            # The reader has checked ids, shapes and components, so a
            # whole-row check failed: name the first such row in the file.
            matrix = stack_rows(rows, dimension)
            _, rejected = _rejected_rows(matrix, _row_norms(matrix))
            raise ParseError(f"{path}:{lines[int(np.argmax(rejected))]}: {exc}") from exc
        if known_synsets is not None:
            known = set(known_synsets)
            store.unknown = tuple(n for n in store._ids if n not in known)
            if store.unknown:
                logger.warning(
                    "%d semantic vectors have no synset in the triplet store (e.g. %s)",
                    len(store.unknown),
                    store.unknown[0],
                )
        return store

    def save(self, path: str | Path) -> None:
        write_vector_file(path, self._dimension, zip((n.name for n in self._ids), self._matrix))


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    # Finite nonzero components can still square past the float64 range.
    with np.errstate(over="ignore"):
        return np.linalg.norm(matrix, axis=1)


def _rejected_rows(matrix: np.ndarray, norms: np.ndarray) -> tuple[str, np.ndarray]:
    """The rows no cosine exists for, as (what they are, row mask): zero
    rows if there are any, else rows whose norm overflowed or underflowed."""
    zero = ~matrix.any(axis=1)
    if zero.any():
        return "zero vectors", zero
    return "vectors whose norm overflows or underflows", ~(np.isfinite(norms) & (norms > 0))


def _parse_synset_id(text: str) -> NodeId:
    node = NodeId.parse(text)
    if node.kind is not NodeKind.SYNSET:
        raise ValidationError(f"semantic vectors are keyed by synset ids, got {node}")
    return node


def rank_neighbors(
    store: SemanticVectorStore,
    target: NodeId,
    annotated: Iterable[NodeId],
    limit: int | None = None,
) -> list[tuple[NodeId, float]]:
    """Annotated synsets with vectors, sorted by cosine to ``target``.

    Descending cosine with lexicographic tie-breaking; the target never
    appears in its own neighbor list.  One matrix-vector product over the
    store's gathered rows for ``annotated`` computes every cosine.  With a
    ``limit``, only the first ``limit`` neighbors are returned, the same
    ones as the head of the full list.  Raises :class:`CoverageError` when
    the target has no vector or no annotated synset does, in which case
    the caller falls back to translation-only prediction.
    """
    if limit is not None and limit < 1:
        raise ContractError(f"limit must be >= 1 or None, got {limit}")
    query = store.vector(target)
    rows, block, norms = store._annotated_block(annotated)
    sims = block @ query / (norms * np.linalg.norm(query))
    own = store._row[target]
    at = np.searchsorted(rows, own)
    if at < rows.size and rows[at] == own:
        rows, sims = np.delete(rows, at), np.delete(sims, at)
    if not rows.size:
        raise CoverageError(f"no annotated synset has a semantic vector to compare with {target}")
    if limit is not None and limit < rows.size:
        # Keep every row tied with the limit-th cosine, so that name order
        # decides among them as in the full sort; written as "not below"
        # so that a NaN cosine is kept and sorted last there too.
        cut = -np.partition(-sims, limit - 1)[limit - 1]
        keep = np.flatnonzero(~(sims < cut))
        rows, sims = rows[keep], sims[keep]
    # Rows are in name order, so a stable sort breaks cosine ties by name.
    order = np.argsort(-sims, kind="stable")[:limit]
    ids = store._ids
    return [(ids[row], cos) for row, cos in zip(rows[order].tolist(), sims[order].tolist())]


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
    if candidates is not None:
        order = CandidateOrder.of(candidates)
        if not order.all_sememes:
            bad = next(s for s in order if s.kind is not NodeKind.SEMEME)
            raise ContractError(f"candidate {bad} is not a sememe")
    capped = neighbors if config.neighbor_cap is None else neighbors[: config.neighbor_cap]
    try:
        groups = [annotations[neighbor] for neighbor, _ in capped]
    except KeyError:
        missing = next(neighbor for neighbor, _ in capped if neighbor not in annotations)
        raise ContractError(f"neighbor {missing} has no annotation entry") from None
    weights = [max(cos, 0.0) * config.decay**rank for rank, (_, cos) in enumerate(capped, start=1)]
    # One vote per annotated sememe, in the order the neighbours cast them.
    voters = [*chain.from_iterable(groups)]
    votes = np.repeat(weights, [*map(len, groups)])
    if candidates is None:
        order = CandidateOrder(voters)
    try:
        at = [*map(order.position.__getitem__, voters)]
    except KeyError:
        # Annotated sememes outside the candidates widen the ranking.
        order = CandidateOrder([*order.nodes, *voters])
        at = [*map(order.position.__getitem__, voters)]
    scores = np.zeros(len(order))
    # np.add.at adds unbuffered in index order, so each sum is formed from
    # 0.0 in the order the votes were cast.
    np.add.at(scores, np.array(at, dtype=np.intp), votes)
    return ScoredRanking.from_array(target, order, scores)


def recommend(
    store: SemanticVectorStore,
    target: NodeId,
    annotations: Mapping[NodeId, frozenset[NodeId]],
    config: SrConfig,
    candidates: Iterable[NodeId] | None = None,
) -> ScoredRanking:
    """Neighbor ranking and sememe scoring in one call."""
    neighbors = rank_neighbors(store, target, annotations.keys(), limit=config.neighbor_cap)
    return score_sememes(target, neighbors, annotations, config, candidates)
