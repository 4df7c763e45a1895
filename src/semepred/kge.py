"""Translational embedding trainer with a sememe-set equivalence constraint.

A triplet (h, r, t) is scored by the squared distance ``||h + r - t||^2``.
Training minimizes a weighted sum of two losses over the train split:

* a margin ranking loss that pushes observed triplets below corrupted
  ones by at least ``margin``;
* an equivalence loss that ties each annotated synset ``b``, shifted by a
  learned equivalence relation vector, to the sum of its sememe vectors.

Setting ``equivalence_weight`` to zero recovers the plain translational
baseline.  Sememes are predicted for a synset by completing the tail of
``(b, have_sememe, ?)`` and ranking candidates by ascending distance.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .embeddings import EmbeddingTable, init_embeddings
from .errors import ConfigError, ContractError, ParseError, SamplingError, TrainingError
from .graph import (
    EQUIVALENCE_RELATION,
    NodeId,
    NodeKind,
    Split,
    Triplet,
    TripletStore,
)
from .ranking import ScoredRanking


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedding training.

    Training runs a strictly sequential seeded update schedule, so results
    are reproducible for a fixed seed.
    """

    dimension: int = 800
    margin: float = 4.0
    ranking_weight: float = 0.95
    equivalence_weight: float = 0.05
    learning_rate: float = 0.01
    epochs: int = 1000
    batch_size: int = 1024
    negatives_per_positive: int = 1
    seed: int = 0
    normalize_entities: bool = True
    corrupt_heads: bool = False
    type_consistent_negatives: bool = False
    max_resample: int = 100

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.ranking_weight < 0 or self.equivalence_weight < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives_per_positive < 1:
            raise ConfigError(f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}")
        if self.max_resample < 1:
            raise ConfigError(f"max_resample must be >= 1, got {self.max_resample}")


def score_triplet(table: EmbeddingTable, triplet: Triplet) -> float:
    """Squared translated distance ``||h + r - t||^2``; zero iff h + r = t."""
    diff = (
        table.node_vector(triplet.head)
        + table.relation_vector(triplet.relation)
        - table.node_vector(triplet.tail)
    )
    return float(diff @ diff)


class NegativeSampler:
    """Draws corrupted counterparts for train triplets.

    Triplets are ``(head, relation, tail)`` rows of ``table``, one per row
    of an ``(n, 3)`` integer array, and ``train`` holds the train split in
    that form.  By default only the tail is replaced, uniformly over all
    nodes, and the draw is repeated until the corrupted triplet is absent
    from the train split.  ``corrupt_heads`` flips a fair coin per draw
    between head and tail replacement; ``type_consistent`` restricts the
    pool to nodes of the replaced endpoint's kind.
    """

    def __init__(
        self,
        table: EmbeddingTable,
        train: np.ndarray,
        corrupt_heads: bool = False,
        type_consistent: bool = False,
        max_resample: int = 100,
    ) -> None:
        if max_resample < 1:
            raise ConfigError(f"max_resample must be >= 1, got {max_resample}")
        self._table = table
        self._n_nodes, self._n_relations = len(table.node_ids), len(table.relation_ids)
        self._bounds = np.array([self._n_nodes, self._n_relations, self._n_nodes])
        self._train = {self._key(*row) for row in train.tolist()}
        # Pools list node rows in name order, so a seeded rng draws the same
        # nodes as a draw over the store's name-sorted ids.
        all_nodes = range(self._n_nodes)
        by_kind = {
            kind: tuple(i for i, n in enumerate(table.node_ids) if n.kind is kind) for kind in NodeKind
        }
        self._pool_of = tuple(by_kind[n.kind] if type_consistent else all_nodes for n in table.node_ids)
        self._corrupt_heads = corrupt_heads
        self._max_resample = max_resample

    def _key(self, head: int, relation: int, tail: int) -> int:
        # Injective for rows inside the table's bounds.
        return (head * self._n_relations + relation) * self._n_nodes + tail

    def _describe(self, head: int, relation: int, tail: int) -> str:
        nodes, relations = self._table.node_ids, self._table.relation_ids
        return f"({nodes[head]}, {relations[relation].name}, {nodes[tail]})"

    def sample(self, positives: np.ndarray, rng: random.Random) -> np.ndarray:
        """One corrupted triplet per row of ``positives``, drawn in row order."""
        if len(positives) and (positives.min() < 0 or np.any(positives.max(axis=0) >= self._bounds)):
            raise ContractError("positive triplet rows lie outside the embedding table")
        negatives: list[tuple[int, int, int]] = []
        for head, relation, tail in positives.tolist():
            if self._key(head, relation, tail) not in self._train:
                raise ContractError(
                    f"positive triplet is not in the train split: {self._describe(head, relation, tail)}"
                )
            for _ in range(self._max_resample):
                replace_head = self._corrupt_heads and rng.random() < 0.5
                pool = self._pool_of[head if replace_head else tail]
                drawn = pool[rng.randrange(len(pool))]
                candidate = (drawn, relation, tail) if replace_head else (head, relation, drawn)
                if self._key(*candidate) not in self._train:
                    negatives.append(candidate)
                    break
            else:
                raise SamplingError(
                    f"no corrupted triplet found for {self._describe(head, relation, tail)} "
                    f"after {self._max_resample} draws"
                )
        return np.array(negatives, dtype=np.intp).reshape(len(negatives), 3)


def _margin_contributions(
    node_m: np.ndarray,
    rel_m: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hinge loss plus sparse gradient rows for aligned pos/neg row batches.

    Returns (loss, node_indices, node_rows, relation_indices,
    relation_rows); duplicate indices accumulate under ``np.add.at``.
    """
    pos_h, pos_r, pos_t = positives.T
    neg_h, neg_r, neg_t = negatives.T
    diff_pos = node_m[pos_h] + rel_m[pos_r] - node_m[pos_t]
    diff_neg = node_m[neg_h] + rel_m[neg_r] - node_m[neg_t]
    d_pos = np.einsum("ij,ij->i", diff_pos, diff_pos)
    d_neg = np.einsum("ij,ij->i", diff_neg, diff_neg)
    terms = margin + d_pos - d_neg
    active = terms > 0.0
    loss = float(terms[active].sum())
    two_pos = 2.0 * diff_pos[active]
    two_neg = 2.0 * diff_neg[active]
    node_idx = np.concatenate([pos_h[active], pos_t[active], neg_h[active], neg_t[active]])
    node_rows = np.concatenate([two_pos, -two_pos, -two_neg, two_neg])
    rel_idx = np.concatenate([pos_r[active], neg_r[active]])
    rel_rows = np.concatenate([two_pos, -two_neg])
    return loss, node_idx, node_rows, rel_idx, rel_rows


def _equivalence_contributions(
    node_m: np.ndarray,
    rel_m: np.ndarray,
    eq_rel_row: int,
    synset_rows: np.ndarray,
    sememe_flat: np.ndarray,
    group_offsets: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equivalence loss plus sparse gradient rows for grouped synsets.

    ``sememe_flat`` concatenates each synset's sememe rows; ``group_offsets``
    holds each group's start, as consumed by ``np.add.reduceat``.
    """
    dim = node_m.shape[1]
    if len(synset_rows) == 0:
        empty_idx = np.array([], dtype=np.intp)
        empty_rows = np.empty((0, dim))
        return 0.0, empty_idx, empty_rows, empty_idx.copy(), empty_rows.copy()
    sums = np.add.reduceat(node_m[sememe_flat], group_offsets, axis=0)
    residual = node_m[synset_rows] + rel_m[eq_rel_row] - sums
    loss = float(np.einsum("ij,ij->i", residual, residual).sum())
    counts = np.diff(np.append(group_offsets, len(sememe_flat)))
    two_res = 2.0 * residual
    node_idx = np.concatenate([synset_rows, sememe_flat])
    node_rows = np.concatenate([two_res, -np.repeat(two_res, counts, axis=0)])
    rel_idx = np.full(len(synset_rows), eq_rel_row, dtype=np.intp)
    return loss, node_idx, node_rows, rel_idx, two_res.copy()


AnnotationGroups = tuple[np.ndarray, np.ndarray, np.ndarray]


def _annotation_groups(
    table: EmbeddingTable, annotations: Mapping[NodeId, frozenset[NodeId]]
) -> AnnotationGroups:
    """Annotated synset rows in ascending order, their name-sorted sememe
    rows concatenated, and each group's start in that concatenation."""
    synset_rows: list[int] = []
    sememe_flat: list[int] = []
    offsets: list[int] = []
    for synset in sorted(annotations, key=lambda n: n.name):
        sememes = sorted(annotations[synset], key=lambda n: n.name)
        if not sememes:
            raise ContractError(f"annotation set for {synset} is empty")
        synset_rows.append(table.node_index(synset))
        offsets.append(len(sememe_flat))
        sememe_flat.extend(table.node_index(s) for s in sememes)
    return (
        np.array(synset_rows, dtype=np.intp),
        np.array(sememe_flat, dtype=np.intp),
        np.array(offsets, dtype=np.intp),
    )


def _groups_touching(groups: AnnotationGroups, rows: np.ndarray) -> AnnotationGroups:
    """The groups whose synset row occurs in ``rows``, in the same layout."""
    synset_rows, sememe_flat, offsets = groups
    keep = np.isin(synset_rows, rows)
    counts = np.diff(offsets, append=len(sememe_flat))[keep]
    starts = np.cumsum(counts) - counts
    flat = sememe_flat[np.repeat(offsets[keep] - starts, counts) + np.arange(counts.sum())]
    return synset_rows[keep], flat, starts


def margin_ranking_loss(
    table: EmbeddingTable, positives: np.ndarray, negatives: np.ndarray, margin: float
) -> float:
    """Sum of ``[margin + d_pos - d_neg]+`` over aligned ``(n, 3)`` row pairs."""
    loss, _, _ = margin_loss_gradients(table, positives, negatives, margin)
    return loss


def margin_loss_gradients(
    table: EmbeddingTable, positives: np.ndarray, negatives: np.ndarray, margin: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Hinge loss with dense gradients w.r.t. the node and relation matrices."""
    if positives.shape != negatives.shape:
        raise ContractError(
            f"positives and negatives must align pairwise: {len(positives)} vs {len(negatives)}"
        )
    loss, node_idx, node_rows, rel_idx, rel_rows = _margin_contributions(
        table.node_matrix, table.relation_matrix, positives, negatives, margin
    )
    node_grad = np.zeros_like(table.node_matrix)
    rel_grad = np.zeros_like(table.relation_matrix)
    np.add.at(node_grad, node_idx, node_rows)
    np.add.at(rel_grad, rel_idx, rel_rows)
    return loss, node_grad, rel_grad


def equivalence_loss(
    table: EmbeddingTable, annotations: Mapping[NodeId, frozenset[NodeId]]
) -> float:
    """Sum over annotated synsets of ``||b + r_eq - sum(sememes)||^2``."""
    loss, _, _ = equivalence_loss_gradients(table, annotations)
    return loss


def equivalence_loss_gradients(
    table: EmbeddingTable, annotations: Mapping[NodeId, frozenset[NodeId]]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Equivalence loss with dense gradients w.r.t. both matrices."""
    eq_rel_row = table.relation_index(EQUIVALENCE_RELATION)
    loss, node_idx, node_rows, rel_idx, rel_rows = _equivalence_contributions(
        table.node_matrix, table.relation_matrix, eq_rel_row, *_annotation_groups(table, annotations)
    )
    node_grad = np.zeros_like(table.node_matrix)
    rel_grad = np.zeros_like(table.relation_matrix)
    np.add.at(node_grad, node_idx, node_rows)
    np.add.at(rel_grad, rel_idx, rel_rows)
    return loss, node_grad, rel_grad


@dataclass(frozen=True)
class EpochLoss:
    epoch: int
    l1: float
    l2: float
    total: float


@dataclass(frozen=True)
class TrainResult:
    table: EmbeddingTable
    trace: tuple[EpochLoss, ...]


def save_loss_trace(trace: Iterable[EpochLoss], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,l1,l2,total\n")
        for e in trace:
            fh.write("%d,%.17g,%.17g,%.17g\n" % (e.epoch, e.l1, e.l2, e.total))


def load_loss_trace(path: str | Path) -> tuple[EpochLoss, ...]:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["epoch", "l1", "l2", "total"]:
            raise ParseError(f"{path}:1: expected header epoch,l1,l2,total")
        out: list[EpochLoss] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                out.append(EpochLoss(int(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
    return tuple(out)


def train(store: TripletStore, config: TrainConfig) -> TrainResult:
    """Mini-batch SGD over the train split.

    Each batch applies ``ranking_weight`` times the hinge gradients plus
    ``equivalence_weight`` times the equivalence gradients for exactly the
    annotated synsets appearing in the batch's positives, then, when
    ``normalize_entities`` is on, renormalizes every touched entity row so
    all entity vectors stay at unit length.  The per-epoch trace records
    the batch losses as encountered, before each batch's update.
    """
    ordered = sorted(store.triplets_in(Split.TRAIN), key=lambda t: t.sort_key)
    if not ordered:
        raise ContractError("cannot train: the train split is empty")
    table = init_embeddings(store, config)
    node_m = table.node_matrix
    rel_m = table.relation_matrix
    positives = table.triplet_rows(ordered)
    rng = random.Random(config.seed)
    sampler = NegativeSampler(
        table,
        positives,
        corrupt_heads=config.corrupt_heads,
        type_consistent=config.type_consistent_negatives,
        max_resample=config.max_resample,
    )
    groups = _annotation_groups(table, store.annotation_map(Split.TRAIN))
    eq_rel_row = table.relation_index(EQUIVALENCE_RELATION)

    order = list(range(len(positives)))
    trace: list[EpochLoss] = []
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        l1_sum = 0.0
        l2_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = positives[order[start : start + config.batch_size]]
            expanded = np.repeat(batch, config.negatives_per_positive, axis=0)
            l1, n_idx1, n_rows1, r_idx1, r_rows1 = _margin_contributions(
                node_m, rel_m, expanded, sampler.sample(expanded, rng), config.margin
            )
            endpoints = batch[:, ::2] if config.equivalence_weight > 0 else batch[:0]
            l2, n_idx2, n_rows2, r_idx2, r_rows2 = _equivalence_contributions(
                node_m, rel_m, eq_rel_row, *_groups_touching(groups, endpoints)
            )
            l1_sum += l1
            l2_sum += l2

            node_idx = np.concatenate([n_idx1, n_idx2])
            node_rows = np.concatenate(
                [config.ranking_weight * n_rows1, config.equivalence_weight * n_rows2]
            )
            rel_idx = np.concatenate([r_idx1, r_idx2])
            rel_rows = np.concatenate(
                [config.ranking_weight * r_rows1, config.equivalence_weight * r_rows2]
            )
            np.add.at(node_m, node_idx, -config.learning_rate * node_rows)
            np.add.at(rel_m, rel_idx, -config.learning_rate * rel_rows)

            if config.normalize_entities and len(node_idx):
                touched = np.unique(node_idx)
                norms = np.linalg.norm(node_m[touched], axis=1, keepdims=True)
                norms[norms == 0.0] = 1.0
                node_m[touched] = node_m[touched] / norms

        total = config.ranking_weight * l1_sum + config.equivalence_weight * l2_sum
        if not (math.isfinite(l1_sum) and math.isfinite(l2_sum) and math.isfinite(total)):
            raise TrainingError(f"loss became non-finite at epoch {epoch}")
        trace.append(EpochLoss(epoch, l1_sum, l2_sum, total))
    return TrainResult(table=table, trace=tuple(trace))


def rank_sememes(
    table: EmbeddingTable, target: NodeId, candidates: Iterable[NodeId]
) -> ScoredRanking:
    """Rank candidate sememes for ``target`` by tail completion.

    The score of sememe ``s`` is the negated squared distance between
    ``target + r_have`` and ``s``, so closer sememes rank higher.
    """
    if target.kind is not NodeKind.SYNSET:
        raise ContractError(f"prediction target must be a synset, got {target}")
    unique = sorted(set(candidates), key=lambda n: n.name)
    if not unique:
        raise ContractError(f"empty candidate set for {target}")
    for s in unique:
        if s.kind is not NodeKind.SEMEME:
            raise ContractError(f"candidate {s} is not a sememe")
    query = table.node_vector(target) + table.relation_vector(table.have_sememe_relation())
    rows = table.node_matrix[[table.node_index(s) for s in unique]]
    diff = rows - query[None, :]
    scores = -np.einsum("ij,ij->i", diff, diff)
    return ScoredRanking.from_scores(
        target, {s: float(v) for s, v in zip(unique, scores)}
    )
