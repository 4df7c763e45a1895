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

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .atomic import atomic_open
from .embeddings import EmbeddingTable
from .errors import ConfigError, ContractError, ParseError, SamplingError, TrainingError, numbered_lines
from .graph import (
    EQUIVALENCE_RELATION,
    NodeId,
    NodeKind,
    Split,
    Triplet,
    TripletStore,
)
from .ranking import CandidateOrder, ScoredRanking


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
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and > 0, got {self.margin}")
        for name in ("ranking_weight", "equivalence_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.ranking_weight + self.equivalence_weight <= 0:
            raise ConfigError("at least one loss weight must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives_per_positive < 1:
            raise ConfigError(f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}")
        if self.max_resample < 1:
            raise ConfigError(f"max_resample must be >= 1, got {self.max_resample}")


def normalize_rows(rows: np.ndarray) -> None:
    """Divide each row of ``rows`` by its norm, in place; a zero row stays as it is."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rows /= norms


def init_embeddings(store: TripletStore, config: TrainConfig) -> EmbeddingTable:
    """Draw initial embeddings uniformly from +-6/sqrt(D).

    The learned equivalence relation gets a row alongside the file
    relations.  With ``normalize_entities`` node rows start at unit length,
    which the trainer then maintains for every touched row.
    """
    dim = config.dimension
    bound = 6.0 / np.sqrt(dim)
    rng = np.random.default_rng(config.seed)
    node_ids = store.nodes
    relation_ids = tuple(
        sorted(set(store.relations) | {EQUIVALENCE_RELATION}, key=lambda r: r.sort_key)
    )
    node_matrix = rng.uniform(-bound, bound, size=(len(node_ids), dim))
    relation_matrix = rng.uniform(-bound, bound, size=(len(relation_ids), dim))
    if config.normalize_entities:
        normalize_rows(node_matrix)
    return EmbeddingTable(
        dimension=dim,
        node_ids=node_ids,
        relation_ids=relation_ids,
        node_matrix=node_matrix,
        relation_matrix=relation_matrix,
    )


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
        # A row's key (head * n_relations + relation) * n_nodes + tail is
        # injective for rows inside the table's bounds.
        self._train = {(h * self._n_relations + r) * self._n_nodes + t for h, r, t in train.tolist()}
        # Pools list node rows in name order, so a seeded rng draws the same
        # nodes as a draw over the store's name-sorted ids.
        all_nodes = range(self._n_nodes)
        by_kind = {
            kind: tuple(i for i, n in enumerate(table.node_ids) if n.kind is kind) for kind in NodeKind
        }
        self._pool_of = tuple(by_kind[n.kind] if type_consistent else all_nodes for n in table.node_ids)
        self._corrupt_heads = corrupt_heads
        self._max_resample = max_resample

    def _describe(self, head: int, relation: int, tail: int) -> str:
        nodes, relations = self._table.node_ids, self._table.relation_ids
        return f"({nodes[head]}, {relations[relation].name}, {nodes[tail]})"

    def sample(self, positives: np.ndarray, rng: random.Random) -> np.ndarray:
        """One corrupted triplet per row of ``positives``, drawn in row order."""
        if len(positives) and (positives.min() < 0 or np.any(positives.max(axis=0) >= self._bounds)):
            raise ContractError("positive triplet rows lie outside the embedding table")
        train, pool_of, n_nodes, n_relations = self._train, self._pool_of, self._n_nodes, self._n_relations
        corrupt_heads, random_, randrange = self._corrupt_heads, rng.random, rng.randrange
        negatives: list[tuple[int, int, int]] = []
        for head, relation, tail in positives.tolist():
            if (head * n_relations + relation) * n_nodes + tail not in train:
                raise ContractError(
                    f"positive triplet is not in the train split: {self._describe(head, relation, tail)}"
                )
            for _ in range(self._max_resample):
                replace_head = corrupt_heads and random_() < 0.5
                pool = pool_of[head if replace_head else tail]
                drawn = pool[randrange(len(pool))]
                candidate = (drawn, relation, tail) if replace_head else (head, relation, drawn)
                if (candidate[0] * n_relations + relation) * n_nodes + candidate[2] not in train:
                    negatives.append(candidate)
                    break
            else:
                raise SamplingError(
                    f"no corrupted triplet found for {self._describe(head, relation, tail)} "
                    f"after {self._max_resample} draws"
                )
        return np.array(negatives, dtype=np.intp).reshape(len(negatives), 3)


# Rows updated more often than this in one call of ``_scatter_rows`` are
# summed by a Python loop; the rest take one fancy ``+=`` pass per update.
_HUB_UPDATES = 16


def _scatter_rows(m: np.ndarray, idx: np.ndarray, vals: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``m[idx[i]] += vals[src[i]]`` for every ``i`` in index order.

    Bit-identical to ``np.add.at(m, idx, vals[src])``: every row receives
    its updates one at a time, in index order.  A stable sort groups each
    row's updates.  A row with more than ``_HUB_UPDATES`` of them is a
    running sum seeded with its old value; every other row takes its
    ``k``-th update in pass ``k``, one fancy ``+=`` over rows unique within
    the pass.  Returns the distinct rows updated, ascending.
    """
    if len(idx) == 0:
        return idx
    order = np.argsort(idx, kind="stable")
    rows, starts, counts = np.unique(idx[order], return_index=True, return_counts=True)
    hub = counts > _HUB_UPDATES
    for r, start, stop in zip(rows[hub].tolist(), starts[hub].tolist(), (starts + counts)[hub].tolist()):
        acc = m[r]
        for j in src[order[start:stop]].tolist():
            acc += vals[j]
    counts[hub] = 0
    for k in range(int(counts.max())):
        sel = order[starts[counts > k] + k]
        m[idx[sel]] += vals[src[sel]]
    return rows


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


def _update_block(
    node_m: np.ndarray, rel_m: np.ndarray, positives: np.ndarray, negatives: np.ndarray, margin: float,
    groups: AnnotationGroups, eq_rel_row: int, ranking_weight: float, equivalence_weight: float, step: float,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hinge loss, equivalence loss and every update row of one batch.

    Returns ``(l1, l2, block, node_idx, rel_idx, rel_src)``: the node
    matrix takes ``block[i]`` at ``node_idx[i]`` and the relation matrix
    takes ``block[rel_src[i]]`` at ``rel_idx[i]``.  With ``a`` active
    hinge pairs, ``block`` holds ``U`` at the positive heads, ``-U`` at
    the positive tails, ``-V`` at the negative heads and ``V`` at the
    negative tails (``a`` rows each), then ``W`` at the grouped synsets
    and ``-W`` repeated at each synset's sememes.  ``U`` is
    ``((2 * (h + r - t)) * ranking_weight) * step`` over the positives, in
    that order, ``V`` the same over the negatives, and ``W`` the same over
    the equivalence residuals with ``equivalence_weight``.  The relations
    take ``U``, ``-V`` and ``W`` (at ``eq_rel_row``).  With both weights
    and ``step`` at 1.0 the rows are the loss gradients.
    """
    diffs = []
    for h, r, t in (positives.T, negatives.T):
        d = node_m[h]
        d += rel_m[r]
        d -= node_m[t]
        diffs.append(d)
    diff_pos, diff_neg = diffs
    terms = margin + np.einsum("ij,ij->i", diff_pos, diff_pos) - np.einsum("ij,ij->i", diff_neg, diff_neg)
    active = terms > 0.0
    l1 = float(terms[active].sum())
    synset_rows, sememe_flat, offsets = groups
    a, g = int(np.count_nonzero(active)), len(synset_rows)
    block = np.empty((4 * a + g + len(sememe_flat), node_m.shape[1]))
    u, neg_u, neg_v, v, w, neg_w = np.split(block, [a, 2 * a, 3 * a, 4 * a, 4 * a + g])
    # Every index below is in range: mode="clip" only spares numpy the
    # buffered copy it makes for ``out=`` under the default mode.
    hinged = np.flatnonzero(active)
    np.take(diff_pos, hinged, axis=0, out=u, mode="clip")
    np.take(diff_neg, hinged, axis=0, out=v, mode="clip")
    l2 = 0.0
    if g:
        np.take(node_m, synset_rows, axis=0, out=w, mode="clip")
        w += rel_m[eq_rel_row]
        w -= np.add.reduceat(node_m[sememe_flat], offsets, axis=0)
        l2 = float(np.einsum("ij,ij->i", w, w).sum())
    for rows, weight in ((u, ranking_weight), (v, ranking_weight), (w, equivalence_weight)):
        rows *= 2.0
        rows *= weight
        rows *= step
    np.negative(u, out=neg_u)
    np.negative(v, out=neg_v)
    sizes = np.diff(offsets, append=len(sememe_flat))
    np.take(w, np.repeat(np.arange(g), sizes), axis=0, out=neg_w, mode="clip")
    np.negative(neg_w, out=neg_w)
    pos, neg = positives[active], negatives[active]
    node_idx = np.concatenate([pos[:, 0], pos[:, 2], neg[:, 0], neg[:, 2], synset_rows, sememe_flat])
    rel_idx = np.concatenate([pos[:, 1], neg[:, 1], np.full(g, eq_rel_row, dtype=np.intp)])
    rel_src = np.concatenate([np.arange(a), np.arange(2 * a, 3 * a), np.arange(4 * a, 4 * a + g)])
    return l1, l2, block, node_idx, rel_idx, rel_src


def loss_gradients(
    table: EmbeddingTable, positives: np.ndarray, negatives: np.ndarray, margin: float,
    annotations: Mapping[NodeId, frozenset[NodeId]],
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``(l1, l2, node_grad, rel_grad)``: the hinge loss ``[margin + d_pos -
    d_neg]+`` summed over aligned ``(n, 3)`` row pairs, the equivalence loss
    ``||b + r_eq - sum(sememes)||^2`` summed over annotated synsets, and the
    dense gradients of ``l1 + l2`` w.r.t. the node and relation matrices."""
    if positives.shape != negatives.shape:
        raise ContractError(
            f"positives and negatives must align pairwise: {len(positives)} vs {len(negatives)}"
        )
    groups = _annotation_groups(table, annotations)
    # With no groups, no row is written at the equivalence relation (0 here).
    eq_rel_row = table.relation_index(EQUIVALENCE_RELATION) if annotations else 0
    l1, l2, block, node_idx, rel_idx, rel_src = _update_block(
        table.node_matrix, table.relation_matrix, positives, negatives, margin, groups, eq_rel_row, 1.0, 1.0, 1.0
    )
    node_grad = np.zeros_like(table.node_matrix)
    rel_grad = np.zeros_like(table.relation_matrix)
    _scatter_rows(node_grad, node_idx, block, np.arange(len(node_idx)))
    _scatter_rows(rel_grad, rel_idx, block, rel_src)
    return l1, l2, node_grad, rel_grad


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
    with atomic_open(path) as fh:
        fh.write("epoch,l1,l2,total\n")
        for e in trace:
            fh.write("%d,%.17g,%.17g,%.17g\n" % (e.epoch, e.l1, e.l2, e.total))


def load_loss_trace(path: str | Path) -> tuple[EpochLoss, ...]:
    """Read what :func:`save_loss_trace` writes: epochs 1, 2, ... in order, each with
    finite losses >= 0; anything else is a :class:`ParseError` naming its line."""
    with numbered_lines(path) as lines:
        _, header = next(lines, (1, ""))
        if header != "epoch,l1,l2,total":
            raise ParseError("expected header epoch,l1,l2,total")
        out: list[EpochLoss] = []
        for _, line in lines:
            row = line.split(",")
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}")
            try:
                epoch, losses = int(row[0]), [float(field) for field in row[1:]]
            except ValueError as exc:
                raise ParseError("non-numeric field") from exc
            if epoch != len(out) + 1:
                raise ParseError(f"expected epoch {len(out) + 1}, got {epoch}")
            if not all(0 <= loss < math.inf for loss in losses):
                raise ParseError(f"losses must be finite and >= 0, got {','.join(row[1:])}")
            out.append(EpochLoss(epoch, *losses))
    return tuple(out)


def train(store: TripletStore, config: TrainConfig) -> TrainResult:
    """Mini-batch SGD over the train split.

    Each batch applies ``ranking_weight`` times the hinge gradients plus
    ``equivalence_weight`` times the equivalence gradients for exactly the
    annotated synsets in the batch's positives, as one block of rows added
    in ``np.add.at`` order, then, when ``normalize_entities`` is on,
    renormalizes every touched entity row to unit length.  The per-epoch
    trace records the batch losses as encountered, before each update.
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
            negatives = sampler.sample(expanded, rng)
            endpoints = batch[:, ::2] if config.equivalence_weight > 0 else batch[:0]
            l1, l2, block, node_idx, rel_idx, rel_src = _update_block(
                node_m, rel_m, expanded, negatives, config.margin, _groups_touching(groups, endpoints),
                eq_rel_row, config.ranking_weight, config.equivalence_weight, -config.learning_rate,
            )
            l1_sum += l1
            l2_sum += l2
            touched = _scatter_rows(node_m, node_idx, block, np.arange(len(node_idx)))
            _scatter_rows(rel_m, rel_idx, block, rel_src)

            if config.normalize_entities and len(touched):
                rows = node_m[touched]
                normalize_rows(rows)
                node_m[touched] = rows

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
    ``target + r_have`` and ``s``, so closer sememes rank higher.  Pass a
    :class:`CandidateOrder` to rank many targets over one candidate set.
    """
    if target.kind is not NodeKind.SYNSET:
        raise ContractError(f"prediction target must be a synset, got {target}")
    order = CandidateOrder.of(candidates)
    if not order.nodes:
        raise ContractError(f"empty candidate set for {target}")
    order.check_sememes()
    query = table.node_vector(target) + table.relation_vector(table.have_sememe_relation())
    # Looked up after the target, so a target without a row is named first.
    diff = table.node_matrix[table.node_rows(order.nodes)] - query[None, :]
    return ScoredRanking.from_array(target, order, -np.einsum("ij,ij->i", diff, diff))
