"""The trainer's row updates against ``np.add.at``.

``train`` writes each batch's update rows once into one block and applies
them to both matrices with ``_scatter_rows``.  ``_reference_train`` below
is the earlier loop, which built each batch's rows with
``_reference_margin_contributions`` and
``_reference_equivalence_contributions``, scaled them into fresh arrays
and applied every update with ``np.add.at``.  These references are kept
here, apart from ``kge``, so a change to the trainer cannot change both
sides of the comparison.  Every element receives the same additions in
the same order, so the matrices and traces must be equal bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NO_PAIRS
from semepred import Split, SynthConfig, TrainConfig, generate, train
from semepred.embeddings import EmbeddingTable
from semepred.graph import EQUIVALENCE_RELATION, sememe_id, synset_id
from semepred.kge import (
    _HUB_UPDATES,
    EpochLoss,
    NegativeSampler,
    _annotation_groups,
    _groups_touching,
    _scatter_rows,
    _update_block,
    init_embeddings,
    loss_gradients,
)

KERNELS = (_scatter_rows,)


def _reference_margin_contributions(node_m, rel_m, positives, negatives, margin):
    """Hinge loss plus sparse gradient rows for aligned pos/neg row batches:
    (loss, node_indices, node_rows, relation_indices, relation_rows)."""
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


def _reference_equivalence_contributions(node_m, rel_m, eq_rel_row, synset_rows, sememe_flat, group_offsets):
    """Equivalence loss plus sparse gradient rows for grouped synsets, in
    the layout of ``_reference_margin_contributions``."""
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


def _reference_train(store, config):
    ordered = sorted(store.triplets_in(Split.TRAIN), key=lambda t: t.sort_key)
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
    trace = []
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        l1_sum = 0.0
        l2_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = positives[order[start : start + config.batch_size]]
            expanded = np.repeat(batch, config.negatives_per_positive, axis=0)
            l1, n_idx1, n_rows1, r_idx1, r_rows1 = _reference_margin_contributions(
                node_m, rel_m, expanded, sampler.sample(expanded, rng), config.margin
            )
            endpoints = batch[:, ::2] if config.equivalence_weight > 0 else batch[:0]
            l2, n_idx2, n_rows2, r_idx2, r_rows2 = _reference_equivalence_contributions(
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
        trace.append(EpochLoss(epoch, l1_sum, l2_sum, total))
    return table, tuple(trace)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def c5_store():
    """A small store of the C5 shape: singleton gold sets, many twins."""
    config = SynthConfig(
        n_synsets=60,
        n_sememes=12,
        min_sememes_per_synset=1,
        max_sememes_per_synset=1,
        twin_fraction=0.9,
        n_antonym_pairs=3,
        n_hypernym_edges=4,
        vector_dim=8,
        seed=5,
    )
    store, _, _ = generate(config)
    return store.split_dataset((0.8, 0.1, 0.1), seed=5)


@pytest.fixture(scope="module")
def multi_store():
    """Gold sets of 1 to 6 sememes, so equivalence groups vary in size."""
    config = SynthConfig(
        n_synsets=80,
        n_sememes=16,
        min_sememes_per_synset=1,
        max_sememes_per_synset=6,
        n_antonym_pairs=3,
        n_hypernym_edges=6,
        vector_dim=8,
        seed=6,
    )
    store, _, _ = generate(config)
    return store.split_dataset((0.8, 0.1, 0.1), seed=6)


BASE = TrainConfig(dimension=64, epochs=3, batch_size=16, seed=5)
GRID = {
    "d64": {},
    "d1": {"dimension": 1},
    "d800": {"dimension": 800},
    "heads-typed": {"corrupt_heads": True, "type_consistent_negatives": True},
    "two-negatives": {"negatives_per_positive": 2},
    "no-equivalence": {"equivalence_weight": 0.0},
    "no-ranking": {"ranking_weight": 0.0},
    "unnormalized": {"normalize_entities": False},
    "batch-1": {"batch_size": 1, "epochs": 1},
    "batch-512": {"batch_size": 512},
    "one-batch": {"batch_size": 100_000},
}


@pytest.mark.parametrize("store_name", ["toy", "c5", "multi"])
@pytest.mark.parametrize("overrides", GRID.values(), ids=GRID.keys())
def test_train_is_bit_identical_to_the_add_at_loop(store_name, overrides, request):
    store = request.getfixturevalue(f"{store_name}_store")
    config = replace(BASE, **overrides)
    result = train(store, config)
    table, trace = _reference_train(store, config)
    np.testing.assert_array_equal(_bits(result.table.node_matrix), _bits(table.node_matrix))
    np.testing.assert_array_equal(_bits(result.table.relation_matrix), _bits(table.relation_matrix))
    assert [tuple(map(float.hex, (e.l1, e.l2, e.total))) for e in result.trace] == [
        tuple(map(float.hex, (e.l1, e.l2, e.total))) for e in trace
    ]


def test_gradients_are_bit_identical_to_add_at(c5_store):
    table = init_embeddings(c5_store, replace(BASE, dimension=8))
    positives = table.triplet_rows(sorted(c5_store.triplets_in(Split.TRAIN), key=lambda t: t.sort_key))
    negatives = NegativeSampler(table, positives).sample(positives, random.Random(3))
    _, node_idx, node_rows, rel_idx, rel_rows = _reference_margin_contributions(
        table.node_matrix, table.relation_matrix, positives, negatives, 4.0
    )
    node_ref = np.zeros_like(table.node_matrix)
    rel_ref = np.zeros_like(table.relation_matrix)
    np.add.at(node_ref, node_idx, node_rows)
    np.add.at(rel_ref, rel_idx, rel_rows)
    _, _, node_grad, rel_grad = loss_gradients(table, positives, negatives, 4.0, {})
    np.testing.assert_array_equal(_bits(node_grad), _bits(node_ref))
    np.testing.assert_array_equal(_bits(rel_grad), _bits(rel_ref))

    eq_row = table.relation_index(EQUIVALENCE_RELATION)
    annotations = c5_store.annotation_map(Split.TRAIN)
    _, node_idx, node_rows, rel_idx, rel_rows = _reference_equivalence_contributions(
        table.node_matrix, table.relation_matrix, eq_row, *_annotation_groups(table, annotations)
    )
    node_ref = np.zeros_like(table.node_matrix)
    rel_ref = np.zeros_like(table.relation_matrix)
    np.add.at(node_ref, node_idx, node_rows)
    np.add.at(rel_ref, rel_idx, rel_rows)
    _, _, node_grad, rel_grad = loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, annotations)
    np.testing.assert_array_equal(_bits(node_grad), _bits(node_ref))
    np.testing.assert_array_equal(_bits(rel_grad), _bits(rel_ref))


def _signed_zero_case(fraction: float, width: int, size: int):
    """A table whose sememe rows have ``fraction`` of their entries at
    -0.0, and annotations grouping ``size`` of them per synset.  The
    synset rows and the equivalence row are -0.0 throughout, so each
    residual is the negated sememe sum and a zero in it keeps its sign.
    About 4,000 residual entries, so a column of -0.0 in every row of a
    group turns up at both fractions when groups are small."""
    rng = np.random.default_rng([int(fraction * 100), width, size])
    n_groups, n_sememes = -(-4_000 // width), 200
    sememes = [sememe_id(f"s{i:03d}") for i in range(n_sememes)]
    synsets = [synset_id(f"g{i:04d}") for i in range(n_groups)]
    sememe_m = _spread(rng, (n_sememes, width))
    sememe_m[rng.random(sememe_m.shape) < fraction] = -0.0
    table = EmbeddingTable(
        width,
        tuple(sememes + synsets),
        (EQUIVALENCE_RELATION,),
        np.concatenate([sememe_m, np.full((n_groups, width), -0.0)]),
        np.full((1, width), -0.0),
    )
    annotations = {
        synset: frozenset(sememes[i] for i in rng.choice(n_sememes, size, replace=False)) for synset in synsets
    }
    return table, annotations


@pytest.mark.parametrize("size", [2, 4, 8])
@pytest.mark.parametrize("width", [1, 3, 800])
@pytest.mark.parametrize("fraction", [0.05, 0.5])
def test_equivalence_sums_keep_signed_zeros(fraction, width, size):
    table, annotations = _signed_zero_case(fraction, width, size)
    groups = _annotation_groups(table, annotations)
    ref_loss, node_idx, node_rows, rel_idx, rel_rows = _reference_equivalence_contributions(
        table.node_matrix, table.relation_matrix, 0, *groups
    )
    node_ref = np.zeros_like(table.node_matrix)
    rel_ref = np.zeros_like(table.relation_matrix)
    np.add.at(node_ref, node_idx, node_rows)
    np.add.at(rel_ref, rel_idx, rel_rows)
    _, loss, node_grad, rel_grad = loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, annotations)
    assert float.hex(loss) == float.hex(ref_loss)
    np.testing.assert_array_equal(_bits(node_grad), _bits(node_ref))
    np.testing.assert_array_equal(_bits(rel_grad), _bits(rel_ref))
    # A dense gradient starts at +0.0, which hides the sign of a zero row
    # entry, so the update rows are compared as well.
    _, l2, block, got_node_idx, got_rel_idx, rel_src = _update_block(
        table.node_matrix, table.relation_matrix, NO_PAIRS, NO_PAIRS, 0.0, groups, 0, 1.0, 1.0, 1.0
    )
    assert float.hex(l2) == float.hex(ref_loss)
    np.testing.assert_array_equal(got_node_idx, node_idx)
    np.testing.assert_array_equal(got_rel_idx, rel_idx)
    np.testing.assert_array_equal(_bits(block), _bits(node_rows))
    np.testing.assert_array_equal(_bits(block[rel_src]), _bits(rel_rows))


def _assert_kernel_matches_add_at(kernel, m, idx, vals, src=None):
    src = np.arange(len(idx)) if src is None else src
    expected = m.copy()
    np.add.at(expected, idx, vals[src])
    got = m.copy()
    touched = kernel(got, idx, vals, src)
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    np.testing.assert_array_equal(touched, np.unique(idx))


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values from 1e-8 to 1e8, so the summation order shows in
    the rounding."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernels:
    def test_empty_update_leaves_the_matrix(self, kernel):
        m = np.arange(12.0).reshape(4, 3)
        _assert_kernel_matches_add_at(kernel, m, np.array([], dtype=np.intp), np.empty((0, 3)))

    def test_one_dimension(self, kernel):
        rng = np.random.default_rng(1)
        _assert_kernel_matches_add_at(
            kernel, _spread(rng, (5, 1)), rng.integers(0, 5, 400), _spread(rng, (400, 1))
        )

    def test_one_row_hit_thousands_of_times(self, kernel):
        rng = np.random.default_rng(2)
        idx = np.concatenate([np.full(2_500, 3), rng.integers(0, 6, 50)])
        rng.shuffle(idx)
        _assert_kernel_matches_add_at(kernel, _spread(rng, (6, 4)), idx, _spread(rng, (len(idx), 4)))

    def test_every_row_hit_once(self, kernel):
        rng = np.random.default_rng(3)
        idx = rng.permutation(50)
        _assert_kernel_matches_add_at(kernel, _spread(rng, (50, 7)), idx, _spread(rng, (50, 7)))

    def test_signed_zeros(self, kernel):
        m = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]])
        idx = np.array([0, 1, 0, 0, 1])
        vals = np.array(
            [[-0.0, -0.0, 0.0], [-0.0, 0.0, -1.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]
        )
        _assert_kernel_matches_add_at(kernel, m, idx, vals)

    def test_magnitudes_within_one_row(self, kernel):
        rng = np.random.default_rng(4)
        idx = np.zeros(300, dtype=np.intp)
        vals = _spread(rng, (300, 5))
        vals[::7] = 1e8
        vals[1::7] = -1e8
        _assert_kernel_matches_add_at(kernel, _spread(rng, (2, 5)), idx, vals)

    def test_rows_hit_exactly_the_hub_bound_and_one_more(self, kernel):
        rng = np.random.default_rng(5)
        idx = np.concatenate([np.full(_HUB_UPDATES, 0), np.full(_HUB_UPDATES + 1, 1), rng.integers(2, 6, 40)])
        rng.shuffle(idx)
        _assert_kernel_matches_add_at(kernel, _spread(rng, (6, 3)), idx, _spread(rng, (len(idx), 3)))

    def test_hub_rows_of_width_one(self, kernel):
        # Values of one magnitude, where a pairwise sum and a running sum
        # round apart.
        rng = np.random.default_rng(6)
        idx = np.concatenate([np.repeat(np.arange(4), 250), rng.integers(0, 6, 20)])
        rng.shuffle(idx)
        _assert_kernel_matches_add_at(kernel, rng.standard_normal((6, 1)), idx, rng.standard_normal((len(idx), 1)))

    def test_signed_zeros_in_a_hub_row(self, kernel):
        n = 2 * _HUB_UPDATES
        m = np.array([[-0.0, 0.0, -0.0, 1.0]])
        vals = np.array([[-0.0, 0.0, -0.0, -1.0], [-0.0, -0.0, 0.0, 1.0], [0.0, -0.0, -0.0, -0.0]])
        src = np.arange(n) % 3
        _assert_kernel_matches_add_at(kernel, m, np.zeros(n, dtype=np.intp), vals, src)

    def test_rows_read_through_src(self, kernel):
        rng = np.random.default_rng(7)
        idx = np.concatenate([np.full(3 * _HUB_UPDATES, 1), rng.integers(0, 5, 60)])
        rng.shuffle(idx)
        src = rng.integers(0, 25, len(idx))
        _assert_kernel_matches_add_at(kernel, _spread(rng, (5, 4)), idx, _spread(rng, (25, 4)), src)

    @given(
        st.integers(1, 8),
        st.integers(1, 5),
        st.lists(st.integers(0, 7), max_size=200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_add_at(self, kernel, rows, dim, raw_idx, seed):
        rng = np.random.default_rng(seed)
        idx = np.array([i % rows for i in raw_idx], dtype=np.intp)
        src = rng.integers(0, len(idx) + 3, len(idx))
        vals = _spread(rng, (len(idx) + 3, dim))
        _assert_kernel_matches_add_at(kernel, _spread(rng, (rows, dim)), idx, vals, src)
