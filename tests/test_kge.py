from __future__ import annotations

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from helpers import NO_PAIRS, build_table, finite_difference, max_relative_error
from semepred import (
    ConfigError,
    ContractError,
    EmbeddingTable,
    NegativeSampler,
    ParseError,
    Pos,
    SamplingError,
    Split,
    TrainConfig,
    TrainResult,
    TrainingError,
    TripletStore,
    UnknownIdError,
    ValidationError,
    init_embeddings,
    loss_gradients,
    make_triplet,
    rank_sememes,
    score_triplet,
    sememe_id,
    synset_id,
    train,
)
from semepred.embeddings import write_vector_file
from semepred.graph import EQUIVALENCE_RELATION, RelationId, RelationKind
from semepred.kge import (
    EpochLoss,
    _annotation_groups,
    _groups_touching,
    load_loss_trace,
    save_loss_trace,
)

SYN_REL = RelationId(RelationKind.SYNSET_SYNSET, "related")


class TestTrainConfig:
    def test_defaults_are_usable(self):
        config = TrainConfig()
        assert config.dimension == 800
        assert config.normalize_entities

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"margin": 0.0},
            {"ranking_weight": -0.1},
            {"equivalence_weight": -0.1},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"batch_size": 0},
            {"negatives_per_positive": 0},
            {"max_resample": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_two_zero_loss_weights_rejected(self):
        with pytest.raises(ConfigError, match="at least one loss weight must be positive"):
            TrainConfig(ranking_weight=0.0, equivalence_weight=0.0)
        TrainConfig(ranking_weight=0.0)
        TrainConfig(equivalence_weight=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["margin", "learning_rate", "ranking_weight", "equivalence_weight"])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})


class TestInitEmbeddings:
    def test_same_seed_identical(self, toy_store):
        config = TrainConfig(dimension=8, seed=3)
        first = init_embeddings(toy_store, config)
        second = init_embeddings(toy_store, config)
        np.testing.assert_array_equal(first.node_matrix, second.node_matrix)
        np.testing.assert_array_equal(first.relation_matrix, second.relation_matrix)

    def test_dimension_4_bound_is_3(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0, normalize_entities=False))
        assert np.all(np.abs(table.node_matrix) <= 3.0)
        assert np.all(np.abs(table.relation_matrix) <= 3.0)

    def test_equivalence_relation_gets_a_row(self, toy_store):
        # toy_store has 5 nodes and 3 file relations; the learned
        # equivalence relation adds a fourth relation row.
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        assert len(table.node_ids) == 5
        assert len(table.relation_ids) == 4
        assert EQUIVALENCE_RELATION in table.relation_ids

    def test_entities_start_at_unit_norm(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=6, seed=1))
        np.testing.assert_allclose(np.linalg.norm(table.node_matrix, axis=1), 1.0, atol=1e-12)

    def test_normalization_can_be_disabled(self, toy_store):
        table = init_embeddings(
            toy_store, TrainConfig(dimension=6, seed=1, normalize_entities=False)
        )
        norms = np.linalg.norm(table.node_matrix, axis=1)
        assert not np.allclose(norms, 1.0)


class TestEmbeddingFile:
    @pytest.mark.parametrize(
        ("content", "line"),
        [(b"D=\xb2\nsyn:a\t1.0\n", 1), (b"D=1\nsyn:a\t1.0\nsyn:\xffb\t2.0\n", 3)],
        ids=["header", "row"],
    )
    def test_non_utf8_line_is_named(self, tmp_path, content, line):
        path = tmp_path / "embeddings.tsv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=rf"embeddings\.tsv:{line}: not valid UTF-8"):
            EmbeddingTable.load(path)

    def test_tables_compare_by_identity(self, tmp_path, toy_store):
        path = tmp_path / "embeddings.tsv"
        init_embeddings(toy_store, TrainConfig(dimension=4, seed=0)).save(path)
        first, second = EmbeddingTable.load(path), EmbeddingTable.load(path)
        assert (first == second) is False
        assert first == first
        assert len({first, second}) == 2
        assert TrainResult(first, ()) != TrainResult(second, ())
        assert np.array_equal(first.node_matrix, second.node_matrix)

    def test_duplicate_id_names_the_line(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        rows = [("sem:x", np.ones(2)), ("sem:y", np.ones(2)), ("syn:a", np.ones(2)), ("syn:a", np.zeros(2))]
        write_vector_file(path, 2, rows)
        with pytest.raises(ValidationError, match=r"embeddings\.tsv:5: duplicate id 'syn:a'"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_the_line(self, tmp_path, component):
        path = tmp_path / "embeddings.tsv"
        path.write_text(f"D=2\nsyn:a\t1.0 0.5\nsyn:b\t1.0 {component}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"embeddings\.tsv:3: non-finite"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("header", ["D=\u00b2", "D=1\u00b2", "D=\u2460"])
    def test_non_decimal_digit_header_is_a_parse_error(self, tmp_path, header):
        # str.isdigit() accepts these, but int() does not parse them.
        path = tmp_path / "embeddings.tsv"
        path.write_text(f"{header}\nsyn:a\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"embeddings\.tsv:1: expected a D=<dim> header"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize(
        ("row_id", "message"),
        [
            ("foo", "node id 'foo' lacks a syn:/sem: prefix"),
            ("rel:bogus:x", "unknown relation kind 'bogus' in 'rel:bogus:x'"),
        ],
    )
    def test_malformed_id_names_the_line(self, tmp_path, row_id, message):
        path = tmp_path / "embeddings.tsv"
        path.write_text(f"D=2\nsyn:a\t1.0 0.5\n{row_id}\t1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"embeddings\.tsv:3: {message}"):
            EmbeddingTable.load(path)

    def test_empty_relation_name_names_the_line(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("D=2\nsyn:a\t1.0 0.5\nrel:have:\t1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"embeddings\.tsv:3: relation name must be non-empty$"):
            EmbeddingTable.load(path)


    def test_round_trip_is_order_free_and_bit_exact(self, tmp_path, toy_store):
        table = train(toy_store, TrainConfig(dimension=8, epochs=3, batch_size=4, seed=2)).table
        saved, shuffled, again = tmp_path / "saved.tsv", tmp_path / "shuffled.tsv", tmp_path / "again.tsv"
        table.save(saved)
        header, *rows = saved.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(0).shuffle(rows)
        shuffled.write_text(header + "".join(rows), encoding="utf-8")
        assert shuffled.read_bytes() != saved.read_bytes()
        loaded = EmbeddingTable.load(shuffled)
        assert loaded.node_ids == table.node_ids
        assert loaded.relation_ids == table.relation_ids
        assert loaded.node_matrix.tobytes() == table.node_matrix.tobytes()
        assert loaded.relation_matrix.tobytes() == table.relation_matrix.tobytes()
        loaded.save(again)
        assert again.read_bytes() == saved.read_bytes()

    def test_table_without_relations_loads_an_empty_relation_matrix(self, tmp_path):
        table = build_table(3, {synset_id("a"): [1.0, 2.0, 3.0]}, {}, include_equivalence=False)
        table.save(tmp_path / "embeddings.tsv")
        loaded = EmbeddingTable.load(tmp_path / "embeddings.tsv")
        assert loaded.relation_ids == ()
        assert loaded.relation_matrix.shape == (0, 3)
        assert loaded.relation_matrix.dtype == np.float64
        np.testing.assert_array_equal(loaded.node_matrix, [[1.0, 2.0, 3.0]])


class TestScoreTriplet:
    def test_exact_translation_scores_zero(self):
        a, b = synset_id("a"), synset_id("b")
        table = build_table(2, {a: [1.0, 2.0], b: [1.5, 2.5]}, {SYN_REL: [0.5, 0.5]})
        assert score_triplet(table, make_triplet(a, "related", b)) == 0.0

    def test_hand_value(self):
        a, b = synset_id("a"), synset_id("b")
        table = build_table(2, {a: [1.0, 0.0], b: [0.0, 0.0]}, {SYN_REL: [0.0, 1.0]})
        assert score_triplet(table, make_triplet(a, "related", b)) == 2.0

    def test_nonnegative_on_random_vectors(self):
        rng = np.random.default_rng(0)
        a, b = synset_id("a"), synset_id("b")
        for _ in range(50):
            table = build_table(
                3,
                {a: rng.normal(size=3), b: rng.normal(size=3)},
                {SYN_REL: rng.normal(size=3)},
            )
            assert score_triplet(table, make_triplet(a, "related", b)) >= 0.0


def _chain_store(n: int) -> TripletStore:
    """n synsets where s0 relates to all but the last, which is isolated.

    The last synset carries only a pos tag, so it is a node of the store
    without appearing in any triplet.
    """
    synsets = [synset_id(f"s{i:02d}") for i in range(n)]
    triplets = [make_triplet(synsets[0], "related", s) for s in synsets[1:-1]]
    triplets.append(make_triplet(synsets[1], "related", synsets[0]))
    return TripletStore(triplets, pos_tags={synsets[-1]: Pos.NOUN})


def _row_sampler(store: TripletStore, **options) -> tuple[EmbeddingTable, NegativeSampler]:
    """A sampler over ``store``'s train split, with the table whose rows it uses."""
    table = init_embeddings(store, TrainConfig(dimension=2))
    return table, NegativeSampler(table, table.triplet_rows(store.triplets_in(Split.TRAIN)), **options)


def _as_ids(table: EmbeddingTable, rows: np.ndarray) -> list[tuple]:
    return [(table.node_ids[h], table.relation_ids[r], table.node_ids[t]) for h, r, t in rows.tolist()]


def _draws(table, sampler, positive, rng, count):
    """``count`` negatives for ``positive`` from one seeded stream, as ids."""
    return _as_ids(table, sampler.sample(np.repeat(table.triplet_rows([positive]), count, axis=0), rng))


def _reference_sample(store, positive, rng, corrupt_heads=False, type_consistent=False, max_resample=100):
    """The draw loop over ids that the row sampler reproduces draw for draw."""
    train_set = {(t.head, t.relation, t.tail) for t in store.triplets_in(Split.TRAIN)}
    for _ in range(max_resample):
        replace_head = corrupt_heads and rng.random() < 0.5
        kept = positive.tail if replace_head else positive.head
        replaced = positive.head if replace_head else positive.tail
        pool = store.nodes
        if type_consistent:
            pool = tuple(n for n in store.nodes if n.kind is replaced.kind)
        drawn = pool[rng.randrange(len(pool))]
        candidate = (
            (drawn, positive.relation, kept) if replace_head else (kept, positive.relation, drawn)
        )
        if candidate not in train_set:
            return candidate
    raise SamplingError(f"no corrupted triplet after {max_resample} draws")


class TestNegativeSampler:
    def test_forced_outcome(self):
        # s00 relates to every node but itself and the isolated s05;
        # corrupting the tail can only ever produce those two.
        store = _chain_store(6)
        table, sampler = _row_sampler(store)
        draws = _draws(table, sampler, store.triplets[0], random.Random(0), 200)
        assert {tail for _, _, tail in draws} == {synset_id("s00"), synset_id("s05")}

    def test_single_legal_tail(self):
        store = _chain_store(6)
        extra = [make_triplet(synset_id("s00"), "related", synset_id("s00"))]
        store = TripletStore(list(store.triplets) + extra, store.pos_tags())
        table, sampler = _row_sampler(store)
        draws = _draws(table, sampler, store.triplets[0], random.Random(1), 50)
        assert all(tail == synset_id("s05") for _, _, tail in draws)

    def test_uniform_over_legal_tails(self, toy_store):
        # Positive (a, related, b): legal corrupted tails are the other
        # four nodes; 10^4 draws should look uniform under a chi-square test.
        table, sampler = _row_sampler(toy_store)
        draws = _draws(table, sampler, toy_store.triplets[0], random.Random(7), 10_000)
        counts = Counter(tail for _, _, tail in draws)
        legal = [n for n in toy_store.nodes if n != synset_id("b")]
        assert set(counts) == set(legal)
        _, p_value = scipy_stats.chisquare([counts[n] for n in legal])
        assert p_value > 0.01

    def test_never_returns_a_train_triplet(self, toy_store):
        table, sampler = _row_sampler(toy_store)
        membership = {(t.head, t.relation, t.tail) for t in toy_store.triplets}
        positives = table.triplet_rows(toy_store.triplets)
        rows = sampler.sample(positives[np.arange(100_000) % len(positives)], random.Random(3))
        assert len(rows) == 100_000
        violations = sum(1 for negative in _as_ids(table, rows) if negative in membership)
        assert violations == 0

    def test_exhaustion_raises_sampling_error(self):
        # s0 relates to both nodes of a two-node graph, so every corrupted
        # tail is already a train triplet.
        a, b = synset_id("a"), synset_id("b")
        store = TripletStore(
            [
                make_triplet(a, "related", a),
                make_triplet(a, "related", b),
            ]
        )
        table, sampler = _row_sampler(store, max_resample=20)
        with pytest.raises(SamplingError, match="20"):
            sampler.sample(table.triplet_rows([store.triplets[0]]), random.Random(0))

    def test_positive_must_be_in_train(self, toy_store):
        split = toy_store.split_dataset((0.0, 0.0, 1.0), seed=0)
        table, sampler = _row_sampler(split)
        held_out = split.triplets_in(Split.TEST)[0]
        with pytest.raises(ContractError):
            sampler.sample(table.triplet_rows([held_out]), random.Random(0))

    def test_rows_outside_the_table_rejected(self, toy_store):
        table, sampler = _row_sampler(toy_store)
        rows = table.triplet_rows([toy_store.triplets[0]])
        rows[0, 1] = len(table.relation_ids)
        with pytest.raises(ContractError, match="outside"):
            sampler.sample(rows, random.Random(0))

    def test_type_consistent_negatives(self, toy_store):
        table, sampler = _row_sampler(toy_store, type_consistent=True)
        positive = [t for t in toy_store.triplets if t.relation.kind is RelationKind.HAVE_SEMEME][0]
        draws = _draws(table, sampler, positive, random.Random(5), 100)
        assert all(tail.kind is positive.tail.kind for _, _, tail in draws)

    def test_corrupt_heads_hits_both_sides(self, toy_store):
        table, sampler = _row_sampler(toy_store, corrupt_heads=True)
        positive = toy_store.triplets[0]
        draws = _draws(table, sampler, positive, random.Random(9), 200)
        sides = {("head" if head != positive.head else "tail") for head, _, _ in draws}
        assert sides == {"head", "tail"}

    @pytest.mark.parametrize("corrupt_heads", [False, True])
    @pytest.mark.parametrize("type_consistent", [False, True])
    def test_matches_the_id_level_reference(self, toy_store, corrupt_heads, type_consistent):
        # Holding out c makes its have_sememe triplets legal negatives and
        # leaves every train positive a legal corruption of each kind.
        store = toy_store.split_dataset((0.5, 0.0, 0.5), seed=5)
        options = {"corrupt_heads": corrupt_heads, "type_consistent": type_consistent}
        table, sampler = _row_sampler(store, **options)
        positives = list(store.triplets_in(Split.TRAIN)) * 40
        got = sampler.sample(table.triplet_rows(positives), random.Random(11))
        rng = random.Random(11)
        expected = [_reference_sample(store, p, rng, **options) for p in positives]
        assert [
            (store.nodes[h], table.relation_ids[r], store.nodes[t]) for h, r, t in got.tolist()
        ] == expected


def _hinge_fixture():
    """d_pos=2 and d_neg=3 exactly, so a margin of 4 leaves a hinge of 3."""
    h, t_pos, t_neg = synset_id("h"), synset_id("tp"), synset_id("tn")
    table = build_table(
        3,
        {h: [0.0, 0.0, 0.0], t_pos: [0.0, 0.0, 1.0], t_neg: [0.0, 0.0, 0.0]},
        {SYN_REL: [1.0, 1.0, 1.0]},
    )
    pos = table.triplet_rows([make_triplet(h, "related", t_pos)])
    neg = np.array([[table.node_index(h), table.relation_index(SYN_REL), table.node_index(t_neg)]])
    return table, pos, neg


class TestMarginLoss:
    def test_hand_fixture_is_exactly_three(self):
        table, pos, neg = _hinge_fixture()
        assert loss_gradients(table, pos, neg, 4.0, {})[0] == 3.0

    def test_inactive_hinge_is_zero(self):
        table, pos, neg = _hinge_fixture()
        assert loss_gradients(table, pos, neg, 0.5, {})[0] == 0.0

    def test_empty_batch_is_zero(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        assert loss_gradients(table, NO_PAIRS, NO_PAIRS, 4.0, {})[0] == 0.0

    def test_misaligned_batches_rejected(self):
        table, pos, neg = _hinge_fixture()
        with pytest.raises(ContractError):
            loss_gradients(table, np.vstack([pos, pos]), neg, 4.0, {})


class TestEquivalenceLoss:
    def test_exact_match_scores_zero(self):
        b = synset_id("b")
        p, q = sememe_id("p"), sememe_id("q")
        table = build_table(
            2,
            {b: [1.0, 0.0], p: [1.0, 0.5], q: [0.5, 0.0]},
            {EQUIVALENCE_RELATION: [0.5, 0.5]},
            include_equivalence=False,
        )
        assert loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, {b: frozenset({p, q})})[1] == 0.0

    def test_one_dimensional_hand_value(self):
        b = synset_id("b")
        p, q = sememe_id("p"), sememe_id("q")
        table = build_table(
            1,
            {b: [1.0], p: [1.0], q: [1.0]},
            {EQUIVALENCE_RELATION: [0.5]},
            include_equivalence=False,
        )
        assert loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, {b: frozenset({p, q})})[1] == 0.25

    def test_empty_annotation_map_is_zero(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        assert loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, {})[1] == 0.0


class TestAnnotationGroups:
    def test_batch_groups_match_the_loop_they_replace(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=2))
        annotations = toy_store.annotation_map(Split.TRAIN)
        sememe_rows_of = {
            table.node_index(b): [table.node_index(s) for s in sorted(annotations[b], key=lambda n: n.name)]
            for b in annotations
        }
        groups = _annotation_groups(table, annotations)
        positives = table.triplet_rows(toy_store.triplets)
        for batch in (positives[:1], positives[2:4], positives[4:], positives[:0], positives):
            endpoints = set(batch[:, 0].tolist()) | set(batch[:, 2].tolist())
            synset_rows = sorted(row for row in endpoints if row in sememe_rows_of)
            flat: list[int] = []
            offsets: list[int] = []
            for row in synset_rows:
                offsets.append(len(flat))
                flat.extend(sememe_rows_of[row])
            got = _groups_touching(groups, batch[:, ::2])
            assert [part.tolist() for part in got] == [synset_rows, flat, offsets]


class TestGradients:
    def test_margin_gradients_match_finite_differences(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=2))
        positives = table.triplet_rows(toy_store.triplets)
        negatives = NegativeSampler(table, positives).sample(positives, random.Random(4))
        margin = 4.0
        loss, _, node_grad, rel_grad = loss_gradients(table, positives, negatives, margin, {})
        assert loss > 0
        fd_nodes = finite_difference(
            lambda: loss_gradients(table, positives, negatives, margin, {})[0], table.node_matrix
        )
        fd_rels = finite_difference(
            lambda: loss_gradients(table, positives, negatives, margin, {})[0], table.relation_matrix
        )
        assert max_relative_error(node_grad, fd_nodes) < 1e-4
        assert max_relative_error(rel_grad, fd_rels) < 1e-4

    def test_equivalence_gradients_match_finite_differences(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=2))
        annotations = toy_store.annotation_map(Split.TRAIN)
        _, loss, node_grad, rel_grad = loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, annotations)
        assert loss > 0
        fd_nodes = finite_difference(
            lambda: loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, annotations)[1], table.node_matrix
        )
        fd_rels = finite_difference(
            lambda: loss_gradients(table, NO_PAIRS, NO_PAIRS, 0.0, annotations)[1], table.relation_matrix
        )
        assert max_relative_error(node_grad, fd_nodes) < 1e-4
        assert max_relative_error(rel_grad, fd_rels) < 1e-4

    def test_both_losses_in_one_call_match_finite_differences(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=2))
        positives = table.triplet_rows(toy_store.triplets)
        negatives = NegativeSampler(table, positives).sample(positives, random.Random(4))
        annotations = toy_store.annotation_map(Split.TRAIN)

        def total() -> float:
            l1, l2, _, _ = loss_gradients(table, positives, negatives, 4.0, annotations)
            return l1 + l2

        l1, l2, node_grad, rel_grad = loss_gradients(table, positives, negatives, 4.0, annotations)
        assert l1 > 0 and l2 > 0
        assert max_relative_error(node_grad, finite_difference(total, table.node_matrix)) < 1e-4
        assert max_relative_error(rel_grad, finite_difference(total, table.relation_matrix)) < 1e-4


def _forced_negative_store() -> TripletStore:
    """5 synsets where each head relates to every tail except one.

    Leaves exactly one legal corrupted tail per positive, so the sampled
    negatives, and hence the whole loss trace, are deterministic.
    """
    nodes = [synset_id(f"n{i}") for i in range(5)]
    triplets = [
        make_triplet(nodes[i], "related", nodes[j])
        for i in range(5)
        for j in range(5)
        if j != (i + 1) % 5
    ]
    return TripletStore(triplets)


class TestTrain:
    def test_toy_trace_non_increasing_after_smoothing(self):
        store = _forced_negative_store()
        config = TrainConfig(dimension=16, epochs=50, learning_rate=0.01, batch_size=32, seed=0)
        result = train(store, config)
        totals = np.array([e.total for e in result.trace])
        smoothed = np.convolve(totals, np.full(5, 0.2), mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-9)

    def test_same_seed_bit_identical(self, toy_store):
        config = TrainConfig(dimension=8, epochs=10, batch_size=4, seed=5)
        first = train(toy_store, config)
        second = train(toy_store, config)
        np.testing.assert_array_equal(first.table.node_matrix, second.table.node_matrix)
        np.testing.assert_array_equal(first.table.relation_matrix, second.table.relation_matrix)
        assert first.trace == second.trace

    def test_entities_stay_unit_norm(self, toy_store):
        config = TrainConfig(dimension=8, epochs=5, batch_size=3, seed=1)
        result = train(toy_store, config)
        norms = np.linalg.norm(result.table.node_matrix, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_zero_equivalence_weight_trains_without_constraint(self, toy_store):
        config = TrainConfig(
            dimension=8, epochs=5, batch_size=4, seed=1, ranking_weight=1.0, equivalence_weight=0.0
        )
        result = train(toy_store, config)
        assert all(e.l2 == 0.0 for e in result.trace)
        assert all(e.total == 1.0 * e.l1 for e in result.trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_epoch(self, toy_store):
        # With only the equivalence term and a huge step size the update
        # over-corrects geometrically until the loss overflows, which
        # necessarily emits numpy overflow warnings first.
        config = TrainConfig(
            dimension=4,
            epochs=50,
            batch_size=8,
            seed=0,
            ranking_weight=0.0,
            equivalence_weight=1.0,
            learning_rate=1e150,
            normalize_entities=False,
        )
        with pytest.raises(TrainingError, match="epoch"):
            train(toy_store, config)

    @pytest.mark.parametrize("negatives", [1, 2])
    def test_every_batch_renormalizes_its_rows_and_feeds_the_trace(self, toy_store, monkeypatch, negatives):
        config = TrainConfig(dimension=8, epochs=3, batch_size=3, negatives_per_positive=negatives, seed=4)
        batches = []
        sample = NegativeSampler.sample

        def recording_sample(sampler, positives, rng):
            drawn = sample(sampler, positives, rng)
            table = sampler._table
            batches.append((positives, drawn, table.node_matrix.copy(), table.relation_matrix.copy()))
            return drawn

        monkeypatch.setattr(NegativeSampler, "sample", recording_sample)
        result = train(toy_store, config)
        final = result.table
        annotations = toy_store.annotation_map(Split.TRAIN)
        per_epoch = math.ceil(len(toy_store.triplets_in(Split.TRAIN)) / config.batch_size)
        assert len(batches) == per_epoch * config.epochs
        afters = [node_m for _, _, node_m, _ in batches[1:]] + [final.node_matrix]
        for epoch, trace in enumerate(result.trace):
            l1 = l2 = 0.0
            for (positives, negatives, node_m, rel_m), after in zip(
                batches[epoch * per_epoch : (epoch + 1) * per_epoch],
                afters[epoch * per_epoch : (epoch + 1) * per_epoch],
            ):
                before = EmbeddingTable(final.dimension, final.node_ids, final.relation_ids, node_m, rel_m)
                batch_nodes = {final.node_ids[row] for row in positives[:, ::2].ravel()}
                constrained = {s: annotations[s] for s in batch_nodes & annotations.keys()}
                batch_l1, batch_l2, _, _ = loss_gradients(before, positives, negatives, config.margin, constrained)
                l1 += batch_l1
                l2 += batch_l2
                reachable = {*positives[:, ::2].ravel(), *negatives[:, ::2].ravel()}
                reachable |= {final.node_index(s) for sememes in constrained.values() for s in sememes}
                changed = np.flatnonzero(np.any(after != node_m, axis=1))
                assert len(changed) and set(changed) <= reachable
                np.testing.assert_allclose(np.linalg.norm(after[changed], axis=1), 1.0, rtol=0, atol=1e-12)
            # Same per-batch arithmetic, summed in the same order: exact.
            assert (trace.l1, trace.l2) == (l1, l2)
            assert trace.total == config.ranking_weight * l1 + config.equivalence_weight * l2

    def test_zero_epochs_returns_init_table(self, toy_store):
        config = TrainConfig(dimension=8, epochs=0, seed=3)
        result = train(toy_store, config)
        expected = init_embeddings(toy_store, config)
        np.testing.assert_array_equal(result.table.node_matrix, expected.node_matrix)
        assert result.trace == ()

    def test_empty_train_split_rejected(self):
        a = synset_id("a")
        p = sememe_id("p")
        t = make_triplet(a, "have_sememe", p)
        store = TripletStore([t], split={t: Split.TEST})
        with pytest.raises(ContractError):
            train(store, TrainConfig(dimension=4, epochs=1))


class TestRankSememes:
    def test_forced_winner_at_zero_distance(self):
        b = synset_id("b")
        p, q = sememe_id("p"), sememe_id("q")
        have = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")
        table = build_table(
            2,
            {b: [1.0, 0.0], p: [1.0, 1.0], q: [3.0, 3.0]},
            {have: [0.0, 1.0]},
        )
        ranking = rank_sememes(table, b, [p, q])
        assert ranking.rank(p) == 1
        assert ranking.score(p) == 0.0
        assert ranking.score(q) < 0.0

    def test_empty_candidates_rejected(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        with pytest.raises(ContractError):
            rank_sememes(table, synset_id("a"), [])

    def test_non_sememe_candidate_rejected(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        with pytest.raises(ContractError):
            rank_sememes(table, synset_id("a"), [synset_id("b")])

    def test_sememe_target_rejected(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        with pytest.raises(ContractError):
            rank_sememes(table, sememe_id("p"), [sememe_id("q")])

    def test_nan_row_never_reaches_a_ranking(self):
        b = synset_id("b")
        p, q = sememe_id("p"), sememe_id("q")
        have = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")
        table = build_table(
            2,
            {b: [1.0, 0.0], p: [math.nan, 1.0], q: [3.0, 3.0]},
            {have: [0.0, 1.0]},
        )
        with pytest.raises(ValidationError, match="syn:b"):
            rank_sememes(table, b, [p, q])

    def _random_table(self):
        rng = np.random.default_rng(5)
        have = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")
        nodes = {synset_id(f"b{i}"): rng.normal(size=3) for i in range(3)}
        nodes.update({sememe_id(f"s{i}"): rng.normal(size=3) for i in range(6)})
        return nodes, {have: rng.normal(size=3)}

    def test_changed_candidate_set_is_ranked_anew(self):
        # Each call ranks the candidate set it is given, whatever the
        # previous call ranked.
        nodes, relations = self._random_table()
        table = build_table(3, nodes, relations)
        wide = [sememe_id(f"s{i}") for i in range(6)]
        narrow = [sememe_id(f"s{i}") for i in (4, 1, 2)]
        for target, candidates in [("b0", wide), ("b1", narrow), ("b2", wide), ("b0", narrow)]:
            target = synset_id(target)
            assert rank_sememes(table, target, candidates) == rank_sememes(
                build_table(3, nodes, relations), target, candidates
            )
        # The same list object, one candidate longer.
        narrow.append(sememe_id("s0"))
        assert rank_sememes(table, synset_id("b1"), narrow) == rank_sememes(
            build_table(3, nodes, relations), synset_id("b1"), narrow
        )

    def test_in_place_training_update_is_seen(self):
        nodes, relations = self._random_table()
        table = build_table(3, nodes, relations)
        candidates = [sememe_id(f"s{i}") for i in range(6)]
        before = rank_sememes(table, synset_id("b0"), candidates)
        table.node_matrix[:] *= np.linspace(0.5, 3.0, len(table.node_ids))[:, None]
        after = rank_sememes(table, synset_id("b0"), candidates)
        fresh = build_table(3, dict(zip(table.node_ids, table.node_matrix)), relations)
        assert after == rank_sememes(fresh, synset_id("b0"), candidates)
        assert after != before

    def test_rejected_candidate_set_is_rejected_every_time(self, toy_store):
        table = init_embeddings(toy_store, TrainConfig(dimension=4, seed=0))
        candidates = [sememe_id("p"), synset_id("b")]
        for _ in range(2):
            with pytest.raises(ContractError, match="candidate syn:b is not a sememe"):
                rank_sememes(table, synset_id("a"), candidates)

    def test_a_missing_row_is_named_target_first(self):
        nodes, relations = self._random_table()
        table = build_table(3, nodes, relations)
        candidates = [sememe_id("s1"), sememe_id("new"), sememe_id("s2")]
        with pytest.raises(UnknownIdError, match="^no embedding for node sem:new$"):
            rank_sememes(table, synset_id("b0"), candidates)
        with pytest.raises(UnknownIdError, match="^no embedding for node syn:new$"):
            rank_sememes(table, synset_id("new"), candidates)

    def test_equidistant_candidates_tie_break_by_name(self):
        b = synset_id("b")
        p, q = sememe_id("p"), sememe_id("q")
        have = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")
        table = build_table(
            1,
            {b: [0.0], p: [1.0], q: [-1.0]},
            {have: [0.0]},
        )
        ranking = rank_sememes(table, b, [q, p])
        assert ranking.sememes() == (p, q)


class TestLossTraceIO:
    def test_round_trip(self, tmp_path):
        trace = (EpochLoss(1, 1.5, 0.25, 1.4375), EpochLoss(2, 1.0, 0.125, 0.95625))
        path = tmp_path / "trace.csv"
        save_loss_trace(trace, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "epoch,l1,l2,total"
        assert load_loss_trace(path) == trace

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"epoch,l1,l2,total\n1,1.5,0.25,1.4375\n2,1.0,0.125,0.9\xff\n")
        with pytest.raises(ParseError, match=r"trace\.csv:3: not valid UTF-8"):
            load_loss_trace(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("epoch,a,b\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_loss_trace(path)

    def test_trained_trace_round_trips(self, toy_store, tmp_path):
        trace = train(toy_store, TrainConfig(dimension=4, epochs=5, batch_size=3, seed=1)).trace
        path = tmp_path / "trace.csv"
        save_loss_trace(trace, path)
        assert load_loss_trace(path) == trace

    # Each row is what save_loss_trace never writes; the line named is the first bad one.
    @pytest.mark.parametrize(
        ("rows", "error"),
        [
            ("1,nan,0,0", "2: losses must be finite and >= 0, got nan,0,0"),
            ("1,0,inf,0", "2: losses must be finite and >= 0, got 0,inf,0"),
            ("1,0,0,-1", "2: losses must be finite and >= 0, got 0,0,-1"),
            ("1,0,0,0\n2,-0.5,0,0", "3: losses must be finite and >= 0, got -0.5,0,0"),
            ("0,0,0,0", "2: expected epoch 1, got 0"),
            ("1,0,0,0\n1,0,0,0", "3: expected epoch 2, got 1"),
            ("1,0,0,0\n3,0,0,0", "3: expected epoch 2, got 3"),
            ("1,nan,inf,-1\n-5,0,0,0\n-5,0,0,0", "2: losses must be finite and >= 0, got nan,inf,-1"),
        ],
        ids=["nan", "inf", "negative-total", "negative-l1", "epoch-0", "repeated", "skipped", "all-three"],
    )
    def test_what_save_never_writes_is_rejected_naming_the_line(self, tmp_path, rows, error):
        path = tmp_path / "trace.csv"
        path.write_text(f"epoch,l1,l2,total\n{rows}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{error}')}$"):
            load_loss_trace(path)
