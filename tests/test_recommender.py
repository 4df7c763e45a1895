from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    ConfigError,
    ContractError,
    CoverageError,
    ParseError,
    SemanticVectorStore,
    SrConfig,
    ValidationError,
    rank_neighbors,
    recommend,
    score_sememes,
    sememe_id,
    synset_id,
)
from semepred.embeddings import write_vector_file


def _store(vectors: dict[str, list[float]]) -> SemanticVectorStore:
    dimension = len(next(iter(vectors.values())))
    return SemanticVectorStore(
        dimension, {synset_id(name): np.array(v, dtype=np.float64) for name, v in vectors.items()}
    )


class TestSrConfig:
    def test_defaults(self):
        config = SrConfig()
        assert config.decay == 0.8
        assert config.neighbor_cap == 100

    @pytest.mark.parametrize("decay", [0.0, 1.0, -0.2, 1.5])
    def test_decay_must_be_strictly_inside_unit_interval(self, decay):
        with pytest.raises(ConfigError):
            SrConfig(decay=decay)

    def test_cap_must_be_positive_or_none(self):
        with pytest.raises(ConfigError):
            SrConfig(neighbor_cap=0)
        assert SrConfig(neighbor_cap=None).neighbor_cap is None
        assert SrConfig(neighbor_cap=1).neighbor_cap == 1


class TestVectorStore:
    def test_round_trip_is_exact(self, tmp_path):
        store = _store({"a": [0.1, -2.0, 3.5], "b": [1.0, 1.0, 1.0], "c": [-0.25, 0.0, 7.0]})
        path = tmp_path / "vectors.tsv"
        store.save(path)
        loaded = SemanticVectorStore.load(path)
        assert loaded.dimension == 3
        assert len(loaded) == 3
        np.testing.assert_array_equal(loaded.vector(synset_id("a")), [0.1, -2.0, 3.5])
        np.testing.assert_array_equal(loaded.vector(synset_id("c")), [-0.25, 0.0, 7.0])

    def test_empty_body_with_header_gives_empty_store(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("D=300\n")
        store = SemanticVectorStore.load(path)
        assert store.dimension == 300
        assert len(store) == 0

    @pytest.mark.parametrize("header", ["D=\u00b2", "D=1\u00b2", "D=\u2460"])
    def test_non_decimal_digit_header_is_a_parse_error(self, tmp_path, header):
        # str.isdigit() accepts these, but int() does not parse them.
        path = tmp_path / "vectors.tsv"
        path.write_text(f"{header}\nsyn:a\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"vectors\.tsv:1: expected a D=<dim> header"):
            SemanticVectorStore.load(path)

    def test_zero_vector_rejected_listing_the_id(self):
        with pytest.raises(ValidationError, match="syn:z"):
            _store({"ok": [1.0, 0.0], "z": [0.0, 0.0]})

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            _store({"a": [1.0, math.nan]})

    @pytest.mark.parametrize("component", [1e155, -1e200, 1e-170])
    def test_norm_out_of_float_range_rejected_listing_the_ids(self, component):
        # Each component is finite and nonzero, but squaring it overflows
        # or underflows, so the norm is inf or 0 and no cosine exists.
        with pytest.raises(ValidationError, match=r"norm overflows or underflows.*\['syn:x', 'syn:y'\]"):
            _store({"y": [component, 0.0], "ok": [1.0, 2.0], "x": [0.0, component]})

    def test_sememe_key_rejected(self):
        with pytest.raises(ValidationError):
            SemanticVectorStore(2, {sememe_id("s"): np.array([1.0, 0.0])})

    def test_inconsistent_row_dimension_is_a_parse_error(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("D=3\nsyn:a\t1.0 2.0 3.0\nsyn:b\t1.0 2.0\n")
        with pytest.raises(ParseError):
            SemanticVectorStore.load(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        write_vector_file(path, 2, [("syn:a", np.ones(2)), ("syn:a", np.zeros(2) + 2)])
        with pytest.raises(ValidationError, match=r"vectors\.tsv:3: duplicate"):
            SemanticVectorStore.load(path)

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_bytes(b"D=2\nsyn:a\t1.0 0.5\nsyn:b\t1.0 0.5\xc3\n")
        with pytest.raises(ParseError, match=r"vectors\.tsv:3: not valid UTF-8"):
            SemanticVectorStore.load(path)

    def test_non_finite_component_names_the_line(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("D=2\nsyn:a\t1.0 0.5\nsyn:b\tnan 1.0\n")
        with pytest.raises(ParseError, match=r"vectors\.tsv:3: non-finite"):
            SemanticVectorStore.load(path)

    @pytest.mark.parametrize(
        ("row_id", "message"),
        [
            ("foo", "node id 'foo' lacks a syn:/sem: prefix"),
            ("sem:x", "semantic vectors are keyed by synset ids, got sem:x"),
        ],
    )
    def test_malformed_id_names_the_line(self, tmp_path, row_id, message):
        path = tmp_path / "vectors.tsv"
        path.write_text(f"D=2\nsyn:a\t1.0 0.5\n{row_id}\t1.0 2.0\n")
        with pytest.raises(ParseError, match=rf"vectors\.tsv:3: {message}"):
            SemanticVectorStore.load(path)

    def test_ids_outside_known_set_are_flagged(self, tmp_path):
        store = _store({"a": [1.0, 0.0], "ghost": [0.0, 1.0]})
        path = tmp_path / "vectors.tsv"
        store.save(path)
        loaded = SemanticVectorStore.load(path, known_synsets=[synset_id("a")])
        assert loaded.unknown == (synset_id("ghost"),)
        # The flag does not hide the vector.
        np.testing.assert_array_equal(loaded.vector(synset_id("ghost")), [0.0, 1.0])

    def test_missing_lookup_is_a_coverage_error(self):
        store = _store({"a": [1.0, 0.0]})
        with pytest.raises(CoverageError):
            store.vector(synset_id("missing"))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        store = _store({name: rng.normal(size=4).tolist() for name in ("d", "b", "a10", "a2", "c")})
        store.save(tmp_path / "first.tsv")
        SemanticVectorStore.load(tmp_path / "first.tsv").save(tmp_path / "second.tsv")
        assert (tmp_path / "first.tsv").read_bytes() == (tmp_path / "second.tsv").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_synsets_in_name_order_whatever_the_input_order(self, seed):
        names = ["b", "a10", "a2", "c", "a", "B"]
        random.Random(seed).shuffle(names)
        store = _store({name: [1.0, float(i)] for i, name in enumerate(names)})
        assert [n.name for n in store.synsets()] == sorted(f"syn:{n}" for n in names)
        for i, name in enumerate(names):
            np.testing.assert_array_equal(store.vector(synset_id(name)), [1.0, float(i)])

    def test_vector_is_read_only_and_input_is_copied(self):
        given = np.array([1.0, 2.0])
        store = SemanticVectorStore(2, {synset_id("a"): given})
        with pytest.raises(ValueError):
            store.vector(synset_id("a"))[0] = 5.0
        given[1] = 7.0
        np.testing.assert_array_equal(store.vector(synset_id("a")), [1.0, 2.0])

    @pytest.mark.parametrize(
        ("vectors", "message"),
        [
            (
                {synset_id("ok"): [1.0, 0.0], synset_id("z"): [0.0, 0.0], synset_id("y"): [0.0, 0.0]},
                "zero vectors are not allowed: ['syn:y', 'syn:z']",
            ),
            ({synset_id("a"): [1.0, math.inf]}, "vector for syn:a has non-finite components"),
            ({sememe_id("s"): [1.0, 0.0]}, "semantic vectors are keyed by synset ids, got sem:s"),
            ({synset_id("a"): [1.0, 0.0, 2.0]}, "vector for syn:a has shape (3,), expected (2,)"),
        ],
        ids=["zero", "non-finite", "wrong-kind", "wrong-shape"],
    )
    def test_construction_errors_read_exactly(self, vectors, message):
        with pytest.raises(ValidationError) as info:
            SemanticVectorStore(2, {n: np.array(v) for n, v in vectors.items()})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            # Lines 3 and 4 are zero; the message lists both in name order.
            ("syn:a\t1.0 0.5\nsyn:z\t0.0 0.0\nsyn:y\t0.0 -0.0\n",
             "3: zero vectors are not allowed: ['syn:y', 'syn:z']"),
            # The blank line 3 still counts, and syn:c comes first in the file.
            ("syn:a\t1.0 0.5\n\nsyn:c\t1e200 1e200\nsyn:b\t1e-200 0\n",
             "4: vectors whose norm overflows or underflows are not allowed: ['syn:b', 'syn:c']"),
            # Zero rows are checked first, so the zero row is named.
            ("syn:c\t1e200 1e200\nsyn:a\t1.0 0.5\nsyn:b\t0 0\n",
             "4: zero vectors are not allowed: ['syn:b']"),
        ],
        ids=["zero", "norm", "zero-after-norm"],
    )
    def test_rejected_row_names_its_first_line(self, tmp_path, body, message):
        path = tmp_path / "vectors.tsv"
        path.write_text("D=2\n" + body)
        with pytest.raises(ParseError) as info:
            SemanticVectorStore.load(path)
        assert str(info.value) == f"{path}:{message}"

    def test_duplicate_error_reads_exactly(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("D=2\nsyn:a\t1.0 0.5\nsyn:a\t1.0 2.0\n")
        with pytest.raises(ValidationError) as info:
            SemanticVectorStore.load(path)
        assert str(info.value) == f"{path}:3: duplicate id 'syn:a'"


class TestRankNeighbors:
    def test_identical_candidate_ranks_first_with_cosine_one(self):
        store = _store({"t": [2.0, 1.0], "same": [2.0, 1.0], "other": [1.0, -3.0]})
        pairs = rank_neighbors(store, synset_id("t"), [synset_id("same"), synset_id("other")])
        assert pairs[0][0] == synset_id("same")
        np.testing.assert_allclose(pairs[0][1], 1.0, atol=1e-12)

    def test_hand_cosines_and_order(self):
        inv = 1.0 / math.sqrt(2.0)
        store = _store({"t": [1.0, 0.0], "a": [inv, inv], "b": [0.0, 1.0]})
        pairs = rank_neighbors(store, synset_id("t"), [synset_id("a"), synset_id("b")])
        assert [p[0] for p in pairs] == [synset_id("a"), synset_id("b")]
        np.testing.assert_allclose([p[1] for p in pairs], [inv, 0.0], atol=1e-12)

    def test_scaling_all_vectors_changes_nothing(self):
        raw = {"t": [1.0, 2.0], "a": [3.0, -1.0], "b": [0.5, 0.5], "c": [-2.0, 1.0]}
        annotated = [synset_id(n) for n in ("a", "b", "c")]
        base = rank_neighbors(_store(raw), synset_id("t"), annotated)
        scaled = rank_neighbors(
            _store({k: [7.0 * x for x in v] for k, v in raw.items()}), synset_id("t"), annotated
        )
        assert [p[0] for p in base] == [p[0] for p in scaled]
        np.testing.assert_allclose([p[1] for p in base], [p[1] for p in scaled], atol=1e-12)

    def test_target_never_its_own_neighbor(self):
        store = _store({"t": [1.0, 0.0], "a": [0.0, 1.0]})
        pairs = rank_neighbors(store, synset_id("t"), [synset_id("t"), synset_id("a")])
        assert [p[0] for p in pairs] == [synset_id("a")]

    def test_tie_broken_by_name(self):
        store = _store({"t": [1.0, 0.0], "y": [2.0, 0.0], "x": [3.0, 0.0]})
        pairs = rank_neighbors(store, synset_id("t"), [synset_id("y"), synset_id("x")])
        assert [p[0] for p in pairs] == [synset_id("x"), synset_id("y")]

    def test_uncovered_target_raises(self):
        store = _store({"a": [1.0, 0.0]})
        with pytest.raises(CoverageError):
            rank_neighbors(store, synset_id("t"), [synset_id("a")])

    def test_no_covered_candidate_raises(self):
        store = _store({"t": [1.0, 0.0]})
        with pytest.raises(CoverageError):
            rank_neighbors(store, synset_id("t"), [synset_id("a"), synset_id("b")])

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_a_contract_error(self, limit):
        store = _store({"t": [1.0, 0.0], "a": [0.0, 1.0], "b": [1.0, 1.0]})
        with pytest.raises(ContractError, match=f"limit must be >= 1 or None, got {limit}"):
            rank_neighbors(store, synset_id("t"), [synset_id("a"), synset_id("b")], limit=limit)

    def test_changed_annotated_set_is_searched_anew(self):
        # The gathered block is reused across calls on one store, so it must
        # follow the annotated set's value, not the object passed.
        rng = np.random.default_rng(3)
        raw = {f"b{i}": rng.normal(size=3).tolist() for i in range(8)}
        store = _store(raw)
        first = {synset_id(f"b{i}"): frozenset() for i in range(1, 8)}
        second = {synset_id(f"b{i}"): frozenset() for i in (0, 2, 5)}
        calls = [(synset_id("b0"), first), (synset_id("b1"), second), (synset_id("b3"), first),
                 (synset_id("b1"), second), (synset_id("b0"), first)]
        for target, annotations in calls:
            for limit in (None, 2):
                assert rank_neighbors(store, target, annotations.keys(), limit=limit) == rank_neighbors(
                    _store(raw), target, annotations.keys(), limit=limit
                )
        # The same mapping object before and after it loses a key.
        before = rank_neighbors(store, synset_id("b0"), first)
        del first[synset_id("b4")]
        after = rank_neighbors(store, synset_id("b0"), first)
        assert after == rank_neighbors(_store(raw), synset_id("b0"), first)
        assert [n for n, _ in after] == [n for n, _ in before if n != synset_id("b4")]


def _fixture_neighbors():
    return [(synset_id("b1"), 0.9), (synset_id("b2"), 0.5)]


def _fixture_annotations():
    return {
        synset_id("b1"): frozenset({sememe_id("s1")}),
        synset_id("b2"): frozenset({sememe_id("s1"), sememe_id("s2")}),
    }


class TestScoreSememes:
    def test_hand_fixture(self):
        # s1 collects 0.9*0.8 + 0.5*0.64, s2 only the second term.
        ranking = score_sememes(
            synset_id("t"), _fixture_neighbors(), _fixture_annotations(), SrConfig(decay=0.8)
        )
        assert ranking.sememes() == (sememe_id("s1"), sememe_id("s2"))
        np.testing.assert_allclose(ranking.score(sememe_id("s1")), 1.04, rtol=1e-12)
        np.testing.assert_allclose(ranking.score(sememe_id("s2")), 0.32, rtol=1e-12)

    def test_tiny_decay_concentrates_mass_on_rank_one(self):
        ranking = score_sememes(
            synset_id("t"), _fixture_neighbors(), _fixture_annotations(), SrConfig(decay=0.01)
        )
        assert ranking.sememes() == (sememe_id("s1"), sememe_id("s2"))
        np.testing.assert_allclose(ranking.score(sememe_id("s1")), 0.00905, rtol=1e-12)
        np.testing.assert_allclose(ranking.score(sememe_id("s2")), 0.00005, rtol=1e-12)

    def test_single_neighbor_ties_all_its_sememes(self):
        neighbors = [(synset_id("b"), 0.6)]
        annotations = {synset_id("b"): frozenset({sememe_id("s2"), sememe_id("s1")})}
        ranking = score_sememes(synset_id("t"), neighbors, annotations, SrConfig(decay=0.8))
        assert ranking.sememes() == (sememe_id("s1"), sememe_id("s2"))
        np.testing.assert_allclose(ranking.score(sememe_id("s1")), 0.6 * 0.8, rtol=1e-12)
        assert ranking.score(sememe_id("s1")) == ranking.score(sememe_id("s2"))

    def test_cap_one_keeps_only_nearest_neighbor_sememes(self):
        ranking = score_sememes(
            synset_id("t"),
            _fixture_neighbors(),
            _fixture_annotations(),
            SrConfig(decay=0.8, neighbor_cap=1),
        )
        positive = {s for s in ranking.sememes() if ranking.score(s) > 0.0}
        assert positive == {sememe_id("s1")}

    def test_zero_score_candidates_sort_after_positives(self):
        ranking = score_sememes(
            synset_id("t"),
            _fixture_neighbors(),
            _fixture_annotations(),
            SrConfig(decay=0.8),
            candidates=[sememe_id("s3"), sememe_id("s2"), sememe_id("s1"), sememe_id("s0")],
        )
        assert ranking.sememes() == (
            sememe_id("s1"),
            sememe_id("s2"),
            sememe_id("s0"),
            sememe_id("s3"),
        )
        assert ranking.score(sememe_id("s0")) == 0.0
        assert ranking.score(sememe_id("s3")) == 0.0

    def test_negative_cosine_contributes_nothing(self):
        neighbors = [(synset_id("b"), -0.5)]
        annotations = {synset_id("b"): frozenset({sememe_id("s")})}
        ranking = score_sememes(synset_id("t"), neighbors, annotations, SrConfig())
        assert ranking.score(sememe_id("s")) == 0.0

    def test_unannotated_neighbor_is_a_contract_error(self):
        with pytest.raises(ContractError):
            score_sememes(
                synset_id("t"),
                [(synset_id("mystery"), 0.4)],
                _fixture_annotations(),
                SrConfig(),
            )

    def test_empty_neighbors_is_a_contract_error(self):
        with pytest.raises(ContractError):
            score_sememes(synset_id("t"), [], _fixture_annotations(), SrConfig())

    def test_non_sememe_candidate_is_a_contract_error(self):
        with pytest.raises(ContractError):
            score_sememes(
                synset_id("t"),
                _fixture_neighbors(),
                _fixture_annotations(),
                SrConfig(),
                candidates=[synset_id("not_a_sememe")],
            )


class TestRecommend:
    def test_composes_ranking_and_scoring(self):
        store = _store({"t": [1.0, 0.0], "b1": [1.0, 0.2], "b2": [0.1, 1.0]})
        annotations = _fixture_annotations()
        config = SrConfig(decay=0.8)
        direct = recommend(store, synset_id("t"), annotations, config)
        neighbors = rank_neighbors(store, synset_id("t"), annotations.keys())
        staged = score_sememes(synset_id("t"), neighbors, annotations, config)
        assert direct == staged

    def test_target_without_vector_propagates_coverage_error(self):
        store = _store({"b1": [1.0, 0.2], "b2": [0.1, 1.0]})
        with pytest.raises(CoverageError):
            recommend(store, synset_id("t"), _fixture_annotations(), SrConfig())


_neighbor_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=19),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda t: t[0],
)
_membership = st.lists(
    st.sets(st.integers(min_value=0, max_value=9), max_size=4), min_size=20, max_size=20
)


def _materialize(raw_neighbors, raw_membership):
    neighbors = [(synset_id(f"n{i:02d}"), cos) for i, cos in raw_neighbors]
    neighbors.sort(key=lambda p: (-p[1], p[0].name))
    annotations = {
        synset_id(f"n{i:02d}"): frozenset(sememe_id(f"s{j}") for j in sememes)
        for i, sememes in enumerate(raw_membership)
    }
    return neighbors, annotations


class TestScoreProperties:
    @given(raw_neighbors=_neighbor_lists, raw_membership=_membership, decay=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_additivity_matches_double_loop(self, raw_neighbors, raw_membership, decay):
        neighbors, annotations = _materialize(raw_neighbors, raw_membership)
        config = SrConfig(decay=decay, neighbor_cap=None)
        ranking = score_sememes(synset_id("t"), neighbors, annotations, config)
        for sememe in ranking.sememes():
            expected = sum(
                max(cos, 0.0) * decay**rank
                for rank, (neighbor, cos) in enumerate(neighbors, start=1)
                if sememe in annotations[neighbor]
            )
            np.testing.assert_allclose(ranking.score(sememe), expected, atol=1e-9)

    @given(raw_neighbors=_neighbor_lists, raw_membership=_membership)
    @settings(max_examples=60, deadline=None)
    def test_dropping_a_trailing_unrelated_neighbor_changes_nothing(
        self, raw_neighbors, raw_membership
    ):
        # Removing the last neighbor leaves every other rank in place, so
        # sememes it does not carry keep their exact scores.
        neighbors, annotations = _materialize(raw_neighbors, raw_membership)
        if len(neighbors) < 2:
            return
        config = SrConfig(decay=0.8, neighbor_cap=None)
        full = score_sememes(synset_id("t"), neighbors, annotations, config)
        last_sememes = annotations[neighbors[-1][0]]
        shrunk = score_sememes(synset_id("t"), neighbors[:-1], annotations, config)
        for sememe in full.sememes():
            if sememe in last_sememes:
                continue
            assert sememe in shrunk
            assert shrunk.score(sememe) == full.score(sememe)

    @given(raw_neighbors=_neighbor_lists, raw_membership=_membership)
    @settings(max_examples=60, deadline=None)
    def test_dropping_any_neighbor_never_lowers_surviving_scores(
        self, raw_neighbors, raw_membership
    ):
        # Every term is nonnegative and survivors can only move up a rank,
        # which raises their decay weight.
        neighbors, annotations = _materialize(raw_neighbors, raw_membership)
        config = SrConfig(decay=0.8, neighbor_cap=None)
        full = score_sememes(synset_id("t"), neighbors, annotations, config)
        for drop_at in range(len(neighbors)):
            dropped_sememes = annotations[neighbors[drop_at][0]]
            reduced = neighbors[:drop_at] + neighbors[drop_at + 1 :]
            if not reduced:
                continue
            shrunk = score_sememes(synset_id("t"), reduced, annotations, config)
            for sememe in full.sememes():
                if sememe in dropped_sememes:
                    continue
                reduced_score = shrunk.score(sememe) if sememe in shrunk else 0.0
                assert reduced_score >= full.score(sememe) - 1e-12

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_preserves_ranks(self, scale, seed):
        rng = np.random.default_rng(seed)
        raw = {f"v{i}": rng.normal(size=4).tolist() for i in range(6)}
        raw["t"] = rng.normal(size=4).tolist()
        annotated = [synset_id(f"v{i}") for i in range(6)]
        annotations = {
            synset_id(f"v{i}"): frozenset({sememe_id(f"s{i % 3}"), sememe_id(f"s{(i + 1) % 4}")})
            for i in range(6)
        }
        config = SrConfig(decay=0.8)
        base = recommend(_store(raw), synset_id("t"), annotations, config)
        scaled_store = _store({k: [scale * x for x in v] for k, v in raw.items()})
        scaled = recommend(scaled_store, synset_id("t"), annotations, config)
        assert base.sememes() == scaled.sememes()
