from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    ConfigError,
    ContractError,
    FusionConfig,
    ParseError,
    PredictionResult,
    Provenance,
    ScoredRanking,
    ValidationError,
    fuse,
    load_predictions,
    save_predictions,
    sememe_id,
    synset_id,
    threshold_select,
)

TARGET = synset_id("t")


def _ranking(order: list[str], start: float = 0.0) -> ScoredRanking:
    entries = tuple(
        (sememe_id(name), start + float(len(order) - i)) for i, name in enumerate(order)
    )
    return ScoredRanking(TARGET, entries)


class TestFusionConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert config.similarity_weight == 0.45
        assert config.translation_weight == 0.55
        assert config.threshold == 0.32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"similarity_weight": -0.1},
            {"translation_weight": -1.0},
            {"similarity_weight": 0.0, "translation_weight": 0.0},
        ],
    )
    def test_invalid_weights(self, kwargs):
        with pytest.raises(ConfigError):
            FusionConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["similarity_weight", "translation_weight", "threshold"])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            FusionConfig(**{field: value})

    def test_single_zero_weight_is_allowed(self):
        assert FusionConfig(similarity_weight=0.0).similarity_weight == 0.0


class TestFuse:
    def test_hand_value(self):
        # s1 sits at rank 1 under similarity and rank 2 under translation.
        similarity = _ranking(["s1", "s2"])
        translation = _ranking(["s2", "s1"])
        fused = fuse(similarity, translation, FusionConfig())
        np.testing.assert_allclose(fused.score(sememe_id("s1")), 0.45 / 1 + 0.55 / 2, rtol=0)
        np.testing.assert_allclose(fused.score(sememe_id("s1")), 0.725, rtol=1e-12)
        np.testing.assert_allclose(fused.score(sememe_id("s2")), 0.45 / 2 + 0.55 / 1, rtol=0)

    def test_zero_similarity_weight_reproduces_translation_order(self):
        similarity = _ranking(["s3", "s1", "s2"])
        translation = _ranking(["s2", "s3", "s1"])
        fused = fuse(similarity, translation, FusionConfig(similarity_weight=0.0))
        assert fused.sememes() == translation.sememes()

    def test_missing_similarity_reproduces_translation_order(self):
        translation = _ranking(["s2", "s3", "s1"])
        fused = fuse(None, translation, FusionConfig())
        assert fused.sememes() == translation.sememes()
        for rank, s in enumerate(fused.sememes(), start=1):
            assert fused.score(s) == 0.55 / rank

    def test_candidate_mismatch_is_a_contract_error(self):
        similarity = _ranking(["s1", "s2"])
        translation = _ranking(["s1", "s3"])
        with pytest.raises(ContractError, match="candidate sets differ"):
            fuse(similarity, translation, FusionConfig())

    def test_target_mismatch_is_a_contract_error(self):
        similarity = ScoredRanking(synset_id("other"), ((sememe_id("s1"), 1.0),))
        translation = ScoredRanking(TARGET, ((sememe_id("s1"), 1.0),))
        with pytest.raises(ContractError, match="different targets"):
            fuse(similarity, translation, FusionConfig())


class TestSingleRanking:
    def test_scores_become_weight_over_rank(self):
        ranking = _ranking(["s2", "s1", "s3"], start=10.0)
        normalized = fuse(ranking, None, FusionConfig(similarity_weight=0.5))
        assert normalized.sememes() == ranking.sememes()
        for rank, s in enumerate(normalized.sememes(), start=1):
            assert normalized.score(s) == 0.5 / rank

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError, match="fusion.translation_weight is 0"):
            fuse(None, _ranking(["s1"]), FusionConfig(translation_weight=0.0))

    def test_no_ranking_is_a_contract_error(self):
        with pytest.raises(ContractError, match="at least one ranking"):
            fuse(None, None, FusionConfig())


class TestThresholdSelect:
    def test_hand_fixture(self):
        ranking = ScoredRanking(TARGET, ((sememe_id("s1"), 0.725), (sememe_id("s2"), 0.28)))
        result = threshold_select(ranking, 0.32, Provenance.FUSED)
        assert result.selected == {sememe_id("s1")}
        assert result.ranking is ranking

    def test_inequality_is_strict(self):
        ranking = ScoredRanking(TARGET, ((sememe_id("s1"), 0.32),))
        result = threshold_select(ranking, 0.32, Provenance.FUSED)
        assert result.selected == frozenset()

    def test_empty_ranking_selects_nothing(self):
        ranking = ScoredRanking(TARGET, ())
        result = threshold_select(ranking, 0.32, Provenance.FUSED)
        assert result.selected == frozenset()

    def test_low_threshold_selects_everything(self):
        ranking = _ranking(["s1", "s2", "s3"])
        result = threshold_select(ranking, 0.5, Provenance.TRANSLATION)
        assert result.selected == set(ranking.sememes())


class TestPredictionResult:
    def test_selected_must_come_from_ranking(self):
        ranking = _ranking(["s1"])
        with pytest.raises(ValidationError, match="missing from ranking"):
            PredictionResult(TARGET, ranking, frozenset({sememe_id("ghost")}), Provenance.FUSED)

    def test_target_must_match_ranking(self):
        ranking = _ranking(["s1"])
        with pytest.raises(ValidationError, match="does not match"):
            PredictionResult(synset_id("other"), ranking, frozenset(), Provenance.FUSED)


_permutation = st.permutations(list(range(5)))
_weights = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)


def _from_permutation(order) -> ScoredRanking:
    names = [f"s{i}" for i in order]
    return _ranking(names)


class TestFusionProperties:
    @given(sim_order=_permutation, tr_order=_permutation, lam_c=_weights, lam_r=_weights)
    @settings(max_examples=80, deadline=None)
    def test_scores_bounded_with_max_iff_double_rank_one(
        self, sim_order, tr_order, lam_c, lam_r
    ):
        config = FusionConfig(lam_c, lam_r, threshold=0.0)
        similarity = _from_permutation(sim_order)
        translation = _from_permutation(tr_order)
        fused = fuse(similarity, translation, config)
        top = lam_c + lam_r
        for s in fused.sememes():
            assert 0.0 < fused.score(s) <= top
            hits_max = fused.score(s) == top
            assert hits_max == (similarity.rank(s) == 1 and translation.rank(s) == 1)

    @given(sim_order=_permutation, tr_order=_permutation)
    @settings(max_examples=80, deadline=None)
    def test_improving_a_rank_never_lowers_the_fused_score(self, sim_order, tr_order):
        config = FusionConfig()
        similarity = _from_permutation(sim_order)
        translation = _from_permutation(tr_order)
        fused = fuse(similarity, translation, config)
        # Swap the top two similarity entries: the promoted sememe must not
        # lose fused score, the demoted one must not gain.
        swapped = _from_permutation([sim_order[1], sim_order[0]] + list(sim_order[2:]))
        refused = fuse(swapped, translation, config)
        promoted = sememe_id(f"s{sim_order[1]}")
        demoted = sememe_id(f"s{sim_order[0]}")
        assert refused.score(promoted) >= fused.score(promoted)
        assert refused.score(demoted) <= fused.score(demoted)

    @given(sim_order=_permutation, tr_order=_permutation)
    @settings(max_examples=80, deadline=None)
    def test_monotone_transform_of_raw_scores_changes_nothing(self, sim_order, tr_order):
        config = FusionConfig()
        base = fuse(_from_permutation(sim_order), _from_permutation(tr_order), config)
        # 2x+1 on small integer scores is exact and strictly increasing, so
        # both rankings and the fused result are bit-identical.
        def stretch(ranking: ScoredRanking) -> ScoredRanking:
            return ScoredRanking(
                ranking.target, tuple((s, 2.0 * v + 1.0) for s, v in ranking.entries)
            )

        transformed = fuse(
            stretch(_from_permutation(sim_order)),
            stretch(_from_permutation(tr_order)),
            config,
        )
        assert transformed == base


class TestPredictionDump:
    def _results(self):
        fused = ScoredRanking(
            TARGET, ((sememe_id("s1"), 0.725), (sememe_id("s2"), 0.28), (sememe_id("s3"), -2.5))
        )
        other = ScoredRanking(synset_id("u"), ())
        return [
            threshold_select(fused, 0.32, Provenance.FUSED),
            threshold_select(other, 0.32, Provenance.FUSED),
        ]

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        results = self._results()
        save_predictions(results, path)
        loaded = load_predictions(path)
        assert len(loaded) == len(results)
        for got, want in zip(loaded, results):
            assert got.target == want.target
            assert got.ranking == want.ranking
            assert got.selected == want.selected
            assert got.provenance is Provenance.FUSED

    def test_selected_column_preserves_ranking_order(self, tmp_path):
        ranking = ScoredRanking(
            TARGET, ((sememe_id("s2"), 3.0), (sememe_id("s1"), 2.0), (sememe_id("s3"), 1.0))
        )
        path = tmp_path / "predictions.tsv"
        save_predictions([threshold_select(ranking, 1.5, Provenance.FUSED)], path)
        line = path.read_text().splitlines()[0]
        assert line.split("\t")[2] == "sem:s2,sem:s1"

    def test_wrong_field_count_is_a_parse_error(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:t\tsem:s1:1.0\n")
        with pytest.raises(ParseError, match="3 TAB-separated"):
            load_predictions(path)

    def test_bad_score_is_a_parse_error(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:t\tsem:s1:oops\t\n")
        with pytest.raises(ParseError, match="bad score"):
            load_predictions(path)

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_bytes(b"syn:t\tsem:s1:1.0\tsem:s1\nsyn:u\tsem:\xe2s2:1.0\t\n")
        with pytest.raises(ParseError, match=r"predictions\.tsv:2: not valid UTF-8"):
            load_predictions(path)

    def test_unsorted_scores_are_a_parse_error(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:t\tsem:s1:1.0,sem:s2:2.0\t\n")
        with pytest.raises(ParseError):
            load_predictions(path)

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("t\tsem:s1:1.0\t", "node id 't' lacks a syn:/sem: prefix"),
            ("syn:t\ts1:1.0\t", "node id 's1' lacks a syn:/sem: prefix"),
            ("syn:t\tsem:s1:1.0\ts1", "node id 's1' lacks a syn:/sem: prefix"),
            ("syn:t\tsem:s1:1.0\tsem:s2", r"selected sememes missing from ranking: \['sem:s2'\]"),
        ],
        ids=["target", "entry", "selected", "selected-unranked"],
    )
    def test_malformed_id_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "predictions.tsv"
        path.write_text(f"syn:u\t\t\n{line}\n")
        with pytest.raises(ParseError, match=rf"predictions\.tsv:2: {message}"):
            load_predictions(path)

    def test_repeated_target_names_both_lines(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:b\tsem:s1:1.0\t\nsyn:u\t\t\n\nsyn:b\tsem:s2:1.0\t\n")
        with pytest.raises(
            ParseError, match=r"predictions\.tsv:4: duplicate prediction for syn:b, first on line 1"
        ):
            load_predictions(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("\nsyn:t\tsem:s1:1.0\tsem:s1\n\n")
        loaded = load_predictions(path)
        assert len(loaded) == 1
        assert loaded[0].selected == {sememe_id("s1")}

    def test_malformed_id_names_the_line_where_it_first_appears(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:u\tsem:s1:1.0\t\nsyn:v\tsem:s1:1.0,s2:0.5\t\nsyn:w\ts2:1.0\t\n")
        with pytest.raises(ParseError, match=r"predictions\.tsv:2: node id 's2' lacks"):
            load_predictions(path)

    def test_a_name_repeated_across_lines_is_one_id(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("syn:u\tsem:s1:1.0\tsem:s1\nsyn:v\tsem:s2:2.0,sem:s1:1.0\tsem:s1\n")
        first, second = load_predictions(path)
        shared = first.ranking.entries[0][0]
        assert second.ranking.entries[1][0] is shared
        assert next(iter(second.selected)) is shared
