from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    BucketQuantity,
    BucketSpec,
    ConfigError,
    ContractError,
    Pos,
    PredictionResult,
    Provenance,
    ScoredRanking,
    Split,
    TripletStore,
    average_precision,
    bucket_analysis,
    evaluate,
    f1_score,
    make_triplet,
    sememe_difficulty,
    sememe_id,
    synset_id,
    synset_outcomes,
)
from semepred.evaluation import (
    format_report_table,
    save_bucket_csv,
    save_difficulty_table,
    save_report_jsonl,
)


def _ranking(target: str, order: list[str]) -> ScoredRanking:
    entries = tuple((sememe_id(s), float(len(order) - i)) for i, s in enumerate(order))
    return ScoredRanking(synset_id(target), entries)


def _result(target: str, order: list[str], selected: list[str]) -> PredictionResult:
    return PredictionResult(
        synset_id(target),
        _ranking(target, order),
        frozenset(sememe_id(s) for s in selected),
        Provenance.FUSED,
    )


def _eval_store(
    gold: dict[str, list[str]],
    pos: dict[str, Pos] | None = None,
    extra: list | None = None,
) -> TripletStore:
    triplets, split = [], {}
    for b, sememes in gold.items():
        for s in sememes:
            t = make_triplet(synset_id(b), "have_sememe", sememe_id(s))
            triplets.append(t)
            split[t] = Split.TEST
    triplets.extend(extra or [])
    pos_tags = {synset_id(b): p for b, p in (pos or {}).items()}
    return TripletStore(triplets, pos_tags, split)


class TestAveragePrecision:
    def test_single_gold_at_rank_one(self):
        ranking = _ranking("b", ["s1", "s2", "s3"])
        assert average_precision([sememe_id("s1")], ranking) == 1.0

    def test_two_gold_at_ranks_one_and_three(self):
        ranking = _ranking("b", ["s1", "s2", "s3", "s4", "s5"])
        gold = [sememe_id("s1"), sememe_id("s3")]
        np.testing.assert_allclose(average_precision(gold, ranking), (1.0 + 2.0 / 3.0) / 2.0, rtol=0)

    def test_gold_at_ranks_one_and_two_of_three(self):
        ranking = _ranking("b", ["s1", "s2", "s3"])
        gold = [sememe_id("s1"), sememe_id("s2")]
        assert average_precision(gold, ranking) == 1.0

    def test_all_candidates_gold_scores_one_in_any_order(self):
        for order in (["s1", "s2", "s3"], ["s3", "s1", "s2"]):
            ranking = _ranking("b", order)
            gold = [sememe_id(s) for s in ("s1", "s2", "s3")]
            assert average_precision(gold, ranking) == 1.0

    def test_empty_gold_is_a_contract_error(self):
        with pytest.raises(ContractError, match="empty gold"):
            average_precision([], _ranking("b", ["s1"]))

    def test_gold_outside_ranking_is_a_contract_error(self):
        with pytest.raises(ContractError, match="missing from ranking"):
            average_precision([sememe_id("ghost")], _ranking("b", ["s1"]))


class TestF1Score:
    def test_perfect_selection(self):
        gold = [sememe_id("a"), sememe_id("b")]
        assert f1_score(gold, gold) == 1.0

    def test_half_overlap(self):
        selected = [sememe_id("a"), sememe_id("b")]
        gold = [sememe_id("b"), sememe_id("c")]
        assert f1_score(gold, selected) == 0.5

    def test_empty_selection_scores_zero(self):
        assert f1_score([sememe_id("a")], []) == 0.0

    def test_disjoint_selection_scores_zero(self):
        assert f1_score([sememe_id("a")], [sememe_id("b")]) == 0.0

    def test_empty_gold_is_a_contract_error(self):
        with pytest.raises(ContractError):
            f1_score([], [sememe_id("a")])


_gold_positions = st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8)


class TestMetricProperties:
    @given(gold_positions=_gold_positions)
    @settings(max_examples=100, deadline=None)
    def test_ap_in_unit_interval_and_one_iff_gold_on_top(self, gold_positions):
        names = [f"s{i}" for i in range(8)]
        ranking = _ranking("b", names)
        gold = [sememe_id(names[i]) for i in gold_positions]
        ap = average_precision(gold, ranking)
        assert 0.0 < ap <= 1.0
        on_top = gold_positions == set(range(len(gold_positions)))
        assert (ap == 1.0) == on_top

    @given(gold_positions=_gold_positions, permutation=st.permutations(list(range(8))))
    @settings(max_examples=100, deadline=None)
    def test_ap_ignores_order_below_the_last_gold(self, gold_positions, permutation):
        names = [f"s{i}" for i in range(8)]
        last = max(gold_positions)
        tail = [names[i] for i in permutation if i > last]
        shuffled = names[: last + 1] + tail
        gold = [sememe_id(names[i]) for i in gold_positions]
        assert average_precision(gold, _ranking("b", shuffled)) == average_precision(
            gold, _ranking("b", names)
        )

    @given(
        aps_a=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        aps_b=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_overall_map_is_the_size_weighted_mean_of_pos_groups(self, aps_a, aps_b):
        # Two POS groups with known per-synset outcomes; the all row must
        # equal the size-weighted mean of the group rows.
        gold: dict[str, list[str]] = {}
        pos: dict[str, Pos] = {}
        results = {}
        for tag, prefix, quality in ((Pos.NOUN, "n", aps_a), (Pos.VERB, "v", aps_b)):
            for i, q in enumerate(quality):
                name = f"{prefix}{i}"
                gold[name] = ["g"]
                pos[name] = tag
                # q controls the gold rank: rank q+1 among 5 candidates.
                order = [f"f{j}" for j in range(q)] + ["g"] + [f"f{j}" for j in range(q, 4)]
                results[synset_id(name)] = _result(name, order, ["g"] if q == 0 else [])
        store = _eval_store(gold, pos)
        report = evaluate(results, store, Split.TEST)
        noun, verb, overall = report.rows["noun"], report.rows["verb"], report.rows["all"]
        weighted = (noun.n * noun.map_score + verb.n * verb.map_score) / overall.n
        np.testing.assert_allclose(overall.map_score, weighted, rtol=1e-12)


class TestEvaluate:
    def test_perfect_predictions_score_one_everywhere(self):
        gold = {"b1": ["s1", "s2"], "b2": ["s3"]}
        store = _eval_store(gold, {"b1": Pos.NOUN, "b2": Pos.VERB})
        results = {
            synset_id("b1"): _result("b1", ["s1", "s2", "s3"], ["s1", "s2"]),
            synset_id("b2"): _result("b2", ["s3", "s1"], ["s3"]),
        }
        report = evaluate(results, store, Split.TEST)
        assert set(report.rows) == {"all", "noun", "verb"}
        for row in report.rows.values():
            assert row.map_score == 1.0
            assert row.f1 == 1.0
        assert report.rows["all"].n == 2
        assert report.uncovered == ()

    def test_uncovered_synsets_count_as_zero_and_are_listed(self):
        store = _eval_store({"b1": ["s1"], "b2": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        report = evaluate(results, store, Split.TEST)
        assert report.uncovered == (synset_id("b2"),)
        np.testing.assert_allclose(report.rows["all"].map_score, 0.5, rtol=0)
        np.testing.assert_allclose(report.rows["all"].f1, 0.5, rtol=0)

    def test_extraneous_result_is_a_contract_error(self):
        store = _eval_store({"b1": ["s1"]})
        results = {
            synset_id("b1"): _result("b1", ["s1"], ["s1"]),
            synset_id("ghost"): _result("ghost", ["s1"], []),
        }
        with pytest.raises(ContractError, match="outside the test split"):
            evaluate(results, store, Split.TEST)

    def test_empty_split_is_a_contract_error(self):
        store = _eval_store({"b1": ["s1"]})
        with pytest.raises(ContractError, match="no annotated synsets"):
            evaluate({}, store, Split.VALID)

    def test_macro_and_micro_f1_differ_on_an_asymmetric_fixture(self):
        # b1: one gold, hit. b2: two gold, one wrong selection.
        store = _eval_store({"b1": ["s1"], "b2": ["s1", "s2"]})
        results = {
            synset_id("b1"): _result("b1", ["s1", "s2"], ["s1"]),
            synset_id("b2"): _result("b2", ["s3", "s1", "s2"], ["s3"]),
        }
        macro = evaluate(results, store, Split.TEST, f1_mode="macro")
        micro = evaluate(results, store, Split.TEST, f1_mode="micro")
        np.testing.assert_allclose(macro.rows["all"].f1, 0.5, rtol=0)
        # Pooled: hits=1, selected=2, gold=3.
        np.testing.assert_allclose(micro.rows["all"].f1, 0.4, rtol=1e-12)
        assert macro.rows["all"].map_score == micro.rows["all"].map_score

    def test_unknown_f1_mode_rejected(self):
        store = _eval_store({"b1": ["s1"]})
        with pytest.raises(ConfigError):
            evaluate({}, store, Split.TEST, f1_mode="pooled")

    def test_pos_scopes_only_for_present_tags(self):
        store = _eval_store({"b1": ["s1"]}, {"b1": Pos.ADJ})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        report = evaluate(results, store, Split.TEST)
        assert set(report.rows) == {"all", "adj"}


class TestBucketSpec:
    def test_first_boundary_must_be_zero(self):
        with pytest.raises(ConfigError, match="must be 0"):
            BucketSpec(BucketQuantity.SYNSET_DEGREE, (1, 5))

    def test_boundaries_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            BucketSpec(BucketQuantity.SYNSET_DEGREE, (0, 5, 5))

    def test_at_least_one_boundary(self):
        with pytest.raises(ConfigError):
            BucketSpec(BucketQuantity.SYNSET_DEGREE, ())

    def test_bucket_of(self):
        spec = BucketSpec(BucketQuantity.SYNSET_DEGREE, (0, 5, 10))
        assert [spec.bucket_of(v) for v in (0, 4, 5, 9, 10, 100)] == [0, 0, 1, 1, 2, 2]
        with pytest.raises(ContractError):
            spec.bucket_of(-1)

    def test_labels_and_bounds(self):
        spec = BucketSpec(BucketQuantity.SYNSET_DEGREE, (0, 5, 10))
        assert [spec.label(i) for i in range(3)] == ["0-4", "5-9", "10+"]
        assert spec.bounds(2) == (10, None)
        singles = BucketSpec(BucketQuantity.SEMEME_COUNT, (0, 1, 2))
        assert [singles.label(i) for i in range(3)] == ["0", "1", "2+"]


class TestBucketAnalysis:
    def test_single_bucket_matches_overall_row(self):
        store = _eval_store({"b1": ["s1"], "b2": ["s1", "s2"]})
        results = {
            synset_id("b1"): _result("b1", ["s1", "s2"], ["s1"]),
            synset_id("b2"): _result("b2", ["s2", "s1"], ["s2"]),
        }
        report = evaluate(results, store, Split.TEST)
        spec = BucketSpec(BucketQuantity.SYNSET_DEGREE, (0,))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        assert len(rows) == 1
        assert rows[0].n == report.rows["all"].n
        assert rows[0].map_score == report.rows["all"].map_score
        assert rows[0].f1 == report.rows["all"].f1

    def test_two_synsets_land_in_their_own_degree_buckets(self):
        # b2 gains degree 3 from two extra related-synset triplets.
        extra = [
            make_triplet(synset_id("b2"), "related", synset_id("b1")),
            make_triplet(synset_id("b1"), "related", synset_id("b2")),
        ]
        store = _eval_store({"b1": ["s1"], "b2": ["s1", "s2"]}, extra=extra)
        results = {
            synset_id("b1"): _result("b1", ["s1", "s2"], ["s1"]),
            synset_id("b2"): _result("b2", ["s2", "s3", "s1"], []),
        }
        spec = BucketSpec(BucketQuantity.SYNSET_DEGREE, (0, 4))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        # b1 has degree 3 (one have + two related), b2 degree 4.
        assert [row.n for row in rows] == [1, 1]
        np.testing.assert_allclose(rows[0].map_score, 1.0, rtol=0)
        # b2's gold sits at ranks 1 and 3.
        np.testing.assert_allclose(rows[1].map_score, (1.0 + 2.0 / 3.0) / 2.0, rtol=1e-12)
        assert rows[1].f1 == 0.0

    def test_sememe_count_bucketing(self):
        store = _eval_store({"b1": ["s1"], "b2": ["s1", "s2", "s3"]})
        results = {
            synset_id("b1"): _result("b1", ["s1"], ["s1"]),
            synset_id("b2"): _result("b2", ["s1", "s2", "s3"], []),
        }
        spec = BucketSpec(BucketQuantity.SEMEME_COUNT, (0, 2))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        assert [row.n for row in rows] == [1, 1]
        assert rows[0].map_score == 1.0
        assert rows[1].map_score == 1.0
        assert rows[1].f1 == 0.0

    def test_empty_bucket_reports_n_zero_and_no_metrics(self):
        store = _eval_store({"b1": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        spec = BucketSpec(BucketQuantity.SEMEME_COUNT, (0, 100))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        assert rows[1].n == 0
        assert rows[1].map_score is None
        assert rows[1].f1 is None

    def test_sememe_degree_counts_sememes_but_averages_synsets(self):
        # s_hi picks up degree from antonym edges; s_lo only has its two
        # have triplets.  b1 carries both sememes so its outcome lands in
        # both buckets; n still counts distinct sememes per bucket.
        extra = [
            make_triplet(sememe_id("s_hi"), "antonym", sememe_id("filler")),
            make_triplet(sememe_id("filler"), "antonym", sememe_id("s_hi")),
            make_triplet(sememe_id("s_hi"), "antonym", sememe_id("filler2")),
        ]
        store = _eval_store({"b1": ["s_hi", "s_lo"], "b2": ["s_lo"]}, extra=extra)
        results = {
            synset_id("b1"): _result("b1", ["s_hi", "s_lo"], ["s_hi", "s_lo"]),
            synset_id("b2"): _result("b2", ["s1", "s_lo"], []),
        }
        spec = BucketSpec(BucketQuantity.SEMEME_DEGREE, (0, 3))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        # degrees: s_lo = 2 (two have edges), s_hi = 4 (one have + three antonym).
        low, high = rows
        assert low.n == 1 and high.n == 1
        np.testing.assert_allclose(low.map_score, (1.0 + 0.5) / 2.0, rtol=0)
        np.testing.assert_allclose(high.map_score, 1.0, rtol=0)


class TestSememeDifficulty:
    def test_single_perfect_instance(self):
        store = _eval_store({"b1": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        easiest, hardest = sememe_difficulty(synset_outcomes(results, store, Split.TEST), top_k=1)
        assert easiest == hardest
        entry = easiest[0]
        assert entry.sememe == sememe_id("s1")
        assert entry.n == 1
        assert entry.map_score == 1.0
        assert entry.f1 == 1.0

    def test_averages_match_hand_computation(self):
        store = _eval_store({"b1": ["s1"], "b2": ["s1", "s2"], "b3": ["s2"]})
        results = {
            synset_id("b1"): _result("b1", ["s1", "s2"], ["s1"]),
            synset_id("b2"): _result("b2", ["s2", "f1", "f2", "s1"], ["s2"]),
            synset_id("b3"): _result("b3", ["s1", "s2"], []),
        }
        easiest, hardest = sememe_difficulty(synset_outcomes(results, store, Split.TEST), top_k=2)
        by_name = {e.sememe.name: e for e in easiest}
        # s1 occurs with b1 (AP 1.0) and b2 (gold at ranks 1 and 4: AP 0.75).
        np.testing.assert_allclose(by_name["sem:s1"].map_score, 0.875, rtol=0)
        # s2 occurs with b2 (AP 0.75) and b3 (AP 0.5).
        np.testing.assert_allclose(by_name["sem:s2"].map_score, 0.625, rtol=0)
        assert [e.sememe.name for e in easiest] == ["sem:s1", "sem:s2"]
        assert [e.sememe.name for e in hardest] == ["sem:s2", "sem:s1"]

    def test_top_k_truncates_with_a_warning(self, caplog):
        store = _eval_store({"b1": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        with caplog.at_level(logging.WARNING, logger="semepred.evaluation"):
            easiest, hardest = sememe_difficulty(synset_outcomes(results, store, Split.TEST), top_k=10)
        assert len(easiest) == len(hardest) == 1
        assert any("truncating" in r.message for r in caplog.records)

    def test_top_k_must_be_positive(self):
        store = _eval_store({"b1": ["s1"]})
        with pytest.raises(ConfigError):
            sememe_difficulty(synset_outcomes({}, store, Split.TEST), top_k=0)


class TestReportOutputs:
    def _report(self):
        store = _eval_store({"b1": ["s1"], "b2": ["s1"]}, {"b1": Pos.NOUN, "b2": Pos.NOUN})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        return evaluate(results, store, Split.TEST)

    def test_jsonl_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.jsonl"
        save_report_jsonl(report, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["scope"] for r in records] == ["all", "noun", "uncovered"]
        assert records[0]["n"] == 2
        np.testing.assert_allclose(records[0]["map"], 0.5, rtol=0)
        assert records[-1] == {"scope": "uncovered", "n": 1, "map": None, "f1": None}

    def test_table_layout(self):
        text = format_report_table(self._report())
        lines = text.splitlines()
        assert lines[0].split() == ["scope", "n", "MAP", "F1"]
        noun_line = next(line for line in lines if line.startswith("noun"))
        assert noun_line.split() == ["noun", "2", "50.0", "50.0"]
        assert any(line.startswith("verb") and "---" in line for line in lines)
        avg_line = next(line for line in lines if line.startswith("avg"))
        assert avg_line.split() == ["avg", "2", "50.0", "50.0"]
        assert lines[-1] == "uncovered\t1"

    def test_bucket_csv(self, tmp_path):
        store = _eval_store({"b1": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        spec = BucketSpec(BucketQuantity.SEMEME_COUNT, (0, 100))
        rows = bucket_analysis(synset_outcomes(results, store, Split.TEST), store, spec)
        path = tmp_path / "buckets.csv"
        save_bucket_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bucket,low,high,n,map,f1"
        assert lines[1] == "0-99,0,99,1,1,1"
        assert lines[2] == "100+,100,,0,,"

    def test_difficulty_table(self, tmp_path):
        store = _eval_store({"b1": ["s1"]})
        results = {synset_id("b1"): _result("b1", ["s1"], ["s1"])}
        easiest, hardest = sememe_difficulty(synset_outcomes(results, store, Split.TEST), top_k=1)
        path = tmp_path / "difficulty.tsv"
        save_difficulty_table(easiest, hardest, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group\tsememe\tn\tmap\tf1"
        assert lines[1] == "easiest\tsem:s1\t1\t1\t1"
        assert lines[2] == "hardest\tsem:s1\t1\t1\t1"
