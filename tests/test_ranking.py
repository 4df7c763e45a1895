from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import ScoredRanking, UnknownIdError, ValidationError, sememe_id, synset_id

TARGET = synset_id("t")


class TestConstruction:
    def test_from_scores_sorts_descending_with_name_ties(self):
        ranking = ScoredRanking.from_scores(
            TARGET,
            {sememe_id("b"): 1.0, sememe_id("a"): 1.0, sememe_id("c"): 2.0},
        )
        assert ranking.sememes() == (sememe_id("c"), sememe_id("a"), sememe_id("b"))
        assert [ranking.rank(s) for s in ranking.sememes()] == [1, 2, 3]

    def test_duplicate_sememes_rejected(self):
        with pytest.raises(ValidationError, match="repeats"):
            ScoredRanking(TARGET, ((sememe_id("a"), 1.0), (sememe_id("a"), 0.5)))

    def test_out_of_order_entries_rejected(self):
        with pytest.raises(ValidationError, match="out of order"):
            ScoredRanking(TARGET, ((sememe_id("a"), 1.0), (sememe_id("b"), 2.0)))
        with pytest.raises(ValidationError, match="out of order"):
            ScoredRanking(TARGET, ((sememe_id("b"), 1.0), (sememe_id("a"), 1.0)))

    def test_non_finite_scores_rejected_naming_each(self):
        scores = {
            sememe_id("a"): math.nan,
            sememe_id("b"): 1.0,
            sememe_id("c"): math.inf,
            sememe_id("d"): -math.inf,
        }
        with pytest.raises(ValidationError, match="non-finite") as err:
            ScoredRanking.from_scores(TARGET, scores)
        named = set(re.findall(r"'(sem:\w+)'", str(err.value)))
        assert named == {"sem:a", "sem:c", "sem:d"}

    def test_empty_ranking_allowed(self):
        assert len(ScoredRanking(TARGET, ())) == 0


class TestLookups:
    def test_rank_score_contains(self):
        ranking = ScoredRanking.from_scores(TARGET, {sememe_id("a"): 0.5, sememe_id("b"): 1.5})
        assert ranking.rank(sememe_id("b")) == 1
        assert ranking.score(sememe_id("a")) == 0.5
        assert sememe_id("a") in ranking
        assert sememe_id("zz") not in ranking

    def test_looking_up_a_rank_leaves_equality_and_hash_alone(self):
        scores = {sememe_id("a"): 0.5, sememe_id("b"): 1.5}
        looked_up = ScoredRanking.from_scores(TARGET, scores)
        assert looked_up.rank(sememe_id("a")) == 2
        fresh = ScoredRanking.from_scores(TARGET, scores)
        assert looked_up == fresh
        assert hash(looked_up) == hash(fresh)
        assert "_rank_index" not in repr(looked_up)

    def test_unranked_sememe_raises(self):
        ranking = ScoredRanking.from_scores(TARGET, {sememe_id("a"): 0.5})
        with pytest.raises(UnknownIdError):
            ranking.rank(sememe_id("zz"))


@st.composite
def score_maps(draw):
    names = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    scores = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=len(names), max_size=len(names)
        )
    )
    return {sememe_id(f"s{n:02d}"): x for n, x in zip(names, scores)}


class TestProperties:
    @given(score_maps())
    @settings(max_examples=100)
    def test_ranks_are_a_bijection_onto_1_to_n(self, scores):
        ranking = ScoredRanking.from_scores(TARGET, scores)
        assert sorted(ranking.rank(s) for s in scores) == list(range(1, len(scores) + 1))

    @given(score_maps(), st.integers(-40, 40))
    @settings(max_examples=100)
    def test_constant_shift_leaves_ranks_unchanged(self, scores, halves):
        # The shift and scores are dyadic so the addition is exact; general
        # floats can collapse nearby scores into ties and reorder them.
        shift = halves / 2.0
        exact = {s: round(x * 2.0) / 2.0 for s, x in scores.items()}
        base = ScoredRanking.from_scores(TARGET, exact)
        shifted = ScoredRanking.from_scores(TARGET, {s: x + shift for s, x in exact.items()})
        assert base.sememes() == shifted.sememes()
