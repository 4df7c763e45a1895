"""The report builders against their earlier bodies, kept here as
``_reference_*``.

Every report is now a grouping of one :func:`synset_outcomes` table, and
bucketing runs one loop for all three quantities.  The references below
are the earlier per-report bodies, verbatim apart from their names and
the ``_Reference`` outcome type: each scores every synset again and
reads the gold sets from the store, and sememe-degree bucketing keeps
its own branch.  Over random stores, coverage, selections, cut points
and ``top_k``, with the results passed in reverse order, both must give
equal rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    BucketQuantity,
    BucketSpec,
    ConfigError,
    ContractError,
    PredictionResult,
    Provenance,
    ScoredRanking,
    Split,
    TripletStore,
    average_precision,
    bucket_analysis,
    f1_score,
    make_triplet,
    sememe_difficulty,
    sememe_id,
    synset_id,
    synset_outcomes,
)
from semepred.evaluation import BucketRow, SememeDifficulty
from semepred.graph import NodeId

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class _ReferenceSynsetOutcome:
    ap: float
    f1: float
    hits: int
    n_selected: int
    n_gold: int


def _reference_per_synset_outcomes(
    results: Mapping[NodeId, PredictionResult],
    store: TripletStore,
    split: Split,
) -> tuple[dict[NodeId, _ReferenceSynsetOutcome], tuple[NodeId, ...]]:
    gold = store.annotation_map(split)
    if not gold:
        raise ContractError(f"the {split.value} split has no annotated synsets")
    extraneous = sorted(b.name for b in results if b not in gold)
    if extraneous:
        raise ContractError(f"results include synsets outside the {split.value} split: {extraneous[:3]}")
    outcomes: dict[NodeId, _ReferenceSynsetOutcome] = {}
    uncovered: list[NodeId] = []
    for synset, gold_set in gold.items():
        result = results.get(synset)
        if result is None:
            uncovered.append(synset)
            outcomes[synset] = _ReferenceSynsetOutcome(0.0, 0.0, 0, 0, len(gold_set))
            continue
        ap = average_precision(gold_set, result.ranking)
        f1 = f1_score(gold_set, result.selected)
        outcomes[synset] = _ReferenceSynsetOutcome(
            ap, f1, len(gold_set & result.selected), len(result.selected), len(gold_set)
        )
    return outcomes, tuple(uncovered)


def _reference_mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _reference_bucket_analysis(
    results: Mapping[NodeId, PredictionResult],
    store: TripletStore,
    split: Split,
    spec: BucketSpec,
) -> list[BucketRow]:
    outcomes, _ = _reference_per_synset_outcomes(results, store, split)
    gold = store.annotation_map(split)
    members: list[list[NodeId]] = [[] for _ in range(len(spec))]
    counts: list[int]
    if spec.quantity is BucketQuantity.SEMEME_DEGREE:
        sememes_per_bucket: list[set[NodeId]] = [set() for _ in range(len(spec))]
        seen_per_bucket: list[set[NodeId]] = [set() for _ in range(len(spec))]
        for synset in outcomes:
            for s in sorted(gold[synset], key=lambda n: n.name):
                index = spec.bucket_of(store.degree(s))
                sememes_per_bucket[index].add(s)
                if synset not in seen_per_bucket[index]:
                    seen_per_bucket[index].add(synset)
                    members[index].append(synset)
        counts = [len(group) for group in sememes_per_bucket]
    else:
        for synset in outcomes:
            if spec.quantity is BucketQuantity.SYNSET_DEGREE:
                value = store.degree(synset)
            else:
                value = len(gold[synset])
            members[spec.bucket_of(value)].append(synset)
        counts = [len(group) for group in members]
    rows: list[BucketRow] = []
    for index in range(len(spec)):
        low, high = spec.bounds(index)
        group = [outcomes[b] for b in members[index]]
        if group:
            map_score: float | None = _reference_mean([o.ap for o in group])
            f1: float | None = _reference_mean([o.f1 for o in group])
        else:
            map_score = None
            f1 = None
        rows.append(BucketRow(spec.label(index), low, high, counts[index], map_score, f1))
    return rows


def _reference_sememe_difficulty(
    results: Mapping[NodeId, PredictionResult],
    store: TripletStore,
    split: Split,
    top_k: int,
) -> tuple[list[SememeDifficulty], list[SememeDifficulty]]:
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    outcomes, _ = _reference_per_synset_outcomes(results, store, split)
    gold = store.annotation_map(split)
    synsets_of: dict[NodeId, list[NodeId]] = {}
    for synset in outcomes:
        for s in gold[synset]:
            synsets_of.setdefault(s, []).append(synset)
    entries: list[SememeDifficulty] = []
    for s in sorted(synsets_of, key=lambda n: n.name):
        group = [outcomes[b] for b in synsets_of[s]]
        entries.append(
            SememeDifficulty(
                s, len(group), _reference_mean([o.ap for o in group]), _reference_mean([o.f1 for o in group])
            )
        )
    if top_k > len(entries):
        logger.warning(
            "top_k=%d exceeds the %d sememes with gold occurrences; truncating", top_k, len(entries)
        )
        top_k = len(entries)
    easiest = sorted(entries, key=lambda e: (-e.map_score, -e.f1, e.sememe.name))[:top_k]
    hardest = sorted(entries, key=lambda e: (e.map_score, e.f1, e.sememe.name))[:top_k]
    return easiest, hardest


_SEMEMES = [sememe_id(f"s{i}") for i in range(8)]
# Annotated in train only, so that sememe degrees vary beyond the test split.
_TRAIN_SYNSETS = [synset_id(f"t{i}") for i in range(4)]


def _cut_points(draw) -> tuple[int, ...]:
    cuts = draw(st.lists(st.integers(1, 12), max_size=4, unique=True))
    return (0, *sorted(cuts))


@st.composite
def _cases(draw):
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=25, unique=True))
    synsets = [synset_id(f"b{name}") for name in names]
    triplets, split = [], {}
    for b in synsets:
        for s in draw(st.sets(st.sampled_from(_SEMEMES), min_size=1, max_size=4)):
            t = make_triplet(b, "have_sememe", s)
            triplets.append(t)
            split[t] = Split.TEST
    for b in _TRAIN_SYNSETS:
        for s in draw(st.sets(st.sampled_from(_SEMEMES), max_size=3)):
            triplets.append(make_triplet(b, "have_sememe", s))
    every_synset = synsets + _TRAIN_SYNSETS
    edges = st.one_of(
        st.tuples(
            st.sampled_from(every_synset),
            st.sampled_from(["hypernym", "related"]),
            st.sampled_from(every_synset),
        ),
        st.tuples(st.sampled_from(_SEMEMES), st.just("antonym"), st.sampled_from(_SEMEMES)),
    )
    for head, relation, tail in draw(st.lists(edges, max_size=30)):
        if head != tail:
            triplets.append(make_triplet(head, relation, tail))
    store = TripletStore(triplets, None, split)

    results: dict[NodeId, PredictionResult] = {}
    for b in synsets:
        if draw(st.integers(0, 3)) == 0:
            continue  # about a quarter of the synsets stay uncovered
        scores = {s: float(draw(st.integers(0, 5))) for s in _SEMEMES}
        selected = draw(st.sets(st.sampled_from(_SEMEMES), max_size=5))
        results[b] = PredictionResult(
            b, ScoredRanking.from_scores(b, scores), frozenset(selected), Provenance.FUSED
        )
    specs = [BucketSpec(quantity, _cut_points(draw)) for quantity in BucketQuantity]
    top_k = draw(st.integers(1, 10))
    return store, dict(reversed(list(results.items()))), specs, top_k


@given(case=_cases())
@settings(max_examples=150, deadline=None)
def test_builders_match_the_reference(case):
    store, results, specs, top_k = case
    outcomes = synset_outcomes(results, store, Split.TEST)

    reference, uncovered = _reference_per_synset_outcomes(results, store, Split.TEST)
    assert list(outcomes) == list(reference)
    gold = store.annotation_map(Split.TEST)
    for synset, o in outcomes.items():
        assert o.gold == gold[synset]
        assert (o.ap, o.f1, o.hits, o.n_selected, len(o.gold)) == (
            reference[synset].ap,
            reference[synset].f1,
            reference[synset].hits,
            reference[synset].n_selected,
            reference[synset].n_gold,
        )
    assert tuple(b for b, o in outcomes.items() if not o.covered) == uncovered

    for spec in specs:
        assert bucket_analysis(outcomes, store, spec) == _reference_bucket_analysis(
            results, store, Split.TEST, spec
        )
    assert sememe_difficulty(outcomes, top_k) == _reference_sememe_difficulty(
        results, store, Split.TEST, top_k
    )
