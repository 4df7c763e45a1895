"""Metrics and analyses for sememe prediction runs.

Each annotated synset of a split is scored once, into one outcome table:
average precision of the full ranking and the F1 of the thresholded
selection.  Every report groups that table: scopes cover all synsets
plus each POS tag, bucketed breakdowns group synsets by graph degree,
gold sememe count, or the degrees of their gold sememes, and a
difficulty table surfaces the easiest and hardest sememes.

All aggregation uses ``math.fsum``, so sums are exact and independent of
the order of a group.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .atomic import atomic_open
from .errors import ConfigError, ContractError
from .fusion import PredictionResult
from .graph import NodeId, Pos, Split, TripletStore
from .ranking import ScoredRanking

logger = logging.getLogger(__name__)


def average_precision(gold: Iterable[NodeId], ranking: ScoredRanking) -> float:
    """Mean over gold sememes of (gold found at or above its rank) / rank."""
    gold_set = set(gold)
    if not gold_set:
        raise ContractError(f"empty gold set for {ranking.target}")
    missing = sorted(s.name for s in gold_set if s not in ranking)
    if missing:
        raise ContractError(f"gold sememes missing from ranking for {ranking.target}: {missing}")
    ranks = sorted(ranking.rank(s) for s in gold_set)
    return math.fsum((i + 1) / r for i, r in enumerate(ranks)) / len(ranks)


def f1_score(gold: Iterable[NodeId], selected: Iterable[NodeId]) -> float:
    """Harmonic mean of precision and recall; 0 when nothing is selected."""
    gold_set = set(gold)
    if not gold_set:
        raise ContractError("empty gold set")
    selected_set = set(selected)
    return _f1(len(gold_set & selected_set), len(selected_set), len(gold_set))


def _f1(hits: int, n_selected: int, n_gold: int) -> float:
    if hits == 0 or n_selected == 0 or n_gold == 0:
        return 0.0
    precision = hits / n_selected
    recall = hits / n_gold
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricsRow:
    n: int
    map_score: float | None
    f1: float | None


@dataclass(frozen=True)
class MetricsReport:
    """Scope-keyed metrics; ``uncovered`` lists annotated synsets that the
    prediction run supplied no result for (they count as zero)."""

    rows: dict[str, MetricsRow]
    uncovered: tuple[NodeId, ...]


@dataclass(frozen=True)
class SynsetOutcome:
    """One annotated synset scored against its gold sememes.  A synset the
    run supplied no result for is not ``covered`` and scores zero."""

    gold: frozenset[NodeId]
    covered: bool
    ap: float
    f1: float
    hits: int
    n_selected: int


def synset_outcomes(
    results: Mapping[NodeId, PredictionResult],
    store: TripletStore,
    split: Split,
) -> dict[NodeId, SynsetOutcome]:
    """Every annotated synset of the split, scored once and keyed in name
    order; each report below groups this table."""
    gold = store.annotation_map(split)
    if not gold:
        raise ContractError(f"the {split.value} split has no annotated synsets")
    extraneous = sorted(b.name for b in results if b not in gold)
    if extraneous:
        raise ContractError(f"results include synsets outside the {split.value} split: {extraneous[:3]}")
    outcomes: dict[NodeId, SynsetOutcome] = {}
    for synset, gold_set in gold.items():
        result = results.get(synset)
        if result is None:
            outcomes[synset] = SynsetOutcome(gold_set, False, 0.0, 0.0, 0, 0)
            continue
        ap = average_precision(gold_set, result.ranking)
        hits, n_selected = len(gold_set & result.selected), len(result.selected)
        f1 = _f1(hits, n_selected, len(gold_set))
        outcomes[synset] = SynsetOutcome(gold_set, True, ap, f1, hits, n_selected)
    return outcomes


def _means(group: Sequence[SynsetOutcome]) -> tuple[float, float]:
    """Macro MAP and F1 of a non-empty group."""
    return math.fsum(o.ap for o in group) / len(group), math.fsum(o.f1 for o in group) / len(group)


def _micro_f1(outcomes: Sequence[SynsetOutcome]) -> float:
    hits = sum(o.hits for o in outcomes)
    n_selected = sum(o.n_selected for o in outcomes)
    n_gold = sum(len(o.gold) for o in outcomes)
    return _f1(hits, n_selected, n_gold)


def evaluate(
    results: Mapping[NodeId, PredictionResult],
    store: TripletStore,
    split: Split,
    f1_mode: str = "macro",
) -> MetricsReport:
    """Macro-averaged AP and F1 over the split's synsets, overall and per POS.

    Synsets without a result count as zero on both metrics and are listed
    as uncovered.  ``f1_mode`` switches the F1 aggregation between the
    per-synset macro average and a pooled micro average; MAP is always the
    macro mean of per-synset AP.
    """
    if f1_mode not in ("macro", "micro"):
        raise ConfigError(f"f1_mode must be macro or micro, got {f1_mode!r}")
    outcomes = synset_outcomes(results, store, split)
    scopes: dict[str, list[SynsetOutcome]] = {"all": list(outcomes.values())}
    for pos in (Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.ADV):
        group = [o for b, o in outcomes.items() if store.pos_of(b) is pos]
        if group:
            scopes[pos.value] = group
    rows: dict[str, MetricsRow] = {}
    for scope, group in scopes.items():
        map_score, f1 = _means(group)
        rows[scope] = MetricsRow(len(group), map_score, f1 if f1_mode == "macro" else _micro_f1(group))
    uncovered = tuple(b for b, o in outcomes.items() if not o.covered)
    return MetricsReport(rows=rows, uncovered=uncovered)


class BucketQuantity(enum.Enum):
    SYNSET_DEGREE = "synset_degree"
    SEMEME_COUNT = "sememe_count"
    SEMEME_DEGREE = "sememe_degree"


@dataclass(frozen=True)
class BucketSpec:
    """Cut points partitioning the nonnegative integers into buckets.

    ``boundaries`` holds each bucket's inclusive lower bound, starting at
    0; the final bucket is open-ended.
    """

    quantity: BucketQuantity
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ConfigError("at least one bucket boundary is required")
        if self.boundaries[0] != 0:
            raise ConfigError(f"first boundary must be 0, got {self.boundaries[0]}")
        if any(b >= a for b, a in zip(self.boundaries, self.boundaries[1:])):
            raise ConfigError(f"boundaries must be strictly ascending, got {self.boundaries}")

    def __len__(self) -> int:
        return len(self.boundaries)

    def bucket_of(self, value: int) -> int:
        if value < 0:
            raise ContractError(f"bucketed quantities are nonnegative, got {value}")
        return bisect_right(self.boundaries, value) - 1

    def bounds(self, index: int) -> tuple[int, int | None]:
        """Inclusive (low, high) of a bucket; high is None for the open last one."""
        low = self.boundaries[index]
        if index + 1 < len(self.boundaries):
            return low, self.boundaries[index + 1] - 1
        return low, None

    def label(self, index: int) -> str:
        low, high = self.bounds(index)
        if high is None:
            return f"{low}+"
        if high == low:
            return str(low)
        return f"{low}-{high}"


@dataclass(frozen=True)
class BucketRow:
    label: str
    low: int
    high: int | None
    n: int
    map_score: float | None
    f1: float | None


def bucket_analysis(
    outcomes: Mapping[NodeId, SynsetOutcome], store: TripletStore, spec: BucketSpec
) -> list[BucketRow]:
    """Per-bucket macro metrics over a :func:`synset_outcomes` table.

    A synset joins each bucket that one of its counted keys falls in, and
    ``n`` counts a bucket's distinct keys.  For synset quantities the key
    is the synset; for sememe degree it is each gold sememe.  Empty
    buckets report n=0 and no metrics.
    """
    members: list[dict[NodeId, SynsetOutcome]] = [{} for _ in range(len(spec))]
    keys: list[set[NodeId]] = [set() for _ in range(len(spec))]
    for synset, outcome in outcomes.items():
        if spec.quantity is BucketQuantity.SEMEME_DEGREE:
            pairs = {(spec.bucket_of(store.degree(s)), s) for s in outcome.gold}
        elif spec.quantity is BucketQuantity.SYNSET_DEGREE:
            pairs = {(spec.bucket_of(store.degree(synset)), synset)}
        else:
            pairs = {(spec.bucket_of(len(outcome.gold)), synset)}
        for index, key in pairs:
            members[index][synset] = outcome
            keys[index].add(key)
    rows: list[BucketRow] = []
    for index, group in enumerate(members):
        low, high = spec.bounds(index)
        map_score, f1 = _means(list(group.values())) if group else (None, None)
        rows.append(BucketRow(spec.label(index), low, high, len(keys[index]), map_score, f1))
    return rows


@dataclass(frozen=True)
class SememeDifficulty:
    sememe: NodeId
    n: int
    map_score: float
    f1: float


def sememe_difficulty(
    outcomes: Mapping[NodeId, SynsetOutcome], top_k: int
) -> tuple[list[SememeDifficulty], list[SememeDifficulty]]:
    """Easiest and hardest sememes by the average metrics, over a
    :func:`synset_outcomes` table, of the synsets annotated with them;
    ``n`` counts those synsets."""
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    groups: dict[NodeId, list[SynsetOutcome]] = {}
    for outcome in outcomes.values():
        for s in outcome.gold:
            groups.setdefault(s, []).append(outcome)
    entries = [
        SememeDifficulty(s, len(groups[s]), *_means(groups[s]))
        for s in sorted(groups, key=lambda n: n.name)
    ]
    if top_k > len(entries):
        logger.warning(
            "top_k=%d exceeds the %d sememes with gold occurrences; truncating", top_k, len(entries)
        )
        top_k = len(entries)
    easiest = sorted(entries, key=lambda e: (-e.map_score, -e.f1, e.sememe.name))[:top_k]
    hardest = sorted(entries, key=lambda e: (e.map_score, e.f1, e.sememe.name))[:top_k]
    return easiest, hardest


# -- report output ----------------------------------------------------

_TABLE_ORDER = ("noun", "verb", "adj", "adv", "all")


def save_report_jsonl(report: MetricsReport, path: str | Path) -> None:
    """One JSON record per scope, plus a trailing uncovered-count record."""
    with atomic_open(path) as fh:
        for scope in sorted(report.rows):
            row = report.rows[scope]
            record = {"scope": scope, "n": row.n, "map": row.map_score, "f1": row.f1}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.write(
            json.dumps(
                {"scope": "uncovered", "n": len(report.uncovered), "map": None, "f1": None},
                sort_keys=True,
            )
            + "\n"
        )


def format_report_table(report: MetricsReport) -> str:
    """POS-by-row text table; the overall scope prints as the avg row and
    metrics are percentages with one decimal."""
    lines = [f"{'scope':<8}{'n':>6}{'MAP':>8}{'F1':>8}"]
    for scope in _TABLE_ORDER:
        row = report.rows.get(scope)
        name = "avg" if scope == "all" else scope
        if row is None:
            lines.append(f"{name:<8}{'---':>6}{'---':>8}{'---':>8}")
            continue
        lines.append(
            f"{name:<8}{row.n:>6}{100.0 * row.map_score:>8.1f}{100.0 * row.f1:>8.1f}"
        )
    lines.append(f"uncovered\t{len(report.uncovered)}")
    return "\n".join(lines) + "\n"


def save_bucket_csv(rows: Sequence[BucketRow], path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write("bucket,low,high,n,map,f1\n")
        for row in rows:
            high = "" if row.high is None else str(row.high)
            map_text = "" if row.map_score is None else "%.17g" % row.map_score
            f1_text = "" if row.f1 is None else "%.17g" % row.f1
            fh.write(f"{row.label},{row.low},{high},{row.n},{map_text},{f1_text}\n")


def save_difficulty_table(
    easiest: Sequence[SememeDifficulty], hardest: Sequence[SememeDifficulty], path: str | Path
) -> None:
    with atomic_open(path) as fh:
        fh.write("group\tsememe\tn\tmap\tf1\n")
        for group, entries in (("easiest", easiest), ("hardest", hardest)):
            for e in entries:
                fh.write(
                    "%s\t%s\t%d\t%.17g\t%.17g\n" % (group, e.sememe.name, e.n, e.map_score, e.f1)
                )
