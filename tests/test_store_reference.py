"""``TripletStore`` against its earlier body, kept here as ``_ReferenceStore``.

The store now keeps three tables (triplet -> split, node -> degree,
relation -> count) and reads every query from them, and its frequency
filter peels each triplet once and builds one store at the end.  The
reference below is the earlier class verbatim, with only its name
changed: a dedupe dict, sets and tuples rebuilt per query, and a filter
that recounts degrees and relation counts in a private loop.  Over
seeded random graphs with duplicates, POS-only nodes, all three relation
kinds and shuffled input, both must answer every query alike, and so
must the stores that ``split_dataset``, ``filter_by_pos`` and
``filter_low_frequency`` return.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from typing import Iterable, Mapping

import pytest

from semepred import TripletStore, make_triplet, sememe_id, synset_id
from semepred.errors import ConfigError, UnknownIdError, ValidationError
from semepred.graph import (
    NodeId,
    NodeKind,
    Pos,
    RelationId,
    RelationKind,
    Split,
    StoreStats,
    Triplet,
)

logger = logging.getLogger(__name__)

SEEDS = range(150)
# (min_node_degree, min_relation_count); the last four peel in two or
# more rounds on most of the graphs below.
THRESHOLDS = [(0, 0), (1, 1), (2, 0), (0, 3), (2, 2), (3, 2), (4, 4)]


class _ReferenceStore:
    """Immutable, validated container for the synset-sememe graph.

    Construction deduplicates triplets (logging the dropped count),
    enforces the single ``have_sememe`` relation rule, and checks split
    soundness: valid/test may contain only synset-sememe triplets, and
    all such triplets of one synset share one split.
    """

    def __init__(
        self,
        triplets: Iterable[Triplet],
        pos_tags: Mapping[NodeId, Pos] | None = None,
        split: Mapping[Triplet, Split] | None = None,
    ) -> None:
        seen: dict[Triplet, None] = {}
        dropped = 0
        for t in triplets:
            if t in seen:
                dropped += 1
            else:
                seen[t] = None
        if dropped:
            logger.info("dropped %d duplicate triplets", dropped)
        self._triplets: tuple[Triplet, ...] = tuple(seen)

        split = split or {}
        self._split: dict[Triplet, Split] = {t: split.get(t, Split.TRAIN) for t in self._triplets}
        self._pos: dict[NodeId, Pos] = dict(pos_tags or {})

        nodes: dict[NodeId, None] = {}
        for t in self._triplets:
            nodes.setdefault(t.head)
            nodes.setdefault(t.tail)
        for n in self._pos:
            nodes.setdefault(n)
        self._nodes: tuple[NodeId, ...] = tuple(sorted(nodes, key=lambda n: n.name))
        self._node_set = frozenset(self._nodes)

        have_names = {t.relation.name for t in self._triplets if t.relation.kind is RelationKind.HAVE_SEMEME}
        if len(have_names) > 1:
            raise ValidationError(
                f"multiple synset-sememe relation names found: {sorted(have_names)}; exactly one is allowed"
            )

        rels: dict[RelationId, None] = {}
        for t in self._triplets:
            rels.setdefault(t.relation)
        self._relations: tuple[RelationId, ...] = tuple(sorted(rels, key=lambda r: r.sort_key))

        self._degree: Counter[NodeId] = Counter()
        for t in self._triplets:
            self._degree[t.head] += 1
            self._degree[t.tail] += 1

        self._check_split_soundness()

    def _check_split_soundness(self) -> None:
        synset_split: dict[NodeId, Split] = {}
        for t in self._triplets:
            s = self._split[t]
            if t.relation.kind is not RelationKind.HAVE_SEMEME:
                if s is not Split.TRAIN:
                    raise ValidationError(
                        f"non have_sememe triplet {t.head}->{t.tail} assigned to {s.value}"
                    )
                continue
            prev = synset_split.setdefault(t.head, s)
            if prev is not s:
                raise ValidationError(
                    f"synset {t.head} has have_sememe triplets in both {prev.value} and {s.value}"
                )

    # -- basic queries -------------------------------------------------

    @property
    def triplets(self) -> tuple[Triplet, ...]:
        return self._triplets

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def relations(self) -> tuple[RelationId, ...]:
        return self._relations

    @property
    def synsets(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self._nodes if n.kind is NodeKind.SYNSET)

    @property
    def sememes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self._nodes if n.kind is NodeKind.SEMEME)

    def __len__(self) -> int:
        return len(self._triplets)

    def __contains__(self, triplet: Triplet) -> bool:
        return triplet in self._split

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ReferenceStore):
            return NotImplemented
        return (
            self._triplets == other._triplets
            and self._split == other._split
            and self._pos == other._pos
        )

    def __repr__(self) -> str:
        return f"TripletStore({len(self._triplets)} triplets, {len(self._nodes)} nodes)"

    def split_of(self, triplet: Triplet) -> Split:
        try:
            return self._split[triplet]
        except KeyError as exc:
            raise UnknownIdError(f"triplet not in store: {triplet}") from exc

    def pos_of(self, node: NodeId) -> Pos:
        if node not in self._node_set:
            raise UnknownIdError(f"unknown node {node}")
        return self._pos.get(node, Pos.UNKNOWN)

    def pos_tags(self) -> dict[NodeId, Pos]:
        return dict(self._pos)

    def degree(self, node: NodeId) -> int:
        """Number of triplets in which ``node`` appears as head or tail."""
        if node not in self._node_set:
            raise UnknownIdError(f"unknown node {node}")
        return self._degree[node]

    def triplets_in(self, split: Split) -> tuple[Triplet, ...]:
        return tuple(t for t in self._triplets if self._split[t] is split)

    def annotation_map(self, split: Split) -> dict[NodeId, frozenset[NodeId]]:
        """Per-synset gold sememe sets derived from the split's triplets,
        keyed in sorted synset order."""
        gold: dict[NodeId, set[NodeId]] = {}
        for t in self._triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME and self._split[t] is split:
                gold.setdefault(t.head, set()).add(t.tail)
        return {b: frozenset(gold[b]) for b in sorted(gold, key=lambda n: n.name)}

    def annotated_synsets(self) -> tuple[NodeId, ...]:
        """Synsets possessing at least one have_sememe triplet, sorted."""
        out: set[NodeId] = set()
        for t in self._triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME:
                out.add(t.head)
        return tuple(sorted(out, key=lambda n: n.name))

    def stats(self) -> StoreStats:
        rel_kinds = Counter(r.kind for r in self._relations)
        trip_kinds = Counter(t.relation.kind for t in self._triplets)
        by_split = Counter(self._split[t] for t in self._triplets)
        return StoreStats(
            n_triplets=len(self._triplets),
            n_synsets=len(self.synsets),
            n_sememes=len(self.sememes),
            n_relations_by_kind={k: rel_kinds.get(k, 0) for k in RelationKind},
            n_triplets_by_kind={k: trip_kinds.get(k, 0) for k in RelationKind},
            n_by_split={s: by_split.get(s, 0) for s in Split},
        )

    # -- transformations ----------------------------------------------

    def _substore(self, keep: Iterable[Triplet], keep_nodes: Iterable[NodeId] | None = None) -> "_ReferenceStore":
        kept = tuple(keep)
        if keep_nodes is None:
            node_set = {t.head for t in kept} | {t.tail for t in kept}
        else:
            node_set = set(keep_nodes)
        pos = {n: p for n, p in self._pos.items() if n in node_set}
        split = {t: self._split[t] for t in kept}
        return _ReferenceStore(kept, pos, split)

    def filter_low_frequency(self, min_node_degree: int, min_relation_count: int) -> "_ReferenceStore":
        """Iteratively drop nodes below ``min_node_degree`` and relations
        below ``min_relation_count``, with their triplets, to a fixed point.
        A store that loses nothing is returned as it is.
        """
        if min_node_degree < 0 or min_relation_count < 0:
            raise ConfigError("frequency thresholds must be >= 0")
        triplets = list(self._triplets)
        nodes = set(self._nodes)
        while True:
            deg: Counter[NodeId] = Counter()
            rel_count: Counter[RelationId] = Counter()
            for t in triplets:
                deg[t.head] += 1
                deg[t.tail] += 1
                rel_count[t.relation] += 1
            bad_nodes = {n for n in nodes if deg[n] < min_node_degree}
            bad_rels = {r for r in rel_count if rel_count[r] < min_relation_count}
            if not bad_nodes and not bad_rels:
                break
            nodes -= bad_nodes
            triplets = [
                t
                for t in triplets
                if t.head in nodes and t.tail in nodes and t.relation not in bad_rels
            ]
        if len(triplets) == len(self._triplets) and len(nodes) == len(self._nodes):
            return self
        return self._substore(triplets, nodes)

    def split_dataset(self, ratios: tuple[float, float, float], seed: int) -> "_ReferenceStore":
        """Partition annotated synsets by ``ratios``; their have_sememe
        triplets follow them into valid/test while every other triplet,
        including synset-synset ones touching held-out synsets, stays in
        train.
        """
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {ratios}")
        if any(r < 0 for r in ratios):
            raise ConfigError(f"split ratios must be nonnegative, got {ratios}")
        annotated = list(self.annotated_synsets())
        if not annotated:
            raise ValidationError("cannot split a store with no annotated synsets")
        rng = random.Random(seed)
        rng.shuffle(annotated)
        n = len(annotated)
        n_valid = int(ratios[1] * n)
        n_test = int(ratios[2] * n)
        n_train = n - n_valid - n_test
        assignment: dict[NodeId, Split] = {}
        for i, b in enumerate(annotated):
            if i < n_train:
                assignment[b] = Split.TRAIN
            elif i < n_train + n_valid:
                assignment[b] = Split.VALID
            else:
                assignment[b] = Split.TEST
        split: dict[Triplet, Split] = {}
        for t in self._triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME:
                split[t] = assignment[t.head]
            else:
                split[t] = Split.TRAIN
        return _ReferenceStore(self._triplets, self._pos, split)

    def filter_by_pos(self, keep: Iterable[Pos]) -> "_ReferenceStore":
        """Drop synsets whose POS tag is not in ``keep`` along with every
        triplet touching them; sememes are never removed by POS."""
        keep_set = set(keep)
        if not keep_set:
            raise ConfigError("filter_by_pos requires a non-empty keep set")
        removed = {
            n
            for n in self._nodes
            if n.kind is NodeKind.SYNSET and self._pos.get(n, Pos.UNKNOWN) not in keep_set
        }
        kept_nodes = [n for n in self._nodes if n not in removed]
        kept_triplets = [t for t in self._triplets if t.head not in removed and t.tail not in removed]
        return self._substore(kept_triplets, kept_nodes)


def _random_graph(seed: int) -> tuple[list[Triplet], dict[NodeId, Pos], dict[Triplet, Split]]:
    """Triplets in shuffled order with repeats, POS tags that also name
    nodes in no triplet, and a sound split for part of the annotations."""
    rng = random.Random(seed)
    synsets = [synset_id(f"b{i:02d}") for i in range(rng.randint(3, 14))]
    sememes = [sememe_id(f"s{i:02d}") for i in range(rng.randint(2, 8))]
    triplets = []
    for b in synsets[: rng.randint(1, len(synsets))]:
        for s in rng.sample(sememes, rng.randint(1, min(3, len(sememes)))):
            triplets.append(make_triplet(b, "have_sememe", s))
    for _ in range(rng.randint(0, 2 * len(synsets))):
        name = rng.choice(["hypernym", "antonym"])
        triplets.append(make_triplet(rng.choice(synsets), name, rng.choice(synsets)))
    for _ in range(rng.randint(0, 2 * len(sememes))):
        name = rng.choice(["part", "antonym"])
        triplets.append(make_triplet(rng.choice(sememes), name, rng.choice(sememes)))
    triplets += rng.sample(triplets, rng.randint(0, len(triplets) // 3))
    rng.shuffle(triplets)
    extra = [synset_id(f"x{i}") for i in range(rng.randint(0, 3))]
    extra += [sememe_id(f"y{i}") for i in range(rng.randint(0, 2))]
    pos = {n: rng.choice(list(Pos)) for n in synsets + sememes + extra if rng.random() < 0.7}
    held = {b: rng.choice(list(Split)) for b in synsets if rng.random() < 0.5}
    split = {
        t: held[t.head]
        for t in triplets
        if t.relation.kind is RelationKind.HAVE_SEMEME and t.head in held
    }
    return triplets, pos, split


def _assert_same(store: TripletStore, ref: _ReferenceStore) -> None:
    assert store.triplets == ref.triplets
    assert store.nodes == ref.nodes
    assert store.relations == ref.relations
    assert store.synsets == ref.synsets
    assert store.sememes == ref.sememes
    assert store.stats() == ref.stats()
    assert store.pos_tags() == ref.pos_tags()
    assert store.annotated_synsets() == ref.annotated_synsets()
    assert len(store) == len(ref)
    assert repr(store) == repr(ref)
    for n in ref.nodes:
        assert store.degree(n) == ref.degree(n)
        assert store.pos_of(n) is ref.pos_of(n)
    for t in ref.triplets:
        assert t in store
        assert store.split_of(t) is ref.split_of(t)
    for s in Split:
        assert store.triplets_in(s) == ref.triplets_in(s)
        assert list(store.annotation_map(s).items()) == list(ref.annotation_map(s).items())
    absent = synset_id("never-in-any-graph")
    for query in ("degree", "pos_of"):
        with pytest.raises(UnknownIdError):
            getattr(store, query)(absent)


def _pair(seed: int) -> tuple[TripletStore, _ReferenceStore]:
    triplets, pos, split = _random_graph(seed)
    return TripletStore(triplets, pos, split), _ReferenceStore(triplets, pos, split)


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_match_the_reference(seed):
    store, ref = _pair(seed)
    _assert_same(store, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_transformations_match_the_reference(seed):
    store, ref = _pair(seed)
    if ref.annotated_synsets():
        ratios = (0.5, 0.25, 0.25)
        _assert_same(store.split_dataset(ratios, seed), ref.split_dataset(ratios, seed))
    keep = random.Random(seed).sample(list(Pos), 2)
    _assert_same(store.filter_by_pos(keep), ref.filter_by_pos(keep))
    for thresholds in THRESHOLDS:
        filtered = store.filter_low_frequency(*thresholds)
        ref_filtered = ref.filter_low_frequency(*thresholds)
        _assert_same(filtered, ref_filtered)
        assert (filtered is store) == (ref_filtered is ref)


def test_random_graphs_cover_every_case():
    """Guards the tests above: their graphs must hold each case."""
    cases: Counter[str] = Counter()
    for seed in SEEDS:
        triplets, pos, split = _random_graph(seed)
        store = TripletStore(triplets, pos, split)
        named = {n for t in store.triplets for n in (t.head, t.tail)}
        cases["duplicates"] += len(store) < len(triplets)
        cases["held-out split"] += len(store.triplets_in(Split.TRAIN)) < len(store)
        for kind in NodeKind:
            cases[kind.value] += any(n.kind is kind and n not in named for n in pos)
        for kind in (RelationKind.SYNSET_SYNSET, RelationKind.SEMEME_SEMEME, RelationKind.HAVE_SEMEME):
            cases[kind.value] += any(r.kind is kind for r in store.relations)
    assert len(cases) == 7
    assert min(cases.values()) >= len(SEEDS) // 10, cases


def _rounds(ref: _ReferenceStore, min_node_degree: int, min_relation_count: int) -> tuple[int, _ReferenceStore]:
    """Replays the round-by-round filter through the reference's queries:
    each round drops every node and relation below its floor at once."""
    rounds = 0
    while True:
        count = Counter(t.relation for t in ref.triplets)
        bad = {n for n in ref.nodes if ref.degree(n) < min_node_degree}
        bad |= {r for r in ref.relations if count[r] < min_relation_count}
        if not bad:
            return rounds, ref
        rounds += 1
        kept = [t for t in ref.triplets if not bad.intersection((t.head, t.relation, t.tail))]
        pos = {n: p for n, p in ref.pos_tags().items() if n not in bad}
        ref = _ReferenceStore(kept, pos, {t: ref.split_of(t) for t in kept})


def test_thresholds_need_several_rounds():
    """Guards the test above: it must reach filters of two or more rounds."""
    rounds = []
    for seed in SEEDS:
        _, ref = _pair(seed)
        for thresholds in THRESHOLDS:
            n, replayed = _rounds(ref, *thresholds)
            assert replayed == ref.filter_low_frequency(*thresholds)
            rounds.append(n)
    assert sum(r >= 2 for r in rounds) >= len(SEEDS)
    assert max(rounds) >= 3


def test_invalid_input_fails_with_the_same_message():
    b, s = synset_id("a"), sememe_id("p")
    two_have_names = [make_triplet(b, "have_sememe", s), make_triplet(b, "annotated_with", s)]
    hyper = make_triplet(b, "hypernym", synset_id("c"))
    for args in ((two_have_names,), ([hyper], None, {hyper: Split.TEST})):
        with pytest.raises(ValidationError) as new:
            TripletStore(*args)
        with pytest.raises(ValidationError) as old:
            _ReferenceStore(*args)
        assert str(new.value) == str(old.value)
    for thresholds in ((-1, 0), (0, -1)):
        with pytest.raises(ConfigError):
            TripletStore([hyper]).filter_low_frequency(*thresholds)


def test_long_path_peels_to_empty_without_recursion():
    """A 3,000-triplet path loses its two end nodes per round at
    min_node_degree=2, so the filter runs 1,500 rounds in a loop."""
    nodes = [synset_id(f"p{i:04d}") for i in range(3001)]
    store = TripletStore(make_triplet(a, "hypernym", b) for a, b in zip(nodes, nodes[1:]))
    peeled = store.filter_low_frequency(2, 0)
    assert len(peeled) == 0
    assert peeled.nodes == ()
