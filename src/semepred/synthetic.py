"""Synthetic synset-sememe datasets with known ground truth.

The generator builds a sememe inventory with antonym pairs and
hypernym/hyponym edges, assigns each synset a small gold sememe set, and
adds synset-synset antonym edges exactly between synsets whose gold sets
differ by one antonym pair, so graph relations stay consistent with
sememe relations.  Semantic vectors are sums of latent per-sememe base
vectors plus Gaussian noise, which makes similar synsets share sememes
by construction.

The module also hosts brute-force rank oracles: naive reimplementations
of the two predictors' scoring rules, sharing no code with the main
modules, for use as independent references in tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .graph import (
    NodeId,
    Pos,
    Triplet,
    TripletStore,
    make_triplet,
    sememe_id,
    synset_id,
)
from .ranking import ScoredRanking
from .recommender import SemanticVectorStore

HAVE_RELATION_NAME = "have_sememe"


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for dataset shape.

    ``twin_fraction`` controls how many synsets are built as antonym
    twins of earlier ones (same gold set with one antonym sememe
    swapped), which is what creates synset-synset edges.
    """

    n_synsets: int = 300
    n_sememes: int = 40
    min_sememes_per_synset: int = 1
    max_sememes_per_synset: int = 4
    n_antonym_pairs: int = 5
    n_hypernym_edges: int = 10
    twin_fraction: float = 0.5
    vector_dim: int = 40
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_synsets < 0 or self.n_sememes < 0:
            raise ConfigError("n_synsets and n_sememes must be >= 0")
        if self.n_synsets > 0 and self.n_sememes == 0:
            raise ConfigError("synsets need a non-empty sememe inventory")
        if not 1 <= self.min_sememes_per_synset <= self.max_sememes_per_synset:
            raise ConfigError(
                f"need 1 <= min <= max sememes per synset, got "
                f"[{self.min_sememes_per_synset}, {self.max_sememes_per_synset}]"
            )
        if self.n_synsets > 0 and self.max_sememes_per_synset > self.n_sememes:
            raise ConfigError(
                f"max_sememes_per_synset={self.max_sememes_per_synset} exceeds "
                f"n_sememes={self.n_sememes}"
            )
        if self.n_antonym_pairs < 0 or self.n_hypernym_edges < 0:
            raise ConfigError("edge counts must be >= 0")
        if self.n_antonym_pairs > self.n_sememes // 2:
            raise ConfigError(
                f"{self.n_antonym_pairs} antonym pairs need {2 * self.n_antonym_pairs} distinct "
                f"sememes but only {self.n_sememes} exist"
            )
        max_edges = self.n_sememes * (self.n_sememes - 1) // 2 - self.n_antonym_pairs
        if self.n_hypernym_edges > max_edges:
            raise ConfigError(
                f"{self.n_hypernym_edges} hypernym edges exceed the {max_edges} "
                "sememe pairs left after antonyms"
            )
        if not 0.0 <= self.twin_fraction <= 1.0:
            raise ConfigError(f"twin_fraction must lie in [0, 1], got {self.twin_fraction}")
        if self.vector_dim < 1:
            raise ConfigError(f"vector_dim must be >= 1, got {self.vector_dim}")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")


def _gold_size(config: SynthConfig, rng: random.Random) -> int:
    sizes = range(config.min_sememes_per_synset, config.max_sememes_per_synset + 1)
    weights = [0.5 ** abs(k - 2) for k in sizes]
    return rng.choices(list(sizes), weights=weights)[0]


def generate(
    config: SynthConfig,
) -> tuple[TripletStore, SemanticVectorStore, dict[NodeId, frozenset[NodeId]]]:
    """Build (triplet store, semantic vectors, gold annotation map).

    All randomness flows through seeded generators, so equal configs give
    byte-identical saved files.  All triplets start in the train split;
    splitting is a separate step.
    """
    rng = random.Random(config.seed)
    np_rng = np.random.default_rng(config.seed)
    sememes = [sememe_id(f"s{i:03d}") for i in range(config.n_sememes)]

    if config.vector_dim >= config.n_sememes:
        bases = np.eye(config.vector_dim, dtype=np.float64)[: config.n_sememes]
    else:
        bases = np_rng.standard_normal((config.n_sememes, config.vector_dim))
        bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    base_of = {s: bases[i] for i, s in enumerate(sememes)}

    shuffled = sememes[:]
    rng.shuffle(shuffled)
    antonym_pairs = [
        (shuffled[2 * i], shuffled[2 * i + 1]) for i in range(config.n_antonym_pairs)
    ]

    triplets: list[Triplet] = []
    for a, b in antonym_pairs:
        triplets.append(make_triplet(a, "antonym", b))
        triplets.append(make_triplet(b, "antonym", a))

    taken = {frozenset(p) for p in antonym_pairs}
    for _ in range(config.n_hypernym_edges):
        while True:
            x, y = rng.sample(sememes, 2)
            key = frozenset((x, y))
            if key not in taken:
                taken.add(key)
                break
        triplets.append(make_triplet(x, "hypernym", y))
        triplets.append(make_triplet(y, "hyponym", x))

    n_twins = int(config.twin_fraction * config.n_synsets)
    n_base = config.n_synsets - n_twins
    gold: dict[NodeId, frozenset[NodeId]] = {}
    order: list[NodeId] = []
    # One entry per synset and antonym pair it holds exactly one member
    # of, in synset then pair order: (position, gold set minus the held
    # member, held member, missing member).
    swaps: list[tuple[int, frozenset[NodeId], NodeId, NodeId]] = []
    for i in range(config.n_synsets):
        synset = synset_id(f"b{i:04d}")
        if i >= n_base and swaps:
            # Twin an earlier synset by swapping one antonym sememe; with
            # no eligible earlier gold set the twin is a fresh synset.
            _, rest, _, in_s = swaps[rng.randrange(len(swaps))]
            gold_set = rest | {in_s}
        else:
            size = _gold_size(config, rng)
            gold_set = frozenset(rng.sample(sememes, size))
        gold[synset] = gold_set
        order.append(synset)
        for a, b in antonym_pairs:
            if a in gold_set and b not in gold_set:
                swaps.append((i, gold_set - {a}, a, b))
            if b in gold_set and a not in gold_set:
                swaps.append((i, gold_set - {b}, b, a))

    # Synset antonym edges by the consistency rule: gold sets differing by
    # exactly one antonym pair.  Two such synsets hold opposite members of
    # the pair and agree on the rest, so each edge joins a swap entry to
    # the holders of its missing member with the same rest.  Sorting the
    # (earlier, later) positions emits edges in all-pairs scan order.
    holders: dict[tuple[frozenset[NodeId], NodeId], list[int]] = {}
    for i, rest, held, _ in swaps:
        holders.setdefault((rest, held), []).append(i)
    edges = sorted(
        (i, j) for i, rest, _, missing in swaps for j in holders.get((rest, missing), ()) if i < j
    )
    for i, j in edges:
        triplets.append(make_triplet(order[i], "antonym", order[j]))
        triplets.append(make_triplet(order[j], "antonym", order[i]))

    for synset in order:
        for s in sorted(gold[synset], key=lambda n: n.name):
            triplets.append(make_triplet(synset, HAVE_RELATION_NAME, s))

    pos_tags = {synset: Pos.NOUN for synset in order}
    store = TripletStore(triplets, pos_tags)

    vectors: dict[NodeId, np.ndarray] = {}
    for synset in order:
        vec = np.zeros(config.vector_dim)
        for s in sorted(gold[synset], key=lambda n: n.name):
            vec = vec + base_of[s]
        if config.noise > 0:
            vec = vec + config.noise * np_rng.standard_normal(config.vector_dim)
        vectors[synset] = vec
    vector_store = SemanticVectorStore(config.vector_dim, vectors)

    return store, vector_store, {b: gold[b] for b in sorted(gold, key=lambda n: n.name)}


# -- brute-force oracles ----------------------------------------------


def _oracle_entries(scores: Mapping[NodeId, float]) -> tuple[tuple[NodeId, float], ...]:
    items = list(scores.items())
    items.sort(key=lambda kv: (-kv[1], kv[0].name))
    return tuple(items)


def similarity_score_oracle(
    vectors: Mapping[NodeId, Sequence[float]],
    target: NodeId,
    annotations: Mapping[NodeId, frozenset[NodeId]],
    decay: float,
    neighbor_cap: int | None,
    candidates: Iterable[NodeId],
) -> ScoredRanking:
    """Naive double-loop reference for similarity-based scoring."""

    def dot(u: Sequence[float], v: Sequence[float]) -> float:
        return sum(x * y for x, y in zip(u, v))

    target_vec = vectors[target]
    target_norm = math.sqrt(dot(target_vec, target_vec))
    sims: list[tuple[NodeId, float]] = []
    for synset in annotations:
        if synset == target or synset not in vectors:
            continue
        vec = vectors[synset]
        cos = dot(target_vec, vec) / (target_norm * math.sqrt(dot(vec, vec)))
        sims.append((synset, cos))
    sims.sort(key=lambda p: (-p[1], p[0].name))
    if neighbor_cap is not None:
        sims = sims[:neighbor_cap]
    scores: dict[NodeId, float] = {s: 0.0 for s in candidates}
    rank = 0
    for synset, cos in sims:
        rank += 1
        contribution = (cos if cos > 0.0 else 0.0) * decay**rank
        for s in annotations[synset]:
            if s in scores:
                scores[s] = scores[s] + contribution
            else:
                scores[s] = contribution
    return ScoredRanking(target, _oracle_entries(scores))


def translation_distance_oracle(
    node_vectors: Mapping[NodeId, Sequence[float]],
    relation_vector: Sequence[float],
    target: NodeId,
    candidates: Iterable[NodeId],
) -> ScoredRanking:
    """Naive reference for translated-distance tail completion."""
    target_vec = node_vectors[target]
    scores: dict[NodeId, float] = {}
    for s in candidates:
        vec = node_vectors[s]
        d = 0.0
        for i in range(len(relation_vector)):
            diff = target_vec[i] + relation_vector[i] - vec[i]
            d += diff * diff
        scores[s] = -d
    return ScoredRanking(target, _oracle_entries(scores))
