from __future__ import annotations

import filecmp
import math
import random

import numpy as np
import pytest

from semepred import (
    ConfigError,
    NodeId,
    RelationKind,
    SemanticVectorStore,
    Split,
    SynthConfig,
    Triplet,
    TripletStore,
    generate,
    load_triplets,
    make_triplet,
    save_triplets,
    sememe_id,
    synset_id,
)
from semepred.graph import Pos, save_pos_tags
from semepred.recommender import SrConfig, recommend
from semepred.synthetic import (
    HAVE_RELATION_NAME,
    _gold_size,
    similarity_score_oracle,
    translation_distance_oracle,
)

SMALL = SynthConfig(
    n_synsets=60,
    n_sememes=12,
    n_antonym_pairs=3,
    n_hypernym_edges=4,
    vector_dim=12,
    noise=0.0,
    seed=7,
)


def _reference_generate(config: SynthConfig):
    """The generator with its original quadratic scans: the twin
    eligibility list rebuilt for every twin and the all-pairs antonym
    edge scan.  Kept as the order-exact reference for ``generate``."""
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
    pair_lookup = {frozenset(p) for p in antonym_pairs}

    triplets: list[Triplet] = []
    for a, b in antonym_pairs:
        triplets.append(make_triplet(a, "antonym", b))
        triplets.append(make_triplet(b, "antonym", a))

    taken = set(pair_lookup)
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
    for i in range(config.n_synsets):
        synset = synset_id(f"b{i:04d}")
        gold_set = None
        if i >= n_base:
            eligible = []
            for earlier in order:
                for a, b in antonym_pairs:
                    if a in gold[earlier] and b not in gold[earlier]:
                        eligible.append((earlier, a, b))
                    if b in gold[earlier] and a not in gold[earlier]:
                        eligible.append((earlier, b, a))
            if eligible:
                earlier, out_s, in_s = eligible[rng.randrange(len(eligible))]
                gold_set = (gold[earlier] - {out_s}) | {in_s}
        if gold_set is None:
            size = _gold_size(config, rng)
            gold_set = frozenset(rng.sample(sememes, size))
        gold[synset] = gold_set
        order.append(synset)

    for i, left in enumerate(order):
        for right in order[i + 1 :]:
            only_left = gold[left] - gold[right]
            only_right = gold[right] - gold[left]
            if len(only_left) == 1 and len(only_right) == 1:
                pair = frozenset((next(iter(only_left)), next(iter(only_right))))
                if pair in pair_lookup:
                    triplets.append(make_triplet(left, "antonym", right))
                    triplets.append(make_triplet(right, "antonym", left))

    for synset in order:
        for s in sorted(gold[synset], key=lambda n: n.name):
            triplets.append(make_triplet(synset, HAVE_RELATION_NAME, s))

    store = TripletStore(triplets, {synset: Pos.NOUN for synset in order})

    vectors = {}
    for synset in order:
        vec = np.zeros(config.vector_dim)
        for s in sorted(gold[synset], key=lambda n: n.name):
            vec = vec + base_of[s]
        if config.noise > 0:
            vec = vec + config.noise * np_rng.standard_normal(config.vector_dim)
        vectors[synset] = vec
    return store, SemanticVectorStore(config.vector_dim, vectors)


def _save_dataset(store, vectors, out) -> None:
    out.mkdir()
    save_triplets(store, out / "triplets.tsv")
    save_pos_tags(store.pos_tags(), out / "pos.tsv")
    vectors.save(out / "vectors.tsv")


class TestSynthConfig:
    def test_defaults_are_valid(self):
        config = SynthConfig()
        assert config.n_synsets == 300
        assert config.n_sememes == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_synsets": -1},
            {"n_sememes": -1},
            {"n_synsets": 5, "n_sememes": 0},
            {"min_sememes_per_synset": 0},
            {"min_sememes_per_synset": 3, "max_sememes_per_synset": 2},
            {"max_sememes_per_synset": 41},
            {"n_antonym_pairs": 21},
            {"n_hypernym_edges": 10_000},
            {"twin_fraction": 1.5},
            {"twin_fraction": -0.1},
            {"vector_dim": 0},
            {"noise": -0.01},
        ],
    )
    def test_infeasible_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, value):
        with pytest.raises(ConfigError, match="noise"):
            SynthConfig(noise=value)


class TestGenerate:
    def test_fully_empty_config_gives_empty_dataset(self):
        config = SynthConfig(
            n_synsets=0, n_sememes=0, n_antonym_pairs=0, n_hypernym_edges=0, vector_dim=3
        )
        store, vectors, gold = generate(config)
        assert len(store) == 0
        assert len(vectors) == 0
        assert gold == {}

    def test_no_synsets_still_allows_sememe_relations(self):
        config = SynthConfig(n_synsets=0, n_sememes=6, n_antonym_pairs=2, n_hypernym_edges=1)
        store, vectors, gold = generate(config)
        assert gold == {}
        assert len(vectors) == 0
        kinds = {t.relation.kind for t in store.triplets}
        assert kinds == {RelationKind.SEMEME_SEMEME}
        # Antonyms are symmetric, hypernym/hyponym come as inverse pairs.
        assert len(store.triplets) == 2 * 2 + 2 * 1

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        for sub in ("first", "second"):
            out = tmp_path / sub
            out.mkdir()
            store, vectors, _ = generate(SMALL)
            save_triplets(store, out / "triplets.tsv")
            save_pos_tags(store.pos_tags(), out / "pos.tsv")
            vectors.save(out / "vectors.tsv")
        for name in ("triplets.tsv", "pos.tsv", "vectors.tsv"):
            assert filecmp.cmp(tmp_path / "first" / name, tmp_path / "second" / name, shallow=False)

    @pytest.mark.parametrize("seed", [0, 7, 1858467990])
    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param({}, id="defaults"),
            pytest.param(
                {"min_sememes_per_synset": 1, "max_sememes_per_synset": 1, "twin_fraction": 0.9},
                id="c5",
            ),
            pytest.param({"n_synsets": 150, "twin_fraction": 1.0}, id="all-twins"),
            pytest.param({"n_antonym_pairs": 0}, id="no-antonyms"),
            pytest.param(
                {
                    "n_synsets": 200,
                    "n_sememes": 6,
                    "max_sememes_per_synset": 2,
                    "n_antonym_pairs": 3,
                    "n_hypernym_edges": 2,
                    "vector_dim": 6,
                },
                id="duplicate-gold",
            ),
            pytest.param(
                {"n_synsets": 0, "n_sememes": 0, "n_antonym_pairs": 0, "n_hypernym_edges": 0},
                id="empty",
            ),
        ],
    )
    def test_files_match_the_quadratic_reference_byte_for_byte(self, tmp_path, shape, seed):
        config = SynthConfig(seed=seed, **shape)
        store, vectors, _ = generate(config)
        _save_dataset(store, vectors, tmp_path / "fast")
        _save_dataset(*_reference_generate(config), tmp_path / "reference")
        for name in ("triplets.tsv", "pos.tsv", "vectors.tsv"):
            assert (tmp_path / "fast" / name).read_bytes() == (
                tmp_path / "reference" / name
            ).read_bytes(), name

    def test_gold_sizes_stay_in_the_configured_range(self):
        config = SynthConfig(
            n_synsets=80,
            n_sememes=20,
            min_sememes_per_synset=2,
            max_sememes_per_synset=5,
            n_antonym_pairs=4,
            n_hypernym_edges=5,
            vector_dim=20,
            seed=3,
        )
        _, _, gold = generate(config)
        assert len(gold) == 80
        assert all(2 <= len(s) <= 5 for s in gold.values())

    def test_have_triplets_mirror_the_gold_map(self):
        store, _, gold = generate(SMALL)
        assert store.annotation_map(Split.TRAIN) == gold

    def test_all_synsets_tagged_noun(self):
        store, _, gold = generate(SMALL)
        assert all(store.pos_of(b) is Pos.NOUN for b in gold)

    def test_synset_antonym_edges_match_the_consistency_rule_exactly(self):
        store, _, gold = generate(SMALL)
        antonym_pairs = {
            frozenset((t.head, t.tail))
            for t in store.triplets
            if t.relation.kind is RelationKind.SEMEME_SEMEME and t.relation.name == "antonym"
        }
        edges = {
            frozenset((t.head, t.tail))
            for t in store.triplets
            if t.relation.kind is RelationKind.SYNSET_SYNSET
        }
        assert edges, "fixture should produce at least one synset antonym edge"
        synsets = sorted(gold, key=lambda n: n.name)
        expected = set()
        for i, left in enumerate(synsets):
            for right in synsets[i + 1 :]:
                delta_left = gold[left] - gold[right]
                delta_right = gold[right] - gold[left]
                if (
                    len(delta_left) == 1
                    and len(delta_right) == 1
                    and (delta_left | delta_right) in antonym_pairs
                ):
                    expected.add(frozenset((left, right)))
        assert edges == expected

    def test_round_trips_through_the_store_loaders(self, tmp_path):
        store, _, _ = generate(SMALL)
        save_triplets(store, tmp_path / "triplets.tsv", include_split=True)
        save_pos_tags(store.pos_tags(), tmp_path / "pos.tsv")
        reloaded = load_triplets(tmp_path / "triplets.tsv", tmp_path / "pos.tsv")
        assert reloaded == store

    def test_noise_free_vectors_are_exact_base_sums(self):
        # vector_dim >= n_sememes, so bases are identity rows and each
        # synset vector is the 0/1 indicator of its gold set.
        store, vectors, gold = generate(SMALL)
        sememes = [sememe_id(f"s{i:03d}") for i in range(SMALL.n_sememes)]
        for synset, gold_set in gold.items():
            expected = np.zeros(SMALL.vector_dim)
            for i, s in enumerate(sememes):
                if s in gold_set:
                    expected[i] = 1.0
            np.testing.assert_array_equal(vectors.vector(synset), expected)

    def test_high_cosine_implies_a_shared_sememe_without_noise(self):
        _, vectors, gold = generate(SMALL)
        synsets = sorted(gold, key=lambda n: n.name)
        matrix = np.stack([vectors.vector(b) for b in synsets])
        norms = np.linalg.norm(matrix, axis=1)
        cosines = matrix @ matrix.T / np.outer(norms, norms)
        for i in range(len(synsets)):
            for j in range(i + 1, len(synsets)):
                if cosines[i, j] > 0.99:
                    assert gold[synsets[i]] & gold[synsets[j]]


class TestOracles:
    def test_translation_oracle_forced_winner(self):
        target = synset_id("t")
        node_vectors = {
            target: [1.0, 0.0],
            sememe_id("star"): [1.0, 1.0],
            sememe_id("far"): [3.0, 3.0],
        }
        ranking = translation_distance_oracle(
            node_vectors, [0.0, 1.0], target, [sememe_id("star"), sememe_id("far")]
        )
        assert ranking.sememes()[0] == sememe_id("star")
        assert ranking.score(sememe_id("star")) == 0.0
        assert ranking.score(sememe_id("far")) == -8.0

    def test_similarity_oracle_matches_hand_values(self):
        # Orthogonal construction realizes cosines 0.9 and 0.5 exactly
        # enough for the 1.04/0.32 arithmetic.
        target = synset_id("t")
        vectors = {
            target: [1.0, 0.0, 0.0],
            synset_id("b1"): [0.9, np.sqrt(1 - 0.81), 0.0],
            synset_id("b2"): [0.5, 0.0, np.sqrt(1 - 0.25)],
        }
        annotations = {
            synset_id("b1"): frozenset({sememe_id("s1")}),
            synset_id("b2"): frozenset({sememe_id("s1"), sememe_id("s2")}),
        }
        ranking = similarity_score_oracle(
            vectors, target, annotations, decay=0.8, neighbor_cap=None,
            candidates=[sememe_id("s1"), sememe_id("s2")],
        )
        np.testing.assert_allclose(ranking.score(sememe_id("s1")), 1.04, rtol=1e-12)
        np.testing.assert_allclose(ranking.score(sememe_id("s2")), 0.32, rtol=1e-12)

    def test_similarity_oracle_agrees_with_the_recommender(self):
        store, vectors, gold = generate(SMALL)
        config = SrConfig(decay=0.8, neighbor_cap=10)
        raw = {b: [float(x) for x in vectors.vector(b)] for b in gold}
        candidates = sorted(
            {s for gold_set in gold.values() for s in gold_set}, key=lambda n: n.name
        )
        for target in list(gold)[:5]:
            annotations = {b: gold[b] for b in gold if b != target}
            expected = similarity_score_oracle(
                raw, target, annotations, config.decay, config.neighbor_cap, candidates
            )
            got = recommend(vectors, target, annotations, config, candidates)
            assert got.sememes() == expected.sememes()
            for s in got.sememes():
                np.testing.assert_allclose(got.score(s), expected.score(s), atol=1e-9)
