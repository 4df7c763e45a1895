"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered criterion and prints a single PASS line
(visible with ``pytest -s`` or in captured output) so a run reads as a
checklist.  Reference computations are reimplemented here naively and
share no code with the package internals.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import build_table
from semepred import (
    FusionConfig,
    Pos,
    RelationId,
    RelationKind,
    SemanticVectorStore,
    Split,
    SrConfig,
    SynthConfig,
    TrainConfig,
    TripletStore,
    average_precision,
    evaluate,
    f1_score,
    fuse,
    generate,
    make_triplet,
    rank_sememes,
    recommend,
    sememe_id,
    synset_id,
    train,
)
from semepred.cli import main as cli_main
from semepred.fusion import PredictionResult, Provenance
from semepred.graph import EQUIVALENCE_RELATION
from semepred.kge import (
    equivalence_loss,
    equivalence_loss_gradients,
    margin_loss_gradients,
    margin_ranking_loss,
)
from semepred.ranking import ScoredRanking
from semepred.recommender import score_sememes
from semepred.synthetic import similarity_score_oracle, translation_distance_oracle

HAVE = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("SEMEPRED_"):
            monkeypatch.delenv(name)


def _pass(line: str) -> None:
    print(f"PASS {line}")


# -- criterion 1: analytic gradients vs finite differences -------------


def _finite_difference(loss_fn, matrix: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(matrix)
    it = np.nditer(matrix, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = matrix[index]
        matrix[index] = original + epsilon
        up = loss_fn()
        matrix[index] = original - epsilon
        down = loss_fn()
        matrix[index] = original
        grad[index] = (up - down) / (2.0 * epsilon)
        it.iternext()
    return grad


def _max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)))


def test_c1_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    a, b, c = synset_id("a"), synset_id("b"), synset_id("c")
    p, q = sememe_id("p"), sememe_id("q")
    positives = [
        make_triplet(a, "related", b),
        make_triplet(b, "related", c),
        make_triplet(p, "antonym", q),
        make_triplet(a, "have_sememe", p),
        make_triplet(b, "have_sememe", q),
        make_triplet(c, "have_sememe", p),
    ]
    assert len(positives) == 6
    relations = {t.relation for t in positives} | {EQUIVALENCE_RELATION}
    table = build_table(
        4,
        {n: rng.normal(size=4) for n in (a, b, c, p, q)},
        {r: rng.normal(size=4) for r in relations},
    )
    negatives = np.array([
        [table.node_index(t.head), table.relation_index(t.relation), table.node_index(tail)]
        for t, tail in zip(positives, [c, a, b, q, p, q])
    ])
    positives = table.triplet_rows(positives)
    annotations = {
        a: frozenset({p}),
        b: frozenset({q}),
        c: frozenset({p}),
    }
    margin = 1.5

    worst = 0.0
    _, node_grad, rel_grad = margin_loss_gradients(table, positives, negatives, margin)
    fd_nodes = _finite_difference(
        lambda: margin_ranking_loss(table, positives, negatives, margin), table.node_matrix
    )
    fd_rels = _finite_difference(
        lambda: margin_ranking_loss(table, positives, negatives, margin), table.relation_matrix
    )
    worst = max(worst, _max_relative_error(node_grad, fd_nodes))
    worst = max(worst, _max_relative_error(rel_grad, fd_rels))

    _, node_grad, rel_grad = equivalence_loss_gradients(table, annotations)
    fd_nodes = _finite_difference(
        lambda: equivalence_loss(table, annotations), table.node_matrix
    )
    fd_rels = _finite_difference(
        lambda: equivalence_loss(table, annotations), table.relation_matrix
    )
    worst = max(worst, _max_relative_error(node_grad, fd_nodes))
    worst = max(worst, _max_relative_error(rel_grad, fd_rels))

    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 1.0
    _pass(
        f"C1 gradients match central finite differences "
        f"(max relative error {worst:.2e}, {elapsed:.2f}s)"
    )


# -- criterion 2: evaluation vs a naive reference ----------------------


def _reference_ap(gold: set[str], order: list[str]) -> float:
    total = 0.0
    for s in gold:
        rank = order.index(s) + 1
        hits = sum(1 for g in gold if order.index(g) + 1 <= rank)
        total += hits / rank
    return total / len(gold)


def _reference_f1(gold: set[str], selected: set[str]) -> float:
    if not selected or not gold & selected:
        return 0.0
    precision = len(gold & selected) / len(selected)
    recall = len(gold & selected) / len(gold)
    return 2 * precision * recall / (precision + recall)


def test_c2_evaluate_matches_brute_force_reference():
    rng = random.Random(202)
    checked_scopes = 0
    for _ in range(100):
        n_synsets = rng.randint(1, 20)
        n_sememes = rng.randint(2, 15)
        sememes = [f"s{i}" for i in range(n_sememes)]
        triplets, split_map, pos_tags = [], {}, {}
        gold: dict[str, set[str]] = {}
        orders: dict[str, list[str]] = {}
        selections: dict[str, set[str]] = {}
        covered: dict[str, bool] = {}
        for i in range(n_synsets):
            name = f"b{i}"
            gold[name] = set(rng.sample(sememes, rng.randint(1, min(4, n_sememes))))
            for s in gold[name]:
                t = make_triplet(synset_id(name), "have_sememe", sememe_id(s))
                triplets.append(t)
                split_map[t] = Split.TEST
            pos_tags[synset_id(name)] = rng.choice(list(Pos))
            order = sememes[:]
            rng.shuffle(order)
            orders[name] = order
            selections[name] = {s for s in sememes if rng.random() < 0.3}
            covered[name] = rng.random() > 0.2
        store = TripletStore(triplets, pos_tags, split_map)
        results = {}
        for name in gold:
            if not covered[name]:
                continue
            ranking = ScoredRanking(
                synset_id(name),
                tuple(
                    (sememe_id(s), float(len(orders[name]) - i))
                    for i, s in enumerate(orders[name])
                ),
            )
            results[synset_id(name)] = PredictionResult(
                synset_id(name),
                ranking,
                frozenset(sememe_id(s) for s in selections[name]),
                Provenance.FUSED,
            )
        report = evaluate(results, store, Split.TEST)

        by_pos: dict[str, list[str]] = {"all": list(gold)}
        for name in gold:
            tag = pos_tags[synset_id(name)]
            if tag is not Pos.UNKNOWN:
                by_pos.setdefault(tag.value, []).append(name)
        assert set(report.rows) == set(by_pos)
        for scope, members in by_pos.items():
            aps = [
                _reference_ap(gold[m], orders[m]) if covered[m] else 0.0 for m in members
            ]
            f1s = [
                _reference_f1(gold[m], selections[m]) if covered[m] else 0.0 for m in members
            ]
            row = report.rows[scope]
            assert row.n == len(members)
            np.testing.assert_allclose(row.map_score, sum(aps) / len(aps), atol=1e-12)
            np.testing.assert_allclose(row.f1, sum(f1s) / len(f1s), atol=1e-12)
            checked_scopes += 1
        assert len(report.uncovered) == sum(1 for name in gold if not covered[name])
    _pass(
        f"C2 evaluate matches the brute-force reference on 100 instances "
        f"({checked_scopes} scope rows, tolerance 1e-12)"
    )


# -- criterion 3: predictor scores vs the naive oracles ----------------


def test_c3_scores_match_naive_oracles():
    rng = random.Random(303)
    np_rng = np.random.default_rng(303)
    for _ in range(50):
        n_neighbors = rng.randint(2, 8)
        n_sememes = rng.randint(2, 8)
        dim = rng.randint(2, 6)
        target = synset_id("t")
        names = [synset_id(f"b{i}") for i in range(n_neighbors)]
        vectors = {n: np_rng.normal(size=dim) for n in [target] + names}
        sememes = [sememe_id(f"s{i}") for i in range(n_sememes)]
        annotations = {
            n: frozenset(rng.sample(sememes, rng.randint(1, n_sememes))) for n in names
        }
        decay = rng.uniform(0.1, 0.9)
        cap = rng.choice([None, rng.randint(1, n_neighbors)])
        config = SrConfig(decay=decay, neighbor_cap=cap)
        store = SemanticVectorStore(dim, vectors)
        got = recommend(store, target, annotations, config, sememes)
        want = similarity_score_oracle(
            {n: v.tolist() for n, v in vectors.items()}, target, annotations, decay, cap, sememes
        )
        assert got.sememes() == want.sememes()
        for s in got.sememes():
            np.testing.assert_allclose(got.score(s), want.score(s), atol=1e-9)

    for _ in range(50):
        n_sememes = rng.randint(2, 10)
        dim = rng.randint(2, 6)
        target = synset_id("t")
        sememes = [sememe_id(f"s{i}") for i in range(n_sememes)]
        node_vecs = {n: np_rng.normal(size=dim) for n in [target] + sememes}
        rel_vecs = {HAVE: np_rng.normal(size=dim)}
        table = build_table(dim, node_vecs, rel_vecs)
        got = rank_sememes(table, target, sememes)
        want = translation_distance_oracle(
            {n: v.tolist() for n, v in node_vecs.items()},
            rel_vecs[HAVE].tolist(),
            target,
            sememes,
        )
        assert got.sememes() == want.sememes()
        for s in got.sememes():
            np.testing.assert_allclose(got.score(s), want.score(s), atol=1e-12)
    _pass(
        "C3 similarity and translation scores match the naive oracles on "
        "50 instances each (1e-9 / 1e-12)"
    )


# -- criterion 4: fusion degeneracies on a real test split -------------


def test_c4_fusion_degeneracies_hold_on_every_test_synset():
    config = SynthConfig(
        n_synsets=80,
        n_sememes=16,
        n_antonym_pairs=4,
        n_hypernym_edges=6,
        vector_dim=16,
        noise=0.05,
        seed=13,
    )
    store, vectors, _ = generate(config)
    store = store.split_dataset((0.8, 0.1, 0.1), seed=13)
    result = train(
        store,
        TrainConfig(dimension=8, epochs=10, batch_size=256, seed=13),
    )
    candidates = store.sememes
    train_annotations = store.annotation_map(Split.TRAIN)
    targets = sorted(store.annotation_map(Split.TEST), key=lambda n: n.name)
    assert targets
    sr_cfg = SrConfig()
    for target in targets:
        translation = rank_sememes(result.table, target, candidates)
        similarity = recommend(vectors, target, train_annotations, sr_cfg, candidates)
        no_sim = fuse(similarity, translation, FusionConfig(similarity_weight=0.0))
        assert no_sim.sememes() == translation.sememes()
        no_tr = fuse(similarity, translation, FusionConfig(translation_weight=0.0))
        assert no_tr.sememes() == similarity.sememes()
        absent = fuse(None, translation, FusionConfig())
        assert absent.sememes() == translation.sememes()
    _pass(
        f"C4 fusion degenerates to the single-model orderings on all "
        f"{len(targets)} test synsets"
    )


# -- criterion 5: synthetic recovery beats the random baseline ---------


def _permutation_ap(gold: set, order: list) -> float:
    ranks = sorted(order.index(s) + 1 for s in gold)
    return sum((i + 1) / r for i, r in enumerate(ranks)) / len(ranks)


def test_c5_synthetic_recovery_beats_random_baseline():
    start = time.perf_counter()
    # Singleton gold sets and a high twin fraction keep the planted
    # structure recoverable by a translation model at this reduced scale;
    # all modelling hyperparameters besides dimension and epochs are stock.
    config = SynthConfig(
        n_synsets=300,
        n_sememes=40,
        min_sememes_per_synset=1,
        max_sememes_per_synset=1,
        twin_fraction=0.9,
        noise=0.05,
        seed=0,
    )
    store, _, gold = generate(config)
    store = store.split_dataset((0.8, 0.1, 0.1), seed=0)
    result = train(
        store,
        TrainConfig(dimension=64, epochs=200, learning_rate=0.01, batch_size=256, seed=0),
    )
    candidates = list(store.sememes)
    targets = sorted(store.annotation_map(Split.TEST), key=lambda n: n.name)
    assert targets

    model_aps = []
    for target in targets:
        ranking = rank_sememes(result.table, target, candidates)
        model_aps.append(average_precision(gold[target], ranking))
    model_map = sum(model_aps) / len(model_aps)

    rng = random.Random(0)
    baseline_aps = []
    for target in targets:
        shuffled = candidates[:]
        total = 0.0
        for _ in range(100):
            rng.shuffle(shuffled)
            total += _permutation_ap(gold[target], shuffled)
        baseline_aps.append(total / 100)
    baseline_map = sum(baseline_aps) / len(baseline_aps)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert model_map >= 3.0 * baseline_map
    _pass(
        f"C5 held-out MAP {model_map:.3f} is {model_map / baseline_map:.1f}x the "
        f"random baseline {baseline_map:.3f} ({elapsed:.0f}s)"
    )


# -- criterion 6: hand-arithmetic fixtures -----------------------------


def test_c6_hand_fixtures_reproduce_exactly():
    # Margin loss: d_pos=2 and d_neg=3 built from integer-valued vectors.
    a, b, c = synset_id("a"), synset_id("b"), synset_id("c")
    table = build_table(
        3,
        {a: [0.0, 0.0, 0.0], b: [0.0, 0.0, 1.0], c: [0.0, 0.0, 0.0]},
        {RelationId(RelationKind.SYNSET_SYNSET, "related"): [1.0, 1.0, 1.0]},
    )
    positive = table.triplet_rows([make_triplet(a, "related", b)])
    negative = np.array([[table.node_index(a), positive[0, 1], table.node_index(c)]])
    assert margin_ranking_loss(table, positive, negative, margin=4.0) == 3.0

    # Equivalence loss in one dimension: (1.0 + 0.5 - 2.0)^2.
    p, q = sememe_id("p"), sememe_id("q")
    table = build_table(
        1,
        {a: [1.0], p: [1.0], q: [1.0]},
        {EQUIVALENCE_RELATION: [0.5]},
    )
    assert equivalence_loss(table, {a: frozenset({p, q})}) == 0.25

    # Similarity aggregation from two ranked neighbors with decay 0.8.
    neighbors = [(synset_id("b1"), 0.9), (synset_id("b2"), 0.5)]
    annotations = {
        synset_id("b1"): frozenset({sememe_id("s1")}),
        synset_id("b2"): frozenset({sememe_id("s1"), sememe_id("s2")}),
    }
    ranking = score_sememes(synset_id("t"), neighbors, annotations, SrConfig(decay=0.8))
    assert ranking.score(sememe_id("s1")) == 0.9 * 0.8 + 0.5 * 0.8**2
    assert ranking.score(sememe_id("s2")) == 0.5 * 0.8**2
    np.testing.assert_allclose(ranking.score(sememe_id("s1")), 1.04, rtol=1e-12)
    np.testing.assert_allclose(ranking.score(sememe_id("s2")), 0.32, rtol=1e-12)

    # Reciprocal-rank fusion of rank 1 and rank 2.
    similarity = ScoredRanking(synset_id("t"), ((sememe_id("s1"), 2.0), (sememe_id("s2"), 1.0)))
    translation = ScoredRanking(synset_id("t"), ((sememe_id("s2"), 2.0), (sememe_id("s1"), 1.0)))
    fused = fuse(similarity, translation, FusionConfig())
    assert fused.score(sememe_id("s1")) == 0.45 / 1 + 0.55 / 2
    np.testing.assert_allclose(fused.score(sememe_id("s1")), 0.725, rtol=1e-12)

    # Average precision with gold at ranks 1 and 3 of 5.
    order = ["s1", "s2", "s3", "s4", "s5"]
    ranking = ScoredRanking(
        synset_id("t"),
        tuple((sememe_id(s), float(5 - i)) for i, s in enumerate(order)),
    )
    ap = average_precision([sememe_id("s1"), sememe_id("s3")], ranking)
    assert ap == (1.0 + 2.0 / 3.0) / 2.0
    np.testing.assert_allclose(ap, 0.83333333333333333, rtol=1e-15)

    # F1 of a half-overlapping selection.
    assert f1_score([sememe_id("b"), sememe_id("c")], [sememe_id("a"), sememe_id("b")]) == 0.5
    _pass("C6 hand fixtures (3.0, 0.25, 1.04/0.32, 0.725, 0.8333, 0.5) reproduce exactly")


# -- criterion 7: pipeline determinism ---------------------------------


def _run_pipeline(base: Path, synth: Path, seed: str) -> dict[str, bytes]:
    prep, trained, pred, evaled = (base / n for n in ("prep", "train", "pred", "eval"))
    assert cli_main([
        "prepare", "--seed", seed, "--triplets", str(synth / "triplets.tsv"),
        "--pos", str(synth / "pos.tsv"), "--out", str(prep),
    ]) == 0
    assert cli_main([
        "train", "--seed", seed,
        "--data", str(prep / "dataset.tsv"), "--out", str(trained),
        "--set", "train.dimension=16", "--set", "train.epochs=20",
        "--set", "train.batch_size=256",
    ]) == 0
    assert cli_main([
        "predict", "--seed", seed,
        "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--embeddings", str(trained / "embeddings.tsv"),
        "--vectors", str(synth / "vectors.tsv"),
        "--split", "test", "--out", str(pred),
    ]) == 0
    assert cli_main([
        "eval", "--seed", seed,
        "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--predictions", str(pred / "predictions.tsv"),
        "--split", "test", "--out", str(evaled),
    ]) == 0
    artifacts = {}
    for directory in (prep, trained, pred, evaled):
        for file in sorted(directory.iterdir()):
            artifacts[f"{directory.name}/{file.name}"] = file.read_bytes()
    return artifacts


def test_c7_pipeline_is_byte_deterministic(tmp_path):
    synth = tmp_path / "synth"
    assert cli_main([
        "synth", "--seed", "5", "--out", str(synth),
        "--set", "synth.n_synsets=60", "--set", "synth.n_sememes=12",
        "--set", "synth.antonym_pairs=3", "--set", "synth.hypernym_edges=4",
        "--set", "synth.vector_dim=12",
    ]) == 0
    base = tmp_path / "run"
    first = _run_pipeline(base, synth, seed="5")
    second = _run_pipeline(base, synth, seed="5")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    assert len(first) >= 11
    _pass(f"C7 two identical pipeline runs produced {len(first)} byte-identical artifacts")


# -- criterion 8: split protocol ---------------------------------------


def test_c8_split_protocol_over_50_seeds():
    config = SynthConfig(
        n_synsets=60,
        n_sememes=12,
        n_antonym_pairs=3,
        n_hypernym_edges=4,
        vector_dim=12,
        seed=7,
    )
    store, _, _ = generate(config)
    syn_syn_total = sum(
        1 for t in store.triplets if t.relation.kind is RelationKind.SYNSET_SYNSET
    )
    assert syn_syn_total > 0
    held_out_leaks = 0
    syn_syn_in_train = 0
    held_out_synsets = 0
    for seed in range(50):
        split_store = store.split_dataset((0.8, 0.1, 0.1), seed=seed)
        held_out = set(split_store.annotation_map(Split.VALID)) | set(
            split_store.annotation_map(Split.TEST)
        )
        assert held_out
        held_out_synsets += len(held_out)
        for t in split_store.triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME:
                if t.head in held_out and split_store.split_of(t) is Split.TRAIN:
                    held_out_leaks += 1
            elif t.relation.kind is RelationKind.SYNSET_SYNSET:
                if split_store.split_of(t) is Split.TRAIN:
                    syn_syn_in_train += 1
    assert held_out_leaks == 0
    assert syn_syn_in_train == 50 * syn_syn_total
    _pass(
        f"C8 over 50 splits: 0 held-out annotation leaks "
        f"({held_out_synsets} held-out synsets), all {syn_syn_total} "
        f"synset-synset triplets stayed in train every time"
    )


# -- criterion 9: stock hyperparameters and full-scale report ----------


def test_c9_stock_hyperparameters_and_report_shape(tmp_path):
    train_defaults = TrainConfig()
    assert train_defaults.dimension == 800
    assert train_defaults.margin == 4.0
    assert train_defaults.ranking_weight == 0.95
    assert train_defaults.equivalence_weight == 0.05
    assert train_defaults.learning_rate == 0.01
    assert SrConfig().decay == 0.8
    fusion_defaults = FusionConfig()
    assert fusion_defaults.similarity_weight == 0.45
    assert fusion_defaults.translation_weight == 0.55
    assert fusion_defaults.threshold == 0.32

    triplets = os.environ.get("SP_TRIPLETS")
    pos = os.environ.get("SP_POS")
    vectors = os.environ.get("SP_VECTORS")
    if triplets and pos and vectors:
        # Full-scale run on user-supplied data with the stock
        # hyperparameters; expect hours of training.
        size_overrides: list[str] = []
        data_note = "user-supplied data, stock scale"
    else:
        # Desk-scale stand-in: synthetic data, with only the size and
        # epoch knobs reduced; every modelling hyperparameter stays stock.
        synth = tmp_path / "synth"
        assert cli_main([
            "synth", "--seed", "3", "--out", str(synth),
            "--set", "synth.n_synsets=80", "--set", "synth.n_sememes=16",
            "--set", "synth.antonym_pairs=4", "--set", "synth.hypernym_edges=6",
            "--set", "synth.vector_dim=16",
        ]) == 0
        triplets = str(synth / "triplets.tsv")
        pos = str(synth / "pos.tsv")
        vectors = str(synth / "vectors.tsv")
        size_overrides = [
            "--set", "train.dimension=16", "--set", "train.epochs=30",
            "--set", "train.batch_size=256",
        ]
        data_note = "synthetic stand-in, stock hyperparameters at reduced scale"

    prep, trained, pred, evaled = (
        tmp_path / n for n in ("prep", "train", "pred", "eval")
    )
    assert cli_main([
        "prepare", "--seed", "3", "--triplets", triplets, "--pos", pos, "--out", str(prep),
    ]) == 0
    assert cli_main([
        "train", "--seed", "3", "--data", str(prep / "dataset.tsv"), "--out", str(trained),
    ] + size_overrides) == 0
    assert cli_main([
        "predict", "--seed", "3",
        "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--embeddings", str(trained / "embeddings.tsv"), "--vectors", vectors,
        "--split", "test", "--out", str(pred),
    ]) == 0
    assert cli_main([
        "eval", "--seed", "3",
        "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
        "--predictions", str(pred / "predictions.tsv"),
        "--split", "test", "--out", str(evaled),
    ]) == 0

    table_lines = (evaled / "report.txt").read_text().splitlines()
    assert table_lines[0].split() == ["scope", "n", "MAP", "F1"]
    assert [line.split()[0] for line in table_lines[1:6]] == [
        "noun", "verb", "adj", "adv", "avg",
    ]
    resolved = (trained / "config.resolved").read_text()
    if not size_overrides:
        assert "train.dimension = 800" in resolved
    assert "train.margin = 4.0" in resolved
    assert "train.ranking_weight = 0.95" in resolved
    assert "train.equivalence_weight = 0.05" in resolved
    assert "train.learning_rate = 0.01" in resolved
    _pass(f"C9 stock defaults verified and the pipeline emitted the POS-by-row report ({data_note})")
