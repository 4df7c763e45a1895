"""The per-target prediction path against its dict-and-tuple-sort reference.

``rank_neighbors``, ``score_sememes``, ``rank_sememes``, ``fuse``,
``threshold_select``, ``save_predictions`` and ``ScoredRanking.from_scores``
work on name-ordered arrays: a ranking holds its candidates in name order,
a float64 score per candidate and the rank order from one stable argsort.
The ``_reference_*`` functions below are their earlier bodies, which
rebuilt the neighbour matrix for every target and keyed every dict and sort
on ``NodeId``.  The arithmetic is the same, so the entries must be equal
float for float, ties and signs of zero included, and the dumps byte for
byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import build_table
from semepred import (
    FusionConfig,
    NodeKind,
    PredictionResult,
    Provenance,
    ScoredRanking,
    SemanticVectorStore,
    SrConfig,
    fuse,
    rank_neighbors,
    rank_sememes,
    recommend,
    save_predictions,
    score_sememes,
    sememe_id,
    synset_id,
    threshold_select,
)
from semepred.errors import ConfigError, ContractError, CoverageError, ValidationError
from semepred.graph import RelationId, RelationKind

HAVE = RelationId(RelationKind.HAVE_SEMEME, "have_sememe")
SEEDS = range(40)


def _reference_from_scores(target, scores):
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0].name))
    return ScoredRanking(target, tuple(ordered))


def _reference_rank_neighbors(store, target, annotated):
    query = store.vector(target)
    candidates = sorted(
        (n for n in set(annotated) if n != target and n in store), key=lambda n: n.name
    )
    if not candidates:
        raise CoverageError(f"no annotated synset has a semantic vector to compare with {target}")
    matrix = np.stack([store.vector(n) for n in candidates])
    sims = matrix @ query / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(query))
    pairs = [(n, float(s)) for n, s in zip(candidates, sims)]
    pairs.sort(key=lambda p: (-p[1], p[0].name))
    return pairs


def _reference_score_sememes(target, neighbors, annotations, config, candidates=None):
    if not neighbors:
        raise ContractError(f"no neighbors to aggregate for {target}")
    capped = neighbors if config.neighbor_cap is None else neighbors[: config.neighbor_cap]
    scores = {}
    if candidates is not None:
        for s in candidates:
            if s.kind is not NodeKind.SEMEME:
                raise ContractError(f"candidate {s} is not a sememe")
            scores[s] = 0.0
    for rank, (neighbor, cos) in enumerate(capped, start=1):
        if neighbor not in annotations:
            raise ContractError(f"neighbor {neighbor} has no annotation entry")
        weight = max(cos, 0.0) * config.decay**rank
        for s in annotations[neighbor]:
            scores[s] = scores.get(s, 0.0) + weight
    return _reference_from_scores(target, scores)


def _reference_rank_sememes(table, target, candidates):
    if target.kind is not NodeKind.SYNSET:
        raise ContractError(f"prediction target must be a synset, got {target}")
    unique = sorted(set(candidates), key=lambda n: n.name)
    if not unique:
        raise ContractError(f"empty candidate set for {target}")
    for s in unique:
        if s.kind is not NodeKind.SEMEME:
            raise ContractError(f"candidate {s} is not a sememe")
    query = table.node_vector(target) + table.relation_vector(table.have_sememe_relation())
    rows = table.node_matrix[[table.node_index(s) for s in unique]]
    diff = rows - query[None, :]
    scores = -np.einsum("ij,ij->i", diff, diff)
    return _reference_from_scores(target, {s: float(v) for s, v in zip(unique, scores)})


def _reference_fuse(similarity, translation, config):
    present = [
        (ranking, weight, name)
        for ranking, weight, name in (
            (similarity, config.similarity_weight, "similarity"),
            (translation, config.translation_weight, "translation"),
        )
        if ranking is not None
    ]
    if not present:
        raise ContractError("fusion needs at least one ranking")
    if similarity is not None and translation is not None:
        if set(similarity.sememes()) != set(translation.sememes()):
            only_sim = sorted(s.name for s in set(similarity.sememes()) - set(translation.sememes()))
            only_tr = sorted(s.name for s in set(translation.sememes()) - set(similarity.sememes()))
            raise ContractError(
                f"candidate sets differ between the two rankings for {translation.target}: "
                f"similarity-only {only_sim[:3]}, translation-only {only_tr[:3]}"
            )
        if similarity.target != translation.target:
            raise ContractError(
                f"rankings describe different targets: {similarity.target} vs {translation.target}"
            )
    elif present[0][1] == 0:
        ranking, _, name = present[0]
        raise ConfigError(
            f"{ranking.target} has only a {name} ranking and fusion.{name}_weight is 0, "
            f"so every sememe would score 0"
        )
    (first, weight, _), *rest = present
    scores = {s: weight / rank for rank, s in enumerate(first.sememes(), start=1)}
    for ranking, weight, _ in rest:
        for rank, s in enumerate(ranking.sememes(), start=1):
            scores[s] += weight / rank
    return _reference_from_scores(first.target, scores)


def _reference_threshold_select(ranking, threshold, provenance):
    selected = frozenset(s for s, score in ranking.entries if score > threshold)
    return PredictionResult(ranking.target, ranking, selected, provenance)


def _reference_dump(results):
    """The bytes the earlier ``save_predictions`` wrote for ``results``."""
    lines = []
    for result in results:
        ranked = ",".join("%s:%.17g" % (s.name, score) for s, score in result.ranking.entries)
        chosen = ",".join(s.name for s, _ in result.ranking.entries if s in result.selected)
        lines.append(f"{result.target.name}\t{ranked}\t{chosen}\n")
    return "".join(lines).encode("utf-8")


def _assert_same(got, want):
    """Equal pairs, and equal float bits, so a sign of zero shows too."""
    assert got == want
    assert [v.hex() for _, v in got] == [v.hex() for _, v in want]


def _tied_rows(rng, n, dim):
    """Rows of which about a third repeat an earlier row exactly or scaled
    (by a power of two, which keeps every cosine bit for bit, or by 3 or
    -1); small integer components add cosine ties between distinct rows."""
    rows = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    rows[~rows.any(axis=1), 0] = 1.0
    if rng.random() < 0.5:
        rows += rng.normal(scale=0.5, size=(n, dim))
    for i in range(1, n):
        roll = rng.random()
        if roll < 0.2:
            rows[i] = rows[rng.integers(i)]
        elif roll < 0.35:
            rows[i] = rows[rng.integers(i)] * rng.choice([0.5, 2.0, 4.0, 3.0, -1.0])
    return rows


def _case(seed):
    """A random target, vector store, annotations and candidate list.

    Synset names are a shuffle of their rows, so name order differs from
    construction order; some annotated synsets have no vector, sememe sets
    repeat (tied votes), and about half the cases annotate sememes that are
    not candidates."""
    rng = np.random.default_rng(seed)
    n_syn, n_sem, dim = int(rng.integers(3, 40)), int(rng.integers(2, 12)), int(rng.integers(1, 6))
    synsets = [synset_id(f"b{i:03d}") for i in rng.permutation(n_syn)]
    sememes = [sememe_id(f"s{i:02d}") for i in range(n_sem)]
    rows = _tied_rows(rng, n_syn, dim)
    with_vectors = [i for i in range(n_syn) if i == 0 or rng.random() < 0.8]
    store = SemanticVectorStore(dim, {synsets[i]: rows[i] for i in with_vectors})
    target = synsets[0]
    annotated = [s for s in synsets[1:] if rng.random() < 0.7]
    if rng.random() < 0.5:
        annotated.append(target)

    def draw():
        size = int(rng.integers(1, min(3, n_sem) + 1))
        return frozenset(rng.choice(sememes, size=size, replace=False).tolist())

    shared = [draw() for _ in range(3)]
    annotations = {
        s: shared[int(rng.integers(3))] if rng.random() < 0.5 else draw() for s in annotated
    }
    candidates = sememes if rng.random() < 0.5 else sememes[: max(1, n_sem // 2)]
    return rng, store, target, annotations, list(rng.permutation(candidates).tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_neighbors_matches_reference(seed):
    _, store, target, annotations, _ = _case(seed)
    # A limit returns the head of the full list; 1 and 3 cut inside it
    # (and often inside a tie), 1000 lies past its end.
    limits = [None, 1, 3, 1000]
    try:
        expected = _reference_rank_neighbors(store, target, annotations.keys())
    except CoverageError as exc:
        for limit in limits:
            with pytest.raises(CoverageError, match=str(exc)):
                rank_neighbors(store, target, annotations.keys(), limit=limit)
        return
    for limit in limits:
        _assert_same(rank_neighbors(store, target, annotations.keys(), limit=limit), expected[:limit])


def test_rank_neighbors_breaks_forced_ties_like_reference():
    # Equal and power-of-two scaled rows give bit-equal cosines.
    base = np.array([1.0, -2.0, 0.5])
    store = SemanticVectorStore(
        3,
        {
            synset_id("t"): np.array([1.0, -1.0, 0.25]),
            synset_id("d"): base,
            synset_id("a"): base * 2.0,
            synset_id("c"): base,
            synset_id("b"): base * 0.5,
            synset_id("e"): -base,
        },
    )
    annotated = [synset_id(n) for n in "edcbat"]
    pairs = rank_neighbors(store, synset_id("t"), annotated)
    _assert_same(pairs, _reference_rank_neighbors(store, synset_id("t"), annotated))
    assert [n.name for n, _ in pairs[:4]] == ["syn:a", "syn:b", "syn:c", "syn:d"]
    assert len({cos for _, cos in pairs[:4]}) == 1
    # Limits that cut inside the four-way tie keep its first names.
    for limit, names in ((2, ["syn:a", "syn:b"]), (3, ["syn:a", "syn:b", "syn:c"])):
        capped = rank_neighbors(store, synset_id("t"), annotated, limit=limit)
        _assert_same(capped, pairs[:limit])
        assert [n.name for n, _ in capped] == names


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cap", [None, 1, 3, 1000])
def test_score_sememes_matches_reference(seed, cap):
    rng, store, target, annotations, candidates = _case(seed)
    try:
        neighbors = rank_neighbors(store, target, annotations.keys())
    except CoverageError:
        neighbors = [(n, float(rng.normal())) for n in sorted(annotations, key=lambda n: n.name)]
        if not neighbors:
            return
    config = SrConfig(decay=float(rng.uniform(0.05, 0.95)), neighbor_cap=cap)
    for pool in (candidates, None):
        got = score_sememes(target, neighbors, annotations, config, pool)
        want = _reference_score_sememes(target, neighbors, annotations, config, pool)
        _assert_same(got.entries, want.entries)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cap", [None, 1, 3, 1000])
def test_recommend_matches_reference(seed, cap):
    rng, store, target, annotations, candidates = _case(seed)
    config = SrConfig(decay=float(rng.uniform(0.05, 0.95)), neighbor_cap=cap)
    try:
        neighbors = _reference_rank_neighbors(store, target, annotations.keys())
    except CoverageError as exc:
        with pytest.raises(CoverageError, match=str(exc)):
            recommend(store, target, annotations, config, candidates)
        return
    for pool in (candidates, None):
        got = recommend(store, target, annotations, config, pool)
        want = _reference_score_sememes(target, neighbors, annotations, config, pool)
        _assert_same(got.entries, want.entries)


def _table(rng, synsets, sememes, dim):
    """Embedding table whose sememe rows repeat one another about a third
    of the time, so translation scores tie."""
    rows = _tied_rows(rng, len(sememes), dim)
    nodes = {s: rng.normal(size=dim) for s in synsets}
    nodes.update({s: rows[i] for i, s in enumerate(sememes)})
    return build_table(dim, nodes, {HAVE: rng.normal(size=dim)})


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_sememes_matches_reference(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    synsets = [synset_id(f"b{i}") for i in range(3)]
    sememes = [sememe_id(f"s{i:02d}") for i in rng.permutation(int(rng.integers(1, 25)))]
    table = _table(rng, synsets, sememes, dim)
    # Repeated candidates are deduplicated on both sides.
    candidates = sememes + sememes[: len(sememes) // 3]
    got = rank_sememes(table, synsets[0], candidates)
    _assert_same(got.entries, _reference_rank_sememes(table, synsets[0], candidates).entries)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuse_matches_reference(seed):
    rng, store, target, annotations, _ = _case(seed)
    sememes = sorted({s for group in annotations.values() for s in group}, key=lambda n: n.name)
    if not annotations or not sememes:
        return
    neighbors = [(n, float(rng.normal())) for n in sorted(annotations, key=lambda n: n.name)]
    similarity = score_sememes(target, neighbors, annotations, SrConfig(neighbor_cap=None), sememes)
    table = _table(rng, [target], sememes, int(rng.integers(1, 4)))
    translation = rank_sememes(table, target, sememes)
    weights = [(0.45, 0.55), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.9)]
    for sim_w, tr_w in weights:
        config = FusionConfig(similarity_weight=sim_w, translation_weight=tr_w)
        pairs = [(similarity, translation)]
        if sim_w:
            pairs.append((similarity, None))
        if tr_w:
            pairs.append((None, translation))
        for sim, tr in pairs:
            _assert_same(fuse(sim, tr, config).entries, _reference_fuse(sim, tr, config).entries)


@pytest.mark.parametrize("seed", SEEDS)
def test_from_scores_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    # Few distinct values (and both signs of zero) force many ties.
    values = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0, float(rng.normal())], size=n)
    scores = {sememe_id(f"s{i:02d}"): float(v) for i, v in zip(rng.permutation(n), values)}
    got = ScoredRanking.from_scores(synset_id("t"), scores)
    _assert_same(got.entries, _reference_from_scores(synset_id("t"), scores).entries)


def _model_rankings(seed):
    """(array-backed, reference) ranking pairs for one case: similarity
    over the candidate list and over ``candidates=None``, translation over
    the similarity ranking's sememes, and their fusion at several weights,
    single rankings and zero weights included."""
    rng, store, target, annotations, candidates = _case(seed)
    try:
        neighbors = rank_neighbors(store, target, annotations.keys())
    except CoverageError:
        neighbors = [(n, float(rng.normal())) for n in sorted(annotations, key=lambda n: n.name)]
    if not neighbors:
        return []
    config = SrConfig(decay=float(rng.uniform(0.05, 0.95)), neighbor_cap=None)
    pairs = []
    for pool in (candidates, None):
        sim = score_sememes(target, neighbors, annotations, config, pool)
        sim_ref = _reference_score_sememes(target, neighbors, annotations, config, pool)
        pairs.append((sim, sim_ref))
    sememes = list(sim.sememes())
    if not sememes:
        return pairs
    table = _table(rng, [target], sorted(sememes, key=lambda n: n.name), int(rng.integers(1, 4)))
    tr = rank_sememes(table, target, sememes)
    tr_ref = _reference_rank_sememes(table, target, sememes)
    pairs.append((tr, tr_ref))
    for sim_w, tr_w in [(0.45, 0.55), (1.0, 0.0), (0.0, 1.0), (0.3, 0.9)]:
        fcfg = FusionConfig(similarity_weight=sim_w, translation_weight=tr_w)
        inputs = [((sim, tr), (sim_ref, tr_ref))]
        if sim_w:
            inputs.append(((sim, None), (sim_ref, None)))
        if tr_w:
            inputs.append(((None, tr), (None, tr_ref)))
        pairs += [(fuse(*got, fcfg), _reference_fuse(*want, fcfg)) for got, want in inputs]
    return pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_selection_and_dump_match_reference(seed, tmp_path):
    """Fused rankings, and raw ones as ``fusion.raw_scores`` dumps them,
    select and dump as the reference does, at thresholds that tie a score."""
    got_results, want_results = [], []
    for got, want in _model_rankings(seed):
        _assert_same(got.entries, want.entries)
        values = [v for _, v in want.entries]
        thresholds = [0.32, 0.0, -0.0, -np.inf, max(values, default=0.0) + 1.0]
        thresholds += [values[len(values) // 2]] if values else []
        for threshold in thresholds:
            g = threshold_select(got, threshold, Provenance.FUSED)
            w = _reference_threshold_select(want, threshold, Provenance.FUSED)
            assert g == w
            assert list(g.selected) == list(w.selected)
            got_results.append(g)
            want_results.append(w)
    path = tmp_path / "predictions.tsv"
    save_predictions(got_results, path)
    assert path.read_bytes() == _reference_dump(want_results)


def test_zero_signs_survive_ranking_selection_and_dump(tmp_path):
    # A sememe at exactly target + have_sememe scores -0.0 under translation.
    target, sememes = synset_id("t"), [sememe_id(n) for n in ("c", "a", "b", "d")]
    have = np.array([0.5, -1.0])
    nodes = {target: np.array([1.0, 2.0])}
    nodes.update({sememes[0]: np.array([1.5, 1.0]), sememes[1]: np.array([1.5, 1.0])})
    nodes.update({sememes[2]: np.array([0.0, 0.0]), sememes[3]: np.array([2.0, 1.0])})
    table = build_table(2, nodes, {HAVE: have})
    tr = rank_sememes(table, target, sememes)
    _assert_same(tr.entries, _reference_rank_sememes(table, target, sememes).entries)
    assert [v.hex() for _, v in tr.entries[:2]] == ["-0x0.0p+0", "-0x0.0p+0"]
    mixed = {sememes[0]: 0.0, sememes[1]: -0.0, sememes[2]: 0.0, sememes[3]: -0.25}
    raw = ScoredRanking.from_scores(target, mixed)
    _assert_same(raw.entries, _reference_from_scores(target, mixed).entries)
    results, references = [], []
    for ranking, reference in (
        (tr, _reference_rank_sememes(table, target, sememes)),
        (raw, _reference_from_scores(target, mixed)),
    ):
        for threshold in (0.0, -0.0, -0.1):
            results.append(threshold_select(ranking, threshold, Provenance.TRANSLATION))
            references.append(_reference_threshold_select(reference, threshold, Provenance.TRANSLATION))
    path = tmp_path / "predictions.tsv"
    save_predictions(results, path)
    assert path.read_bytes() == _reference_dump(references)
    assert b"sem:a:-0,sem:c:-0," in path.read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_ranking_equals_one_built_from_entries(seed):
    for got, want in _model_rankings(seed):
        assert "entries" not in vars(got)
        eager = ScoredRanking(want.target, want.entries)
        assert got == eager
        assert hash(got) == hash(eager)
        assert repr(got) == repr(eager)
        assert [got.rank(s) for s, _ in want.entries] == list(range(1, len(want) + 1))
        assert [got.score(s).hex() for s, _ in want.entries] == [v.hex() for _, v in want.entries]
