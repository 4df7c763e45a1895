"""`semepred predict` end to end for every model and input combination.

Each dump is recomputed here from `rank_sememes`/`recommend` (scores
`weight / rank`, or the raw model scores), and `summary.txt` is checked
for its coverage and provenance counts.
"""

from __future__ import annotations

import json

import pytest

from helpers import run_chain
from semepred import (
    CoverageError,
    EmbeddingTable,
    SemanticVectorStore,
    Split,
    load_predictions,
    load_triplets,
    rank_sememes,
    recommend,
)
from semepred.cli import main
from semepred.config import fusion_config, resolve, sr_config

DEFAULTS = resolve()
THRESHOLD = fusion_config(DEFAULTS).threshold
SIM_WEIGHT = fusion_config(DEFAULTS).similarity_weight
TR_WEIGHT = fusion_config(DEFAULTS).translation_weight


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared synthetic dataset, a small trained model, the full vector
    file and one that drops every other test target's vector."""
    root = tmp_path_factory.mktemp("predict")
    dirs = {"synth": root / "synth", "prepare": root / "prep", "train": root / "model"}
    synth, prep, model = dirs.values()
    run_chain(
        dirs, dirs,
        synth=["--set", "synth.n_synsets=40", "--set", "synth.n_sememes=12", "--set", "synth.antonym_pairs=2",
               "--set", "synth.hypernym_edges=3", "--set", "synth.vector_dim=10", "--set", "synth.noise=0.02"],
        prepare=["--set", "prepare.ratios=0.6,0.1,0.3"],
        train=["--set", "train.dimension=8", "--set", "train.epochs=3", "--set", "train.batch_size=64"],
    )
    store = load_triplets(prep / "dataset.tsv", prep / "pos.tsv")
    targets = sorted(store.annotation_map(Split.TEST), key=lambda n: n.name)
    dropped = {t.name for t in targets[::2]}
    lines = (synth / "vectors.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    partial = root / "partial_vectors.tsv"
    partial.write_text(
        "".join(line for line in lines if line.split("\t", 1)[0] not in dropped),
        encoding="utf-8",
    )
    return {
        "root": root,
        "data": prep / "dataset.tsv",
        "pos": prep / "pos.tsv",
        "embeddings": model / "embeddings.tsv",
        "vectors": synth / "vectors.tsv",
        "partial": partial,
        "store": store,
        "targets": targets,
    }


def _predict(ws, name, *, embeddings=False, vectors=None, model=None, sets=(), exit_code=0):
    out = ws["root"] / name
    argv = ["predict", "--data", str(ws["data"]),
            "--split", "test", "--out", str(out)]
    if embeddings:
        argv += ["--embeddings", str(ws["embeddings"])]
    if vectors is not None:
        argv += ["--vectors", str(ws[vectors])]
    if model is not None:
        argv += ["--model", model]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == exit_code
    return out


def _rankings(ws, vectors=None):
    """Per-target translation and similarity rankings, ``None`` where the
    vector file does not cover a target."""
    store = ws["store"]
    table = EmbeddingTable.load(ws["embeddings"])
    annotations = store.annotation_map(Split.TRAIN)
    vector_store = (
        SemanticVectorStore.load(ws[vectors], known_synsets=store.synsets) if vectors else None
    )
    out = {}
    for target in ws["targets"]:
        similarity = None
        if vector_store is not None:
            try:
                similarity = recommend(
                    vector_store, target, annotations, sr_config(DEFAULTS), store.sememes
                )
            except CoverageError:
                pass
        out[target] = (rank_sememes(table, target, store.sememes), similarity)
    return out


def _reciprocal(ranking, weight):
    return {s: weight / rank for rank, s in enumerate(ranking.sememes(), start=1)}


def _ordered(scores):
    return [(s.name, v) for s, v in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0].name))]


def _check_dump(out, expected):
    """``expected`` maps target to its score dict; the dump must hold
    exactly those targets, scores and the strict-threshold selection."""
    dumped = load_predictions(out / "predictions.tsv")
    assert [r.target for r in dumped] == sorted(expected, key=lambda n: n.name)
    for result in dumped:
        want = _ordered(expected[result.target])
        assert [(s.name, v) for s, v in result.ranking.entries] == want
        assert {s.name for s in result.selected} == {n for n, v in want if v > THRESHOLD}


def _summary(out):
    rows = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    return dict(row.split("\t") for row in rows)


def _check_summary(out, targets, sr_uncovered, **provenance):
    counts = {"similarity": 0, "translation": 0, "fused": 0, **provenance}
    assert _summary(out) == {
        "targets": str(targets),
        "predicted": str(sum(counts.values())),
        "sr_uncovered": str(sr_uncovered),
        **{f"provenance[{k}]": str(v) for k, v in counts.items()},
    }


class TestSingleModels:
    def test_translation_scores_one_over_rank_and_ignores_vectors(self, workspace):
        out = _predict(workspace, "tr", embeddings=True, vectors="partial", model="translation")
        rankings = _rankings(workspace)
        _check_dump(out, {t: _reciprocal(tr, 1.0) for t, (tr, _) in rankings.items()})
        n = len(workspace["targets"])
        _check_summary(out, n, 0, translation=n)
        # At 1/rank the 0.32 threshold keeps exactly the top three.
        for result in load_predictions(out / "predictions.tsv"):
            assert result.selected == set(result.ranking.sememes()[:3])

    def test_similarity_with_partial_vectors_skips_uncovered_targets(self, workspace):
        out = _predict(workspace, "sim", embeddings=True, vectors="partial", model="similarity")
        rankings = _rankings(workspace, "partial")
        covered = {t: _reciprocal(sim, 1.0) for t, (_, sim) in rankings.items() if sim is not None}
        assert 0 < len(covered) < len(rankings)
        _check_dump(out, covered)
        _check_summary(out, len(rankings), len(rankings) - len(covered), similarity=len(covered))

    def test_translation_raw_scores(self, workspace):
        out = _predict(workspace, "tr_raw", embeddings=True, model="translation",
                       sets=["fusion.raw_scores=true"])
        rankings = _rankings(workspace)
        _check_dump(out, {t: dict(tr.entries) for t, (tr, _) in rankings.items()})
        n = len(workspace["targets"])
        _check_summary(out, n, 0, translation=n)

    def test_similarity_raw_scores(self, workspace):
        out = _predict(workspace, "sim_raw", vectors="partial", model="similarity",
                       sets=["fusion.raw_scores=true"])
        rankings = _rankings(workspace, "partial")
        covered = {t: dict(sim.entries) for t, (_, sim) in rankings.items() if sim is not None}
        _check_dump(out, covered)
        _check_summary(out, len(rankings), len(rankings) - len(covered), similarity=len(covered))

    @pytest.mark.parametrize("model", ["fused", None])
    def test_raw_scores_with_the_fused_model_is_a_config_error(self, workspace, capsys, model):
        out = _predict(workspace, f"raw_{model}", embeddings=True, vectors="vectors", model=model,
                       sets=["fusion.raw_scores=true"], exit_code=1)
        err = capsys.readouterr().err
        assert "config error: fusion.raw_scores=true needs predict.model=similarity or translation" in err
        assert not (out / "predictions.tsv").exists()

    @pytest.mark.parametrize(
        ("model", "unused", "key"),
        [("translation", SemanticVectorStore, "data.vectors"), ("similarity", EmbeddingTable, "data.embeddings")],
    )
    def test_other_model_input_is_checked_but_not_loaded(self, workspace, monkeypatch, capsys, model, unused, key):
        used = EmbeddingTable if unused is SemanticVectorStore else SemanticVectorStore
        calls = {EmbeddingTable: 0, SemanticVectorStore: 0}

        def spy(cls):
            load = cls.load

            def counted(*args, **kwargs):
                calls[cls] += 1
                return load(*args, **kwargs)

            return counted

        for cls in calls:
            monkeypatch.setattr(cls, "load", spy(cls))
        _predict(workspace, f"{model}_alone", embeddings=True, vectors="vectors", model=model)
        assert calls == {used: 1, unused: 0}
        # The unused path is still a setting that must name a file.
        _predict(workspace, f"{model}_dir", embeddings=used is EmbeddingTable,
                 vectors="vectors" if used is SemanticVectorStore else None, model=model,
                 sets=[f"{key}={workspace['root']}"], exit_code=1)
        assert f"{key} points to {workspace['root']}, which is not a regular file" in capsys.readouterr().err


class TestFusedInputs:
    def test_embeddings_only_is_translation_at_its_weight(self, workspace):
        out = _predict(workspace, "fused_tr", embeddings=True)
        rankings = _rankings(workspace)
        _check_dump(out, {t: _reciprocal(tr, TR_WEIGHT) for t, (tr, _) in rankings.items()})
        n = len(workspace["targets"])
        _check_summary(out, n, 0, translation=n)

    def test_vectors_only_is_similarity_at_its_weight(self, workspace):
        out = _predict(workspace, "fused_sim", vectors="partial")
        rankings = _rankings(workspace, "partial")
        covered = {
            t: _reciprocal(sim, SIM_WEIGHT) for t, (_, sim) in rankings.items() if sim is not None
        }
        _check_dump(out, covered)
        _check_summary(out, len(rankings), len(rankings) - len(covered), similarity=len(covered))

    def test_partial_vectors_fall_back_to_translation(self, workspace):
        out = _predict(workspace, "fused_both", embeddings=True, vectors="partial")
        rankings = _rankings(workspace, "partial")
        expected = {}
        for target, (tr, sim) in rankings.items():
            scores = _reciprocal(tr, TR_WEIGHT)
            if sim is not None:
                # Similarity term first, as the fusion adds them.
                sim_scores = _reciprocal(sim, SIM_WEIGHT)
                scores = {s: sim_scores[s] + v for s, v in scores.items()}
            expected[target] = scores
        _check_dump(out, expected)
        uncovered = sum(sim is None for _, sim in rankings.values())
        assert 0 < uncovered < len(rankings)
        _check_summary(out, len(rankings), uncovered,
                       fused=len(rankings) - uncovered, translation=uncovered)


class TestZeroWeight:
    """A zero weight is allowed, but not on the only ranking a target has."""

    def test_translation_weight_zero_without_similarity_coverage(self, workspace, capsys):
        _predict(workspace, "zero_tr", embeddings=True, vectors="partial",
                 sets=["fusion.translation_weight=0"], exit_code=1)
        err = capsys.readouterr().err
        uncovered = workspace["targets"][0]
        assert f"config error: {uncovered.name} has only a translation ranking" in err
        assert "fusion.translation_weight is 0" in err

    def test_similarity_weight_zero_without_embeddings(self, workspace, capsys):
        _predict(workspace, "zero_sim", vectors="partial",
                 sets=["fusion.similarity_weight=0"], exit_code=1)
        err = capsys.readouterr().err
        covered = workspace["targets"][1]
        assert f"config error: {covered.name} has only a similarity ranking" in err
        assert "fusion.similarity_weight is 0" in err

    def test_translation_weight_zero_with_full_coverage_runs(self, workspace):
        out = _predict(workspace, "zero_tr_full", embeddings=True, vectors="vectors",
                       sets=["fusion.translation_weight=0"])
        n = len(workspace["targets"])
        _check_summary(out, n, 0, fused=n)


class TestBadVectorFile:
    def test_non_decimal_digit_header_exits_two_naming_the_line(self, workspace, capsys):
        vectors = workspace["root"] / "superscript_vectors.tsv"
        vectors.write_text("D=\u00b2\n", encoding="utf-8")
        argv = ["predict", "--data", str(workspace["data"]),
                "--vectors", str(vectors), "--split", "test",
                "--out", str(workspace["root"] / "superscript")]
        assert main(argv) == 2
        assert f"error: {vectors}:1: expected a D=<dim> header" in capsys.readouterr().err


class TestBadEmbeddings:
    def test_missing_node_error_prints_unquoted(self, workspace, capsys):
        missing = workspace["targets"][0]
        embeddings = workspace["root"] / "short_embeddings.tsv"
        lines = workspace["embeddings"].read_text(encoding="utf-8").splitlines(keepends=True)
        embeddings.write_text(
            "".join(line for line in lines if line.split("\t", 1)[0] != missing.name), encoding="utf-8"
        )
        argv = ["predict", "--data", str(workspace["data"]),
                "--embeddings", str(embeddings), "--split", "test",
                "--out", str(workspace["root"] / "short_embeddings")]
        assert main(argv) == 2
        assert f"error: no embedding for node {missing.name}" in capsys.readouterr().err.splitlines()

    def test_sememe_missing_from_embeddings_names_both_files(self, workspace, capsys):
        synset = next(iter(workspace["store"].annotation_map(Split.TRAIN)))
        data = workspace["root"] / "new_sememe_dataset.tsv"
        data.write_text(
            workspace["data"].read_text(encoding="utf-8") + f"{synset.name}\thave_sememe\tsem:newone\ttrain\n",
            encoding="utf-8",
        )
        argv = ["predict", "--data", str(data),
                "--embeddings", str(workspace["embeddings"]), "--split", "test",
                "--out", str(workspace["root"] / "new_sememe")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: no embedding for node sem:newone" in err.splitlines()
        assert f"{workspace['embeddings']} has no row for it, but {data} names it" in err


class TestReportsIgnoreDumpOrder:
    def _report(self, ws, command, dump_lines, name):
        dump = ws["root"] / f"{name}.tsv"
        dump.write_text("".join(dump_lines), encoding="utf-8")
        out = ws["root"] / f"{name}_{command}"
        pos = ["--pos", str(ws["pos"])] if command == "eval" else []
        assert main([command, "--data", str(ws["data"]), *pos,
                     "--predictions", str(dump), "--split", "test", "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "config.resolved"}

    def _dump_rows(self, ws):
        pred = _predict(ws, "dump_order", embeddings=True)
        return (pred / "predictions.tsv").read_text(encoding="utf-8").splitlines(keepends=True)

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_reversed_dump_writes_the_same_bytes(self, workspace, command):
        rows = self._dump_rows(workspace)
        assert len(rows) > 1
        forward = self._report(workspace, command, rows, "forward")
        assert forward
        assert self._report(workspace, command, rows[::-1], "reversed") == forward

    def test_dropped_row_is_one_uncovered_synset(self, workspace):
        report = self._report(workspace, "eval", self._dump_rows(workspace)[1:], "dropped")["report.jsonl"]
        last = json.loads(report.decode("utf-8").splitlines()[-1])
        assert last == {"scope": "uncovered", "n": 1, "map": None, "f1": None}
