"""What each command reads, and how it commits its stage directory.

Only ``prepare`` and ``eval`` read a POS file; ``config.resolved`` is the
last file a command writes, and a run that starts removes the previous
run's, so a stage directory holds it only after a command has finished.
"""

from __future__ import annotations

import os

import pytest

from semepred import graph
from semepred.cli import main

TRAIN = ["--set", "train.dimension=8", "--set", "train.epochs=1"]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # The CLI reads os.environ; stray overrides would leak into every run.
    for name in list(os.environ):
        if name.startswith("SEMEPRED_"):
            monkeypatch.delenv(name)


@pytest.fixture(scope="module")
def tagged(tmp_path_factory):
    """A prepared dataset whose POS file also tags ``sem:zzz``, a node no
    triplet names, and a model and a dump made without the POS file."""
    root = tmp_path_factory.mktemp("tagged")
    synth, prep, model, pred = root / "synth", root / "prep", root / "model", root / "pred"
    with pytest.MonkeyPatch.context() as mp:
        for name in list(os.environ):
            if name.startswith("SEMEPRED_"):
                mp.delenv(name)
        assert main(["synth", "--seed", "3", "--out", str(synth)]) == 0
        with open(synth / "pos.tsv", "a", encoding="utf-8") as fh:
            fh.write("sem:zzz\tnoun\n")
        assert main([
            "prepare", "--triplets", str(synth / "triplets.tsv"), "--pos", str(synth / "pos.tsv"),
            "--out", str(prep), "--set", "prepare.min_node_degree=0",
        ]) == 0
        assert main(["train", "--data", str(prep / "dataset.tsv"), "--out", str(model), *TRAIN]) == 0
        assert main([
            "predict", "--data", str(prep / "dataset.tsv"), "--embeddings", str(model / "embeddings.tsv"),
            "--vectors", str(synth / "vectors.tsv"), "--split", "test", "--out", str(pred),
        ]) == 0
    assert "sem:zzz\tnoun" in (prep / "pos.tsv").read_text(encoding="utf-8").splitlines()
    return {
        "root": root,
        "data": prep / "dataset.tsv",
        "pos": prep / "pos.tsv",
        "vectors": synth / "vectors.tsv",
        "model": model,
        "predictions": pred / "predictions.tsv",
    }


def _argv(ws, command, out, *extra):
    """``command`` on the tagged dataset, with every input it may read."""
    argv = [command, "--data", str(ws["data"]), "--out", str(out), *extra]
    if command == "predict":
        argv += ["--embeddings", str(ws["model"] / "embeddings.tsv"), "--vectors", str(ws["vectors"]),
                 "--split", "test"]
    if command in ("eval", "analyze"):
        argv += ["--predictions", str(ws["predictions"]), "--split", "test"]
    if command == "train":
        argv += TRAIN
    return argv


def _predict(ws, name, *extra):
    out = ws["root"] / name
    assert main(_argv(ws, "predict", out, *extra)) == 0
    return out


class TestOnlyPrepareAndEvalReadPos:
    @pytest.mark.parametrize("model", ["fused", "similarity"])
    def test_predict_writes_the_same_dump_with_or_without_a_pos_file(self, tagged, model):
        plain = _predict(tagged, f"plain_{model}", "--model", model)
        tagged_run = _predict(tagged, f"tagged_{model}", "--model", model, "--set", f"data.pos={tagged['pos']}")
        for name in ("predictions.tsv", "summary.txt"):
            assert (tagged_run / name).read_bytes() == (plain / name).read_bytes(), name
        assert "sem:zzz" not in (tagged_run / "predictions.tsv").read_text(encoding="utf-8")

    def test_train_writes_the_same_embeddings_with_or_without_a_pos_file(self, tagged):
        out = tagged["root"] / "tagged_model"
        assert main(_argv(tagged, "train", out, "--set", f"data.pos={tagged['pos']}")) == 0
        for name in ("embeddings.tsv", "loss_trace.csv"):
            assert (out / name).read_bytes() == (tagged["model"] / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train", "predict", "analyze"])
    def test_command_never_reads_the_pos_file(self, tagged, monkeypatch, command):
        def refuse(path):
            raise AssertionError(f"{command} read {path}")

        monkeypatch.setattr(graph, "load_pos_tags", refuse)
        out = tagged["root"] / f"unread_{command}"
        assert main(_argv(tagged, command, out, "--set", f"data.pos={tagged['pos']}")) == 0

    @pytest.mark.parametrize("command", ["predict", "analyze"])
    def test_pos_flag_is_a_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--pos", "x", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --pos x" in capsys.readouterr().err


class TestStageCommit:
    def test_every_command_writes_the_echo_last_and_once(self, tagged, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        runs = {
            "synth": ["synth", "--set", "synth.n_synsets=30", "--set", "synth.n_sememes=12",
                      "--out", str(tmp_path / "synth")],
            "prepare": ["prepare", "--triplets", str(tmp_path / "synth" / "triplets.tsv"),
                        "--out", str(tmp_path / "prepare")],
            "train": _argv(tagged, "train", tmp_path / "train"),
            "predict": _argv(tagged, "predict", tmp_path / "predict"),
            "eval": _argv(tagged, "eval", tmp_path / "eval", "--pos", str(tagged["pos"])),
            "analyze": _argv(tagged, "analyze", tmp_path / "analyze"),
        }
        for command, argv in runs.items():
            replaced.clear()
            assert main(argv) == 0, command
            assert replaced[-1] == "config.resolved", command
            assert replaced.count("config.resolved") == 1, command

    def test_failed_rerun_leaves_no_echo(self, tagged, capsys):
        out = _predict(tagged, "rerun")
        assert (out / "config.resolved").exists()
        malformed = tagged["root"] / "malformed_embeddings.tsv"
        malformed.write_text("D=x\n", encoding="utf-8")
        argv = _argv(tagged, "predict", out)
        argv[argv.index("--embeddings") + 1] = str(malformed)
        assert main(argv) == 2
        assert f"error: {malformed}:1: expected a D=<dim> header" in capsys.readouterr().err
        assert not (out / "config.resolved").exists()
        assert (out / "predictions.tsv").exists()

    def test_config_error_also_removes_the_last_runs_echo(self, tagged):
        out = _predict(tagged, "rerun_config")
        assert main(_argv(tagged, "predict", out, "--set", "fusion.similarity_weight=-1")) == 1
        assert not (out / "config.resolved").exists()
