"""What each command reads, and how it commits its stage directory.

Only ``prepare`` and ``eval`` read a POS file; ``config.resolved`` is the
last file a command writes, and a run that starts removes the previous
run's, so a stage directory holds it only after a command has finished.
The CLI's flag table names each input's source in the chain, and the
commands agree with it.
"""

from __future__ import annotations

import argparse
import os
import runpy
from pathlib import Path

import pytest

from helpers import run_chain
from semepred import cli, graph
from semepred.cli import chain_argv, main

TRAIN = ["--set", "train.dimension=8", "--set", "train.epochs=1"]
TINY = ["--set", "synth.n_synsets=20", "--set", "synth.n_sememes=6", "--set", "synth.antonym_pairs=1",
        "--set", "synth.hypernym_edges=1", "--set", "synth.vector_dim=4"]
STAGES = ("synth", "prepare", "train", "predict", "eval", "analyze")
PATH_SETTINGS = {"prepare.triplets", "prepare.pos", "data.triplets", "data.pos", "data.vectors",
                 "data.embeddings", "data.predictions"}


@pytest.fixture(scope="module")
def tagged(tmp_path_factory):
    """A prepared dataset whose POS file also tags ``sem:zzz``, a node no
    triplet names, and a model and a dump made without the POS file."""
    root = tmp_path_factory.mktemp("tagged")
    dirs = {"synth": root / "synth", "prepare": root / "prep", "train": root / "model", "predict": root / "pred"}
    synth, prep, model, _ = dirs.values()
    assert main(["synth", "--seed", "3", "--out", str(synth)]) == 0
    with open(synth / "pos.tsv", "a", encoding="utf-8") as fh:
        fh.write("sem:zzz\tnoun\n")
    run_chain(dirs, ["prepare", "train", "predict"], prepare=["--set", "prepare.min_node_degree=0"], train=TRAIN)
    assert "sem:zzz\tnoun" in (prep / "pos.tsv").read_text(encoding="utf-8").splitlines()
    return {"root": root, "dirs": dirs, "pos": prep / "pos.tsv", "model": model}


def _argv(ws, command, out, *extra):
    """``command`` on the tagged dataset, with every input it may read."""
    train = TRAIN if command == "train" else []
    return [*chain_argv(command, {**ws["dirs"], command: out}, split="test"), *train, *extra]


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
            "eval": _argv(tagged, "eval", tmp_path / "eval"),
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


@pytest.fixture(scope="module")
def table_chain(tmp_path_factory):
    """The chain at a tiny shape from the flag table, and the path settings
    each command read, whether set or not."""
    root = tmp_path_factory.mktemp("table")
    dirs = {stage: root / stage for stage in STAGES}
    log, read = [], {}

    def recording(path_of):
        def record(settings, key):
            log.append(key)
            return path_of(settings, key)
        return record

    with pytest.MonkeyPatch.context() as mp:
        for reader in ("_existing_path", "_optional_path"):
            mp.setattr(cli, reader, recording(getattr(cli, reader)))
        for command in STAGES:
            log.clear()
            run_chain(dirs, [command], synth=TINY, train=TRAIN)
            read[command] = set(log)
    return dirs, read


class TestChainTable:
    def test_every_input_exists_where_an_earlier_stage_wrote_it(self, table_chain):
        dirs, _ = table_chain
        for command, row in cli._COMMAND_TABLE.items():
            for _, key, source in row.flags:
                if source is not None:
                    stage, name = source
                    assert STAGES.index(stage) < STAGES.index(command), (command, key)
                    assert (dirs[stage] / name).is_file(), (command, key)

    def test_every_table_key_has_its_flag_in_the_command_parser(self):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(cli._COMMAND_TABLE) == set(STAGES)
        helps = {action.dest: action.help for action in subparsers._choices_actions}
        for command, row in cli._COMMAND_TABLE.items():
            assert row.run is getattr(cli, f"cmd_{command}"), command
            assert helps[command] == row.help, command
            actions = subparsers.choices[command]._option_string_actions
            for flag, key, _ in row.flags:
                assert actions[f"--{flag}"].help == f"sets {key}", (command, flag)

    def test_every_path_setting_a_command_reads_is_one_of_its_table_inputs(self, table_chain):
        _, read = table_chain
        assert set().union(*read.values()) == PATH_SETTINGS
        for command, row in cli._COMMAND_TABLE.items():
            assert read[command] == {key for _, key, source in row.flags if source is not None}, command


def test_protocol_script_from_files_writes_what_its_synthetic_mode_writes(tmp_path):
    script = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "run_full_protocol.py"))
    shape = ["--dimension", "4", "--epochs", "1", *TINY]
    assert script["main"](["--out", str(tmp_path / "synthetic"), *shape]) == 0
    synth = tmp_path / "synthetic" / "synth"
    inputs = [f"--{kind}={synth / f'{kind}.tsv'}" for kind in ("triplets", "pos", "vectors")]
    assert script["main"](["--out", str(tmp_path / "files"), *inputs, *shape]) == 0
    artifacts = {}
    for mode in ("synthetic", "files"):
        out = tmp_path / mode
        artifacts[mode] = {
            str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "config.resolved" and f.parent != synth
        }
    assert {name.split("/")[0] for name in artifacts["files"]} == {
        "prepared", "trained", "predictions", "report", "analysis"
    }
    assert artifacts["files"] == artifacts["synthetic"]
