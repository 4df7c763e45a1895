from __future__ import annotations

import json
import os

import pytest

from semepred import ConfigError, Split
from semepred.cli import main
from semepred.config import (
    SCHEMA,
    bucket_specs,
    env_name,
    format_value,
    fusion_config,
    load_config_file,
    parse_value,
    resolve,
    sr_config,
    synth_config,
    train_config,
)
from semepred.evaluation import BucketQuantity
from semepred.graph import load_triplets


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # The CLI reads os.environ; stray overrides would leak into every run.
    for name in list(os.environ):
        if name.startswith("SEMEPRED_"):
            monkeypatch.delenv(name)


class TestParsing:
    @pytest.mark.parametrize(
        "key,text,expected",
        [
            ("seed", "42", 42),
            ("train.margin", "2.5", 2.5),
            ("train.normalize_entities", "false", False),
            ("train.normalize_entities", "true", True),
            ("predict.model", "fused", "fused"),
            ("analyze.top_k", " 3 ", 3),
            ("analyze.synset_degree_buckets", "0,5,10", (0, 5, 10)),
            ("prepare.ratios", "0.8, 0.1, 0.1", (0.8, 0.1, 0.1)),
        ],
    )
    def test_parse_value(self, key, text, expected):
        assert parse_value(key, text) == expected

    @pytest.mark.parametrize(
        "key,text",
        [
            ("seed", "four"),
            ("train.margin", "big"),
            ("train.normalize_entities", "yes"),
            ("analyze.synset_degree_buckets", "0,five"),
        ],
    )
    def test_bad_values_rejected(self, key, text):
        with pytest.raises(ConfigError):
            parse_value(key, text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown setting"):
            parse_value("train.optimizer", "adam")

    def test_every_default_round_trips_through_format_and_parse(self):
        for key, (_, default) in SCHEMA.items():
            assert parse_value(key, format_value(key, default)) == default

    def test_env_names(self):
        assert env_name("seed") == "SEMEPRED_SEED"
        assert env_name("train.learning_rate") == "SEMEPRED_TRAIN__LEARNING_RATE"


class TestConfigFile:
    def test_comments_blanks_and_duplicates(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# a comment\n\nseed = 1\ntrain.margin = 2.0\nseed = 9\n")
        assert load_config_file(path) == {"seed": "9", "train.margin": "2.0"}

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nnope = 2\n")
        with pytest.raises(ConfigError, match="run.conf:2"):
            load_config_file(path)

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "absent.conf")


class TestResolve:
    def test_defaults(self):
        settings = resolve()
        assert settings["seed"] == 0
        assert settings["train.dimension"] == 800
        assert settings["fusion.threshold"] == 0.32

    def test_precedence_chain(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\ntrain.margin = 1.0\nsr.decay = 0.5\ntrain.epochs = 3\n")
        settings = resolve(
            config_path=path,
            sets=["sr.decay=0.7", "seed=3"],
            environ={"SEMEPRED_SEED": "2", "SEMEPRED_TRAIN__MARGIN": "2.0"},
            flag_overrides={"seed": "4"},
        )
        assert settings["train.epochs"] == 3  # file beats default
        assert settings["train.margin"] == 2.0  # env beats file
        assert settings["sr.decay"] == 0.7  # --set beats env
        assert settings["seed"] == 4  # flag beats --set

    def test_unrecognized_env_var_is_an_error(self):
        with pytest.raises(ConfigError, match="SEMEPRED_TRAIN__OPTIMIZER"):
            resolve(environ={"SEMEPRED_TRAIN__OPTIMIZER": "adam"})

    def test_unprefixed_env_vars_are_ignored(self):
        settings = resolve(environ={"PATH": "/bin", "SEMEPREDX": "1"})
        assert settings["seed"] == 0

    def test_malformed_set_pair(self):
        with pytest.raises(ConfigError, match="--set expects"):
            resolve(sets=["seed:1"])

    @pytest.mark.parametrize(
        "sets",
        [
            ["predict.model=neural"],
            ["eval.split=holdout"],
            ["eval.f1_mode=pooled"],
        ],
    )
    def test_validation_failures(self, sets):
        with pytest.raises(ConfigError):
            resolve(sets=sets)

    def test_render_reproduces_the_run(self, tmp_path):
        settings = resolve(sets=["train.margin=2.5", "seed=11", "prepare.ratios=0.7,0.2,0.1"])
        echo = settings.write_echo(tmp_path)
        assert echo.name == "config.resolved"
        again = resolve(config_path=echo)
        assert again.values == settings.values

    def test_render_is_sorted_and_complete(self):
        lines = resolve().render().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(SCHEMA)


class TestAdapters:
    def test_train_config_uses_the_global_seed(self):
        settings = resolve(sets=["seed=9", "train.dimension=16", "train.negatives=3"])
        config = train_config(settings)
        assert config.seed == 9
        assert config.dimension == 16
        assert config.negatives_per_positive == 3

    def test_sr_cap_zero_means_unbounded(self):
        assert sr_config(resolve(sets=["sr.neighbor_cap=0"])).neighbor_cap is None
        assert sr_config(resolve()).neighbor_cap == 100

    def test_fusion_adapter(self):
        config = fusion_config(resolve(sets=["fusion.threshold=0.5"]))
        assert config.similarity_weight == 0.45
        assert config.threshold == 0.5

    def test_synth_adapter(self):
        config = synth_config(resolve(sets=["seed=5", "synth.n_synsets=10"]))
        assert config.seed == 5
        assert config.n_synsets == 10

    def test_bucket_specs_cover_all_three_quantities(self):
        specs = bucket_specs(resolve())
        assert set(specs) == set(BucketQuantity)
        assert specs[BucketQuantity.SYNSET_DEGREE].boundaries[0] == 0
        assert len(specs[BucketQuantity.SEMEME_DEGREE]) == 7


class TestExitCodes:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_config_error_returns_one(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_returns_one(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "absent.conf")])
        assert code == 1

    def test_bad_env_override_returns_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMEPRED_TYPO", "1")
        code = main(["synth", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_runtime_error_returns_two(self, tmp_path, capsys):
        synth_out = tmp_path / "synth"
        assert main(["synth", "--out", str(synth_out), "--set", "synth.n_synsets=8",
                     "--set", "synth.n_sememes=6", "--set", "synth.antonym_pairs=1",
                     "--set", "synth.hypernym_edges=1", "--set", "synth.vector_dim=6"]) == 0
        # Predicting with neither embeddings nor vectors is a model error.
        code = main([
            "predict",
            "--data", str(synth_out / "triplets.tsv"),
            "--pos", str(synth_out / "pos.tsv"),
            "--split", "train",
            "--out", str(tmp_path / "pred"),
        ])
        assert code == 2
        assert "no model inputs" in capsys.readouterr().err

    def test_success_returns_zero(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "out"),
                     "--set", "synth.n_synsets=4", "--set", "synth.n_sememes=6",
                     "--set", "synth.antonym_pairs=1", "--set", "synth.hypernym_edges=1",
                     "--set", "synth.vector_dim=6"]) == 0


class TestGlobalFlagPlacement:
    def test_set_works_before_and_after_the_command(self, tmp_path):
        before = tmp_path / "before"
        after = tmp_path / "after"
        base = ["--set", "synth.n_synsets=3", "--set", "synth.n_sememes=4",
                "--set", "synth.antonym_pairs=1", "--set", "synth.hypernym_edges=0",
                "--set", "synth.vector_dim=4"]
        assert main(base + ["synth", "--out", str(before)]) == 0
        assert main(["synth", "--out", str(after)] + base) == 0
        assert (before / "triplets.tsv").read_text() == (after / "triplets.tsv").read_text()

    def test_seed_flag_lands_in_the_echo(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--seed", "77", "--out", str(out),
                     "--set", "synth.n_synsets=3", "--set", "synth.n_sememes=4",
                     "--set", "synth.antonym_pairs=1", "--set", "synth.hypernym_edges=0",
                     "--set", "synth.vector_dim=4"]) == 0
        assert "seed = 77" in (out / "config.resolved").read_text().splitlines()


def _synth_args(out, n_synsets=30):
    return [
        "synth", "--out", str(out),
        "--set", f"synth.n_synsets={n_synsets}",
        "--set", "synth.n_sememes=10",
        "--set", "synth.antonym_pairs=2",
        "--set", "synth.hypernym_edges=2",
        "--set", "synth.vector_dim=10",
        "--set", "synth.noise=0.02",
    ]


class TestPipelineSmoke:
    def test_full_chain_produces_all_artifacts(self, tmp_path):
        synth = tmp_path / "synth"
        prep = tmp_path / "prep"
        trained = tmp_path / "train"
        pred = tmp_path / "pred"
        evaled = tmp_path / "eval"
        analyzed = tmp_path / "analyze"

        assert main(_synth_args(synth)) == 0
        assert main([
            "prepare", "--triplets", str(synth / "triplets.tsv"),
            "--pos", str(synth / "pos.tsv"), "--out", str(prep),
        ]) == 0
        assert main([
            "train", "--data", str(prep / "dataset.tsv"), "--out", str(trained),
            "--set", "train.dimension=8", "--set", "train.epochs=5",
            "--set", "train.batch_size=64",
        ]) == 0
        assert main([
            "predict", "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
            "--embeddings", str(trained / "embeddings.tsv"),
            "--vectors", str(synth / "vectors.tsv"),
            "--split", "test", "--out", str(pred),
        ]) == 0
        assert main([
            "eval", "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
            "--predictions", str(pred / "predictions.tsv"),
            "--split", "test", "--out", str(evaled),
        ]) == 0
        assert main([
            "analyze", "--data", str(prep / "dataset.tsv"), "--pos", str(prep / "pos.tsv"),
            "--predictions", str(pred / "predictions.tsv"),
            "--split", "test", "--out", str(analyzed),
            "--set", "analyze.top_k=3",
        ]) == 0

        assert (prep / "summary.txt").exists()
        trace_lines = (trained / "loss_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "epoch,l1,l2,total"
        assert len(trace_lines) == 6
        assert (pred / "predictions.tsv").exists()
        records = [json.loads(line) for line in (evaled / "report.jsonl").read_text().splitlines()]
        scopes = {r["scope"] for r in records}
        assert {"all", "noun", "uncovered"} <= scopes
        for name in ("synset_degree.csv", "sememe_count.csv", "sememe_degree.csv"):
            assert (analyzed / name).read_text().startswith("bucket,low,high,n,map,f1")
        assert (analyzed / "difficulty.tsv").read_text().startswith("group\tsememe\tn\tmap\tf1")
        # Every stage echoed its resolved settings.
        for out in (synth, prep, trained, pred, evaled, analyzed):
            assert (out / "config.resolved").exists()

    def test_all_train_ratio_keeps_every_triplet_in_train(self, tmp_path):
        synth = tmp_path / "synth"
        prep = tmp_path / "prep"
        assert main(_synth_args(synth, n_synsets=12)) == 0
        assert main([
            "prepare", "--triplets", str(synth / "triplets.tsv"),
            "--pos", str(synth / "pos.tsv"), "--out", str(prep),
            "--set", "prepare.ratios=1,0,0",
        ]) == 0
        store = load_triplets(prep / "dataset.tsv", prep / "pos.tsv")
        assert len(store.triplets_in(Split.TRAIN)) == len(store)
        assert store.triplets_in(Split.VALID) == ()
        assert store.triplets_in(Split.TEST) == ()
