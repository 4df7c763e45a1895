from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import run_chain
from semepred import ConfigError, FusionConfig, Pos, Split, SrConfig, SynthConfig, TrainConfig
from semepred.cli import main
from semepred.config import (
    CHOICES,
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
from semepred.graph import format_stats, load_triplets, save_pos_tags, save_triplets


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

    def test_readme_lists_every_setting_with_its_default(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                rows[cells[0].strip("`")] = cells[1]
        for key, (_, default) in SCHEMA.items():
            assert key in rows, key
            assert rows[key] == format_value(key, default), key

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

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"run\.conf:2: not valid UTF-8"):
            load_config_file(path)


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
            ["train.margin=nan"],
            ["prepare.ratios=nan,0.1,0.1"],
            ["fusion.threshold=inf"],
            ["train.learning_rate=-inf"],
        ],
    )
    def test_validation_failures(self, sets):
        with pytest.raises(ConfigError):
            resolve(sets=sets)

    @pytest.mark.parametrize(
        ("key", "message"),
        [
            ("predict.model", "predict.model must be fused, similarity, or translation, got 'neural'"),
            ("predict.split", "predict.split must be train, valid, or test, got 'neural'"),
            ("eval.split", "eval.split must be train, valid, or test, got 'neural'"),
            ("analyze.split", "analyze.split must be train, valid, or test, got 'neural'"),
            ("eval.f1_mode", "eval.f1_mode must be macro or micro, got 'neural'"),
        ],
    )
    def test_closed_settings_name_their_values(self, key, message):
        with pytest.raises(ConfigError) as excinfo:
            resolve(sets=[f"{key}=neural"])
        assert str(excinfo.value) == message

    def test_closed_settings_default_to_an_allowed_value(self):
        assert list(CHOICES) == ["predict.model", "predict.split", "eval.split", "analyze.split", "eval.f1_mode"]
        for key, allowed in CHOICES.items():
            assert SCHEMA[key][1] in allowed, key

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

    @pytest.mark.parametrize(
        ("adapter", "cls"),
        [(train_config, TrainConfig), (sr_config, SrConfig), (fusion_config, FusionConfig), (synth_config, SynthConfig)],
    )
    def test_stock_settings_build_the_stock_config(self, adapter, cls):
        assert adapter(resolve()) == cls()

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

    def test_directory_config_file_returns_one(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"config error: config file {tmp_path} is not a regular file" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    def test_out_that_is_not_a_directory_returns_one(self, tmp_path, capsys, below):
        out = tmp_path / "afile"
        out.write_text("", encoding="utf-8")
        if below:
            out = out / "sub"
        code = main(["synth", "--out", str(out)])
        assert code == 1
        assert f"config error: out points to {out}, which is not a directory" in capsys.readouterr().err

    def test_echo_that_cannot_be_removed_returns_one(self, tmp_path, capsys):
        echo = tmp_path / "out" / "config.resolved"
        echo.mkdir(parents=True)
        code = main(["synth", "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"config error: cannot prepare {echo.parent}: Is a directory: {echo}\n" in capsys.readouterr().err
        assert echo.is_dir()

    def test_bad_env_override_returns_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMEPRED_TYPO", "1")
        code = main(["synth", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_non_finite_env_setting_returns_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMEPRED_TRAIN__MARGIN", "nan")
        code = main(["synth", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "train.margin must be finite" in capsys.readouterr().err

    def test_runtime_error_returns_two(self, tmp_path, capsys):
        synth_out = tmp_path / "synth"
        assert main(["synth", "--out", str(synth_out), "--set", "synth.n_synsets=8",
                     "--set", "synth.n_sememes=6", "--set", "synth.antonym_pairs=1",
                     "--set", "synth.hypernym_edges=1", "--set", "synth.vector_dim=6"]) == 0
        # Predicting with neither embeddings nor vectors is a model error.
        code = main([
            "predict",
            "--data", str(synth_out / "triplets.tsv"),
            "--split", "train",
            "--out", str(tmp_path / "pred"),
        ])
        assert code == 2
        assert "no model inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_repeated_prediction_names_the_dump_line(self, tmp_path, capsys, command):
        data, dump = tmp_path / "data.tsv", tmp_path / "predictions.tsv"
        data.write_text("syn:a\thave_sememe\tsem:p\ttest\n")
        dump.write_text("syn:a\tsem:p:1\tsem:p\nsyn:a\tsem:p:1\tsem:p\n")
        code = main([
            command, "--data", str(data), "--predictions", str(dump),
            "--split", "test", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "predictions.tsv:2: duplicate prediction for syn:a, first on line 1" in capsys.readouterr().err

    def test_analyze_config_error_writes_no_artifact(self, tmp_path, capsys):
        data, dump, out = tmp_path / "data.tsv", tmp_path / "predictions.tsv", tmp_path / "out"
        data.write_text("syn:a\thave_sememe\tsem:p\ttest\n")
        dump.write_text("syn:a\tsem:p:1\tsem:p\n")
        code = main([
            "analyze", "--data", str(data), "--predictions", str(dump),
            "--split", "test", "--out", str(out), "--set", "analyze.top_k=0",
        ])
        assert code == 1
        assert "config error: top_k must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_two_zero_loss_weights_return_one(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        data.write_text("syn:a\thave_sememe\tsem:p\ttrain\n", encoding="utf-8")
        code = main([
            "train", "--data", str(data), "--out", str(tmp_path / "out"),
            "--set", "train.dimension=4", "--set", "train.epochs=2",
            "--set", "train.ranking_weight=0", "--set", "train.equivalence_weight=0",
        ])
        assert code == 1
        assert "config error: at least one loss weight must be positive" in capsys.readouterr().err

    def test_negative_neighbor_cap_names_the_setting(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        data.write_text("syn:a\thave_sememe\tsem:p\ttest\n", encoding="utf-8")
        code = main([
            "predict", "--model", "similarity", "--data", str(data), "--out", str(tmp_path / "out"),
            "--set", "sr.neighbor_cap=-1",
        ])
        assert code == 1
        assert "config error: sr.neighbor_cap must be >= 0 (0 = no cap), got -1\n" in capsys.readouterr().err

    def test_non_utf8_data_file_returns_two(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"syn:a\trelated\tsyn:b\nsyn:c\trel\xffated\tsyn:d\n")
        code = main(["prepare", "--triplets", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {path}:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sem:s0,00", "sem:a b", "sem:a\x07b"])
    def test_id_outside_the_grammar_names_the_line(self, tmp_path, capsys, name):
        # A "," would split the sememe in two in the prediction dump.
        path = tmp_path / "triplets.tsv"
        path.write_text(f"syn:a\thave_sememe\tsem:p\nsyn:b\thave_sememe\t{name}\n", encoding="utf-8")
        code = main(["prepare", "--triplets", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {path}:2: node id {name!r} holds a comma" in capsys.readouterr().err

    def test_non_utf8_config_file_returns_one(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"config error: {path}:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "key"), [("--data", "data.triplets"), ("--pos", "data.pos"), ("--vectors", "data.vectors")]
    )
    def test_directory_path_returns_one_naming_the_setting(self, tmp_path, capsys, flag, key):
        data = tmp_path / "data.tsv"
        data.write_text("syn:a\thave_sememe\tsem:p\ttest\n", encoding="utf-8")
        # The last of a repeated flag wins, so --data can name the directory too.
        # eval is the one scoring command that reads data.pos.
        command = ["eval"] if flag == "--pos" else ["predict", "--model", "similarity"]
        code = main([*command, "--data", str(data), "--out", str(tmp_path / "out"), flag, str(tmp_path)])
        assert code == 1
        assert f"config error: {key} points to {tmp_path}, which is not a regular file" in capsys.readouterr().err

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
        dirs = {stage: tmp_path / stage for stage in ("synth", "prepare", "train", "predict", "eval", "analyze")}
        synth, prep, trained, pred, evaled, analyzed = dirs.values()

        assert main(_synth_args(synth)) == 0
        run_chain(
            dirs, list(dirs)[1:],
            train=["--set", "train.dimension=8", "--set", "train.epochs=5", "--set", "train.batch_size=64"],
            analyze=["--set", "analyze.top_k=3"],
        )

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
        dirs = {"synth": tmp_path / "synth", "prepare": tmp_path / "prep"}
        synth, prep = dirs.values()
        assert main(_synth_args(synth, n_synsets=12)) == 0
        run_chain(dirs, ["prepare"], prepare=["--set", "prepare.ratios=1,0,0"])
        store = load_triplets(prep / "dataset.tsv", prep / "pos.tsv")
        assert len(store.triplets_in(Split.TRAIN)) == len(store)
        assert store.triplets_in(Split.VALID) == ()
        assert store.triplets_in(Split.TEST) == ()


# Two filter rounds and more at min_node_degree=2, min_relation_count=2:
# round 1 drops syn:n5, sem:d and the POS-only syn:n9 by degree and
# hypernym/part by count, which leaves syn:n4 with one triplet; round 2
# drops syn:n4, which leaves `also` with one triplet; round 3 drops it.
_MIXED_POS_TRIPLETS = """\
syn:n1\thave_sememe\tsem:a
syn:n1\thave_sememe\tsem:b
syn:n2\thave_sememe\tsem:a
syn:n2\thave_sememe\tsem:b
syn:n3\thave_sememe\tsem:a
syn:n3\thave_sememe\tsem:c
syn:v1\thave_sememe\tsem:b
syn:v1\thave_sememe\tsem:c
syn:j1\thave_sememe\tsem:a
syn:j1\thave_sememe\tsem:c
syn:n1\tantonym\tsyn:n2
syn:n2\tantonym\tsyn:n1
syn:n1\talso\tsyn:n2
syn:n5\thypernym\tsyn:n4
syn:n4\thave_sememe\tsem:d
syn:n4\talso\tsyn:n3
sem:a\tpart\tsem:b
"""
_MIXED_POS_TAGS = """\
syn:n1\tnoun
syn:n2\tnoun
syn:n3\tnoun
syn:n4\tnoun
syn:n5\tnoun
syn:n9\tnoun
syn:v1\tverb
syn:j1\tadj
sem:a\tunknown
"""


class TestPrepareFilters:
    def _raw(self, tmp_path):
        triplets, pos = tmp_path / "raw.tsv", tmp_path / "raw_pos.tsv"
        triplets.write_text(_MIXED_POS_TRIPLETS)
        pos.write_text(_MIXED_POS_TAGS)
        return triplets, pos

    def test_cli_filters_match_the_in_process_steps(self, tmp_path):
        triplets, pos = self._raw(tmp_path)
        out = tmp_path / "prep"
        assert main([
            "prepare", "--triplets", str(triplets), "--pos", str(pos), "--out", str(out),
            "--seed", "3",
            "--set", "prepare.min_node_degree=2",
            "--set", "prepare.min_relation_count=2",
            "--set", "prepare.keep_pos=noun,verb",
            "--set", "prepare.ratios=0.5,0.25,0.25",
        ]) == 0

        store = load_triplets(triplets, pos).filter_low_frequency(2, 2)
        store = store.split_dataset((0.5, 0.25, 0.25), 3).filter_by_pos([Pos.NOUN, Pos.VERB])
        ref = tmp_path / "ref"
        ref.mkdir()
        save_triplets(store, ref / "dataset.tsv", include_split=True)
        save_pos_tags(store.pos_tags(), ref / "pos.tsv")
        (ref / "summary.txt").write_text(format_stats(store.stats()))
        for name in ("dataset.tsv", "pos.tsv", "summary.txt"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

        names = {n.name for n in store.nodes}
        assert names == {"syn:n1", "syn:n2", "syn:n3", "syn:v1", "sem:a", "sem:b", "sem:c"}
        assert {r.name for r in store.relations} == {"have_sememe", "antonym"}
        assert (out / "pos.tsv").read_text().splitlines() == [
            "sem:a\tunknown", "syn:n1\tnoun", "syn:n2\tnoun", "syn:n3\tnoun", "syn:v1\tverb",
        ]
        assert (out / "summary.txt").read_text().splitlines()[-3:] == [
            "split[train]\t6", "split[valid]\t2", "split[test]\t2",
        ]

    def test_unknown_keep_pos_tag_exits_one_naming_the_setting(self, tmp_path, capsys):
        triplets, pos = self._raw(tmp_path)
        code = main([
            "prepare", "--triplets", str(triplets), "--pos", str(pos),
            "--out", str(tmp_path / "prep"), "--set", "prepare.keep_pos=noun,bogus",
        ])
        assert code == 1
        assert "prepare.keep_pos" in capsys.readouterr().err
