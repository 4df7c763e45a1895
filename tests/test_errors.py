"""The input-reader contract: every reader goes through ``numbered_lines``,
so every error it raises names ``path:line`` (or ``path`` for a store
check that fails after the read)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    ConfigError,
    EmbeddingTable,
    ParseError,
    SemanticVectorStore,
    SemepredError,
    ValidationError,
    load_triplets,
)
from semepred.cli import main
from semepred.config import load_config_file
from semepred.errors import numbered_lines
from semepred.fusion import load_predictions
from semepred.graph import load_pos_tags
from semepred.kge import EpochLoss, load_loss_trace


class TestNumberedLines:
    @pytest.mark.parametrize("kind", [ValidationError, ConfigError, ParseError])
    def test_error_in_the_block_keeps_its_type_and_gains_the_line_read_last(self, tmp_path, kind):
        path = tmp_path / "in.txt"
        path.write_text("a\n\nb\n\n", encoding="utf-8")
        with pytest.raises(kind) as info:
            with numbered_lines(path) as lines:
                for _, line in lines:
                    if line == "b":
                        raise kind("boom")
        assert type(info.value) is kind
        assert str(info.value) == f"{path}:3: boom"
        assert str(info.value.__cause__) == "boom"

    def test_blank_lines_are_skipped_but_keep_their_numbers(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\n\n  \t\nb\r\n\tc \n\n")
        with numbered_lines(path) as lines:
            assert list(lines) == [(1, "a"), (4, "b"), (5, "\tc ")]

    def test_error_before_any_line_is_read_names_line_1(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:1: empty$"):
            with numbered_lines(path):
                raise ParseError("empty")

    def test_decode_error_raises_the_given_class_naming_the_first_bad_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\n\nb\xff\nc\xfe\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: not valid UTF-8$"):
            with numbered_lines(path, ConfigError) as lines:
                list(lines)

    def test_other_exceptions_pass_unchanged(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("a\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^plain$"):
            with numbered_lines(path) as lines:
                next(lines)
                raise ValueError("plain")


class TestHeaders:
    """A header is the first non-blank line of its file."""

    def test_vector_file_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("\n\nD=2\nsyn:a\t1 0\n", encoding="utf-8")
        assert [n.name for n in SemanticVectorStore.load(path).synsets()] == ["syn:a"]

    def test_embedding_file_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text(" \nD=1\nsyn:a\t0.5\nrel:have:have_sememe\t1\n", encoding="utf-8")
        table = EmbeddingTable.load(path)
        assert (table.dimension, len(table.node_ids), len(table.relation_ids)) == (1, 1, 1)

    def test_loss_trace_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("\nepoch,l1,l2,total\n1,0.5,0.25,0.75\n", encoding="utf-8")
        assert load_loss_trace(path) == (EpochLoss(1, 0.5, 0.25, 0.75),)

    def test_bad_header_after_blank_lines_names_its_own_line(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("\n\nD=x\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"vectors\.tsv:3: expected a D=<dim> header, got 'D=x'$"):
            SemanticVectorStore.load(path)

    @pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank"])
    def test_file_without_a_header_names_line_1(self, tmp_path, content):
        path = tmp_path / "vectors.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=r"vectors\.tsv:1: expected a D=<dim> header, got ''$"):
            SemanticVectorStore.load(path)


class TestLossTraceIsPlainCommaSeparated:
    def test_quoted_field_is_non_numeric(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text('epoch,l1,l2,total\n"1",0.5,0.25,0.75\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r"trace\.csv:2: non-numeric field$"):
            load_loss_trace(path)

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("epoch,l1,l2,total\n1,0.5,0.25,0.75\n  \n2,0.25,0.125,0.375\n", encoding="utf-8")
        assert load_loss_trace(path) == (EpochLoss(1, 0.5, 0.25, 0.75), EpochLoss(2, 0.25, 0.125, 0.375))


# Two-line triplet files that parse line by line but fail a store check.
STORE_ERRORS = {
    "non-have-in-test": (
        "syn:a\trelated\tsyn:b\ttest\nsyn:a\thave_sememe\tsem:p\n",
        "non have_sememe triplet syn:a->syn:b assigned to test",
    ),
    "two-have-names": (
        "syn:a\thave\tsem:p\nsyn:b\thave2\tsem:p\n",
        "multiple synset-sememe relation names found: ['have', 'have2']; exactly one is allowed",
    ),
    "synset-in-two-splits": (
        "syn:a\thave_sememe\tsem:p\ttrain\nsyn:a\thave_sememe\tsem:q\ttest\n",
        "synset syn:a has have_sememe triplets in both train and test",
    ),
}


class TestStoreErrorsNameTheFile:
    @pytest.mark.parametrize("case", sorted(STORE_ERRORS))
    def test_load_triplets(self, tmp_path, case):
        content, message = STORE_ERRORS[case]
        path = tmp_path / "t.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path}: {message}')}$"):
            load_triplets(path)

    def test_cli_exits_two_naming_the_file(self, tmp_path, capsys):
        content, message = STORE_ERRORS["non-have-in-test"]
        path = tmp_path / "t.tsv"
        path.write_text(content, encoding="utf-8")
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}: {message}\n" in capsys.readouterr().err


# A small valid file for each reader, and the call that reads it.
VALID_INPUTS = {
    "triplets": (
        "syn:a\thave_sememe\tsem:x\ttrain\n# note\nsyn:b\thave_sememe\tsem:y\ttest\n"
        "syn:a\trelated\tsyn:b\ttrain\nsem:x\tantonym\tsem:y\n",
        load_triplets,
    ),
    "pos": ("syn:a\tnoun\n\nsem:x\tunknown\n", load_pos_tags),
    "vectors": ("D=2\nsyn:a\t1 0\nsyn:b\t0.5 -1\n", SemanticVectorStore.load),
    "embeddings": ("D=2\nsyn:a\t1 0\nsem:x\t0 1\nrel:have:have_sememe\t0.5 0.5\n", EmbeddingTable.load),
    "predictions": ("syn:a\tsem:x:0.5,sem:y:0.25\tsem:x\nsyn:b\tsem:y:1\t\n", load_predictions),
    "loss-trace": ("epoch,l1,l2,total\n1,0.5,0.25,0.75\n2,0.25,0.125,0.375\n", load_loss_trace),
    "settings": ("seed = 3\n# note\ntrain.margin = 2.0\n", load_config_file),
}
AWKWARD_TOKENS = (
    "syn:x", "syn:a", "sem:", "sem:x:1", "rel:have:x", "have", "test", "nan", "1e999",
    "-0", "D=0", ",", "", " ", "\t", "#", "=",
)
# Field separators across the seven formats; re.split keeps them, so the
# fields sit at the even positions.
SEPARATORS = re.compile(r"([\t, =])")


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(VALID_INPUTS)),
    line_pick=st.integers(min_value=0),
    field_pick=st.integers(min_value=0),
    token=st.sampled_from(AWKWARD_TOKENS),
)
def test_every_reader_returns_or_names_its_file(tmp_path_factory, kind, line_pick, field_pick, token):
    content, read = VALID_INPUTS[kind]
    lines = content.splitlines()
    i = line_pick % len(lines)
    parts = SEPARATORS.split(lines[i])
    parts[2 * (field_pick % (len(parts) // 2 + 1))] = token
    lines[i] = "".join(parts)
    path = tmp_path_factory.getbasetemp() / f"reader-property-{kind}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read(path)
    except SemepredError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A small valid chain's input files, keyed by kind."""
    root = tmp_path_factory.mktemp("chain")
    settings = root / "settings.conf"
    settings.write_text("seed = 3\ntrain.dimension = 4\ntrain.epochs = 1\n", encoding="utf-8")
    synth, prep, model, pred = (root / n for n in ("synth", "prep", "model", "pred"))
    assert main([
        "synth", "--config", str(settings), "--out", str(synth), "--set", "synth.n_synsets=12",
        "--set", "synth.n_sememes=6", "--set", "synth.antonym_pairs=1", "--set", "synth.hypernym_edges=1",
        "--set", "synth.vector_dim=3",
    ]) == 0
    files = {"raw": synth / "triplets.tsv", "settings": settings, "vectors": synth / "vectors.tsv",
             "triplets": prep / "dataset.tsv", "pos": prep / "pos.tsv", "embeddings": model / "embeddings.tsv",
             "predictions": pred / "predictions.tsv"}
    assert main(["prepare", "--config", str(settings), "--triplets", str(files["raw"]),
                 "--pos", str(synth / "pos.tsv"), "--out", str(prep)]) == 0
    for command, out in (("train", model), ("predict", pred)):
        assert main(_chain_argv(command, files, out)) == 0
    return files


def _chain_argv(command, files, out):
    inputs = {
        "prepare": ["--triplets", files["raw"], "--pos", files["pos"]],
        "train": ["--data", files["triplets"]],
        "predict": ["--data", files["triplets"], "--embeddings", files["embeddings"],
                    "--vectors", files["vectors"], "--split", "test"],
        "eval": ["--data", files["triplets"], "--pos", files["pos"], "--predictions", files["predictions"],
                 "--split", "test"],
        "analyze": ["--data", files["triplets"], "--predictions", files["predictions"], "--split", "test"],
    }[command]
    return [command, "--config", str(files["settings"]), *map(str, inputs), "--out", str(out)]


# The commands that read each kind of file in the chain.
READERS = {
    "triplets": ("train", "predict", "eval", "analyze"),
    "pos": ("prepare", "eval"),
    "vectors": ("predict",),
    "embeddings": ("predict",),
    "predictions": ("eval", "analyze"),
    "settings": ("prepare", "train"),
}


@settings(max_examples=200, deadline=None)
@given(
    kind_and_command=st.sampled_from([(kind, c) for kind in sorted(READERS) for c in READERS[kind]]),
    line_pick=st.integers(min_value=0),
    field_pick=st.integers(min_value=0),
    token=st.sampled_from(AWKWARD_TOKENS),
)
def test_main_exits_zero_one_or_two_and_never_raises(chain, kind_and_command, line_pick, field_pick, token):
    kind, command = kind_and_command
    lines = chain[kind].read_text(encoding="utf-8").splitlines()
    i = line_pick % len(lines)
    parts = SEPARATORS.split(lines[i])
    parts[2 * (field_pick % (len(parts) // 2 + 1))] = token
    lines[i] = "".join(parts)
    mutated = chain["raw"].parent.parent / f"mutated-{kind}.txt"
    mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = mutated.parent / f"mutated-{command}"
    assert main(_chain_argv(command, {**chain, kind: mutated}, out)) in (0, 1, 2)


# (command, one artifact it writes)
ARTIFACTS = [
    ("synth", "triplets.tsv"),
    ("train", "loss_trace.csv"),
    ("predict", "predictions.tsv"),
    ("eval", "report.txt"),
    ("analyze", "difficulty.tsv"),
]


@pytest.mark.parametrize("command,artifact", ARTIFACTS, ids=[c for c, _ in ARTIFACTS])
def test_artifact_path_that_is_a_directory_returns_one_naming_it(chain, tmp_path, capsys, command, artifact):
    out = tmp_path / "out"
    blocker = out / artifact
    (blocker / "inside").mkdir(parents=True)
    if command == "synth":
        argv = ["synth", "--config", str(chain["settings"]), "--out", str(out), "--set", "synth.n_synsets=12",
                "--set", "synth.n_sememes=6", "--set", "synth.antonym_pairs=1", "--set", "synth.hypernym_edges=1"]
    else:
        argv = _chain_argv(command, chain, out)
    assert main(argv) == 1
    assert f"config error: cannot write {blocker}: Is a directory\n" in capsys.readouterr().err
    assert (blocker / "inside").is_dir()
    # No temp file is left behind, and no echo marks the stage finished.
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
    assert not (out / "config.resolved").exists()
