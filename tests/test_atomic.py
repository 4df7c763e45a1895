"""Artifact writers replace their target only once the whole file is written."""

from __future__ import annotations

import numpy as np
import pytest

from semepred.atomic import atomic_open
from semepred.embeddings import write_vector_file
from semepred.errors import ValidationError
from semepred.kge import EpochLoss, save_loss_trace


class Interrupted(Exception):
    pass


def _vector_rows():
    yield "syn:a", np.zeros(2)
    raise Interrupted


def _trace_rows():
    yield EpochLoss(1, 1.0, 2.0, 3.0)
    raise Interrupted


WRITERS = {
    "vector-file": lambda path: write_vector_file(path, 2, _vector_rows()),
    "loss-trace": lambda path: save_loss_trace(_trace_rows(), path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writer_interrupted_partway_leaves_the_target(write, tmp_path):
    target = tmp_path / "artifact"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(Interrupted):
        write(target)
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_rejected_row_leaves_no_file(tmp_path):
    target = tmp_path / "vectors.tsv"
    rows = [("syn:a", np.zeros(2)), ("syn:b", np.zeros(3))]
    with pytest.raises(ValidationError):
        write_vector_file(target, 2, rows)
    assert list(tmp_path.iterdir()) == []


def test_completed_block_replaces_the_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")
    with atomic_open(target) as fh:
        fh.write("new\n")
        assert target.read_text(encoding="utf-8") == "old\n"
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
