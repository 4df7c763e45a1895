"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from semepred import EmbeddingTable, NodeId, RelationId
from semepred.cli import chain_argv, main
from semepred.graph import EQUIVALENCE_RELATION

# An empty (0, 3) batch of triplet rows: no hinge pairs.
NO_PAIRS = np.empty((0, 3), dtype=np.intp)


def build_table(
    dimension: int,
    node_vecs: Mapping[NodeId, Sequence[float]],
    rel_vecs: Mapping[RelationId, Sequence[float]],
    include_equivalence: bool = True,
) -> EmbeddingTable:
    """Hand-built embedding table; adds a zero equivalence vector unless
    the caller supplies one."""
    rels = dict(rel_vecs)
    if include_equivalence and EQUIVALENCE_RELATION not in rels:
        rels[EQUIVALENCE_RELATION] = [0.0] * dimension
    node_ids = tuple(sorted(node_vecs, key=lambda n: n.name))
    relation_ids = tuple(sorted(rels, key=lambda r: r.sort_key))
    return EmbeddingTable(
        dimension=dimension,
        node_ids=node_ids,
        relation_ids=relation_ids,
        node_matrix=np.array([node_vecs[n] for n in node_ids], dtype=np.float64).reshape(
            len(node_ids), dimension
        ),
        relation_matrix=np.array([rels[r] for r in relation_ids], dtype=np.float64).reshape(
            len(relation_ids), dimension
        ),
    )


def finite_difference(loss_fn, matrix: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``loss_fn()`` with respect to each entry of
    ``matrix``, which is perturbed in place and restored."""
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


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)))


def run_chain(
    dirs: Mapping[str, Path],
    commands: Iterable[str],
    files: Mapping[str, Path] | None = None,
    common: Sequence[str] = (),
    **extra: Sequence[str],
) -> None:
    """Run ``commands`` of the synth -> analyze chain in ``dirs`` on the test
    split, each with ``common`` and its own ``extra`` arguments."""
    for command in commands:
        argv = [*chain_argv(command, dirs, files, split="test"), *common, *extra.get(command, ())]
        assert main(argv) == 0, argv
