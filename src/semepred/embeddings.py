"""Embedding tables for graph nodes and relations, with snapshot IO.

The on-disk format is a TSV with a ``D=<dim>`` header line followed by
``id<TAB>v1 v2 ... vD`` rows.  Floats are written with ``%.17g`` so a
save/load round trip reproduces the array bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

import numpy as np

from .atomic import atomic_open
from .errors import ParseError, UnknownIdError, ValidationError, numbered_lines
from .graph import (
    EQUIVALENCE_RELATION,
    NodeId,
    RelationId,
    RelationKind,
    Triplet,
    TripletStore,
)

if TYPE_CHECKING:
    from .kge import TrainConfig
    from .ranking import CandidateOrder

K = TypeVar("K")


def write_vector_file(path: str | Path, dimension: int, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    with atomic_open(path) as fh:
        fh.write(f"D={dimension}\n")
        for name, vec in rows:
            if vec.shape != (dimension,):
                raise ValidationError(f"vector for {name!r} has shape {vec.shape}, expected ({dimension},)")
            fh.write(name + "\t" + " ".join(map("%.17g".__mod__, vec.tolist())) + "\n")


def read_vector_file(
    path: str | Path, parse_id: Callable[[str], K]
) -> tuple[int, list[tuple[K, np.ndarray]], list[int]]:
    """Rows of a vector file in file order, ids parsed by ``parse_id``,
    and the line number of each row; ids it rejects with
    :class:`ValidationError`, malformed or non-finite components and
    repeated ids fail naming ``path:line``."""
    with numbered_lines(path) as numbered:
        _, header = next(numbered, (1, ""))
        if not header.startswith("D=") or not header[2:].isdecimal():
            raise ParseError(f"expected a D=<dim> header, got {header!r}")
        dimension = int(header[2:])
        if dimension <= 0:
            raise ParseError(f"dimension must be positive, got {dimension}")
        rows: list[tuple[K, np.ndarray]] = []
        lines: list[int] = []
        seen: set[str] = set()
        for lineno, line in numbered:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected id<TAB>vector, got {len(fields)} fields")
            try:
                vec = np.array(fields[1].split(), dtype=np.float64)
            except ValueError as exc:
                raise ParseError("non-numeric vector component") from exc
            if vec.shape != (dimension,):
                raise ParseError(f"vector has {vec.shape[0]} components, header says {dimension}")
            if not np.all(np.isfinite(vec)):
                raise ParseError("non-finite vector component")
            if fields[0] in seen:
                raise ValidationError(f"duplicate id {fields[0]!r}")
            seen.add(fields[0])
            try:
                rows.append((parse_id(fields[0]), vec))
            except ValidationError as exc:
                raise ParseError(str(exc)) from exc
            lines.append(lineno)
    return dimension, rows, lines


def stack_rows(rows: Sequence[tuple[object, np.ndarray]], dimension: int) -> np.ndarray:
    """The vectors of ``(id, vector)`` rows as one ``(len(rows), dimension)``
    float64 matrix, ``(0, dimension)`` when there are no rows."""
    return np.array([vec for _, vec in rows], dtype=np.float64).reshape(len(rows), dimension)


@dataclass
class EmbeddingTable:
    """Dense embeddings addressed by node and relation ids.

    Nodes are stored sorted by name and relations by (kind, name), so the
    row order is a pure function of the id sets.
    """

    dimension: int
    node_ids: tuple[NodeId, ...]
    relation_ids: tuple[RelationId, ...]
    node_matrix: np.ndarray
    relation_matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.node_matrix.shape != (len(self.node_ids), self.dimension):
            raise ValidationError(
                f"node matrix shape {self.node_matrix.shape} does not match "
                f"{len(self.node_ids)} ids x {self.dimension}"
            )
        if self.relation_matrix.shape != (len(self.relation_ids), self.dimension):
            raise ValidationError(
                f"relation matrix shape {self.relation_matrix.shape} does not match "
                f"{len(self.relation_ids)} ids x {self.dimension}"
            )
        if list(self.node_ids) != sorted(self.node_ids, key=lambda n: n.name):
            raise ValidationError("node ids must be sorted by name")
        if list(self.relation_ids) != sorted(self.relation_ids, key=lambda r: r.sort_key):
            raise ValidationError("relation ids must be sorted by (kind, name)")
        self._node_index = {n: i for i, n in enumerate(self.node_ids)}
        self._relation_index = {r: i for i, r in enumerate(self.relation_ids)}
        # kge.rank_sememes' (candidate order, row indices) for the last
        # candidate set it ranked.
        self._candidate_rows: tuple[CandidateOrder, np.ndarray] | None = None

    def node_index(self, node: NodeId) -> int:
        try:
            return self._node_index[node]
        except KeyError as exc:
            raise UnknownIdError(f"no embedding for node {node}") from exc

    def relation_index(self, relation: RelationId) -> int:
        try:
            return self._relation_index[relation]
        except KeyError as exc:
            raise UnknownIdError(f"no embedding for relation {relation}") from exc

    def node_vector(self, node: NodeId) -> np.ndarray:
        return self.node_matrix[self.node_index(node)]

    def relation_vector(self, relation: RelationId) -> np.ndarray:
        return self.relation_matrix[self.relation_index(relation)]

    def triplet_rows(self, triplets: Iterable[Triplet]) -> np.ndarray:
        """``(n, 3)`` array of (head, relation, tail) rows, the form the
        trainer works in."""
        rows = [
            (self.node_index(t.head), self.relation_index(t.relation), self.node_index(t.tail))
            for t in triplets
        ]
        return np.array(rows, dtype=np.intp).reshape(len(rows), 3)

    def have_sememe_relation(self) -> RelationId:
        for r in self.relation_ids:
            if r.kind is RelationKind.HAVE_SEMEME:
                return r
        raise UnknownIdError("table has no synset-sememe relation")

    def save(self, path: str | Path) -> None:
        names = [n.name for n in self.node_ids] + [r.serialized for r in self.relation_ids]
        write_vector_file(path, self.dimension, zip(names, chain(self.node_matrix, self.relation_matrix)))

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        dimension, rows, _ = read_vector_file(path, _parse_table_id)
        nodes = sorted((r for r in rows if isinstance(r[0], NodeId)), key=lambda r: r[0].name)
        relations = sorted((r for r in rows if isinstance(r[0], RelationId)), key=lambda r: r[0].sort_key)
        return cls(
            dimension=dimension,
            node_ids=tuple(n for n, _ in nodes),
            relation_ids=tuple(r for r, _ in relations),
            node_matrix=stack_rows(nodes, dimension),
            relation_matrix=stack_rows(relations, dimension),
        )


def _parse_table_id(text: str) -> NodeId | RelationId:
    return RelationId.parse(text) if text.startswith("rel:") else NodeId.parse(text)


def normalize_rows(rows: np.ndarray) -> None:
    """Divide each row of ``rows`` by its norm, in place; a zero row stays as it is."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rows /= norms


def init_embeddings(store: TripletStore, config: "TrainConfig") -> EmbeddingTable:
    """Draw initial embeddings uniformly from +-6/sqrt(D).

    The learned equivalence relation gets a row alongside the file
    relations.  With ``normalize_entities`` node rows start at unit length,
    which the trainer then maintains for every touched row.
    """
    dim = config.dimension
    bound = 6.0 / np.sqrt(dim)
    rng = np.random.default_rng(config.seed)
    node_ids = store.nodes
    relation_ids = tuple(
        sorted(set(store.relations) | {EQUIVALENCE_RELATION}, key=lambda r: r.sort_key)
    )
    node_matrix = rng.uniform(-bound, bound, size=(len(node_ids), dim))
    relation_matrix = rng.uniform(-bound, bound, size=(len(relation_ids), dim))
    if config.normalize_entities:
        normalize_rows(node_matrix)
    return EmbeddingTable(
        dimension=dim,
        node_ids=node_ids,
        relation_ids=relation_ids,
        node_matrix=node_matrix,
        relation_matrix=relation_matrix,
    )
