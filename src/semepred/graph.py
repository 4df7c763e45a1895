"""Heterogeneous synset-sememe graph: typed nodes, relations, triplets.

The graph mixes two node kinds (synsets and sememes) and three triplet
kinds: synset-synset, sememe-sememe, and the bridging ``have_sememe``
triplets that attach a synset to each of its annotated sememes.  A
:class:`TripletStore` is immutable after construction and carries an
optional POS tag per node plus a train/valid/test split label per
triplet.
"""

from __future__ import annotations

import enum
import logging
import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .atomic import atomic_open
from .errors import ConfigError, ParseError, UnknownIdError, ValidationError, numbered_lines

logger = logging.getLogger(__name__)

# Relation name reserved for the learned equivalence vector; it must never
# appear in a triplet file.
EQUIVALENCE_RELATION_NAME = "semantic_equivalence"


class _IdentityEnum(enum.Enum):
    """Members are singletons compared by identity; hash them by identity, in C."""

    __hash__ = object.__hash__


class NodeKind(_IdentityEnum):
    SYNSET = "syn"
    SEMEME = "sem"


class RelationKind(_IdentityEnum):
    SYNSET_SYNSET = "syn-syn"
    SEMEME_SEMEME = "sem-sem"
    HAVE_SEMEME = "have"
    EQUIVALENCE = "equiv"


class Pos(_IdentityEnum):
    NOUN = "noun"
    VERB = "verb"
    ADJ = "adj"
    ADV = "adv"
    UNKNOWN = "unknown"


class Split(_IdentityEnum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"


_KIND_OF_PREFIX = {kind.value + ":": kind for kind in NodeKind}
_SPLIT_OF_LABEL = {split.value: split for split in Split}
_POS_OF_TAG = {pos.value: pos for pos in Pos}


class NodeId:
    """A node id: ``syn:`` or ``sem:``, which is its kind, then a non-empty
    name, e.g. ``"syn:bn:00045106n"``; sorting by ``name`` is total and stable.
    The name holds no ``,`` (the prediction dump's separator), no whitespace
    and no non-printable character.

    Ids are interned, one instance per name, so they compare and hash by
    identity, in C.  The table is never pruned: an id keeps its hash, and a
    hash-ordered set its order, for the life of the process."""

    __slots__ = ("name",)
    name: str
    _interned: dict[str, "NodeId"] = {}

    def __new__(cls, name: str) -> "NodeId":
        node = cls._interned.get(name)
        if node is None:
            if name[:4] not in _KIND_OF_PREFIX or len(name) == 4:
                raise ValidationError(f"node id {name!r} lacks a syn:/sem: prefix or a name after it")
            # isprintable() is False for every whitespace character but " ".
            if not name.isprintable() or " " in name or "," in name:
                raise ValidationError(
                    f"node id {name!r} holds a comma, whitespace or a non-printable character"
                )
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            cls._interned[name] = node
        return node

    def __setattr__(self, attr: str, value: object = None) -> None:
        raise AttributeError(f"NodeId is immutable: cannot set or delete {attr!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[str]]:
        return NodeId, (self.name,)

    def __repr__(self) -> str:
        return f"NodeId(name={self.name!r})"

    @property
    def kind(self) -> NodeKind:
        return _KIND_OF_PREFIX[self.name[:4]]

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        return cls(text)

    def __str__(self) -> str:
        return self.name


def synset_id(bare: str) -> NodeId:
    """Build a synset NodeId from an unprefixed name."""
    return NodeId(f"syn:{bare}")


def sememe_id(bare: str) -> NodeId:
    """Build a sememe NodeId from an unprefixed name."""
    return NodeId(f"sem:{bare}")


class RelationId(NamedTuple):
    """A relation identified by (kind, name); the same name may exist for
    several kinds, e.g. ``antonym`` between synsets and between sememes.
    :func:`make_triplet` and :meth:`parse` check it where it enters."""

    kind: RelationKind
    name: str

    @property
    def serialized(self) -> str:
        return f"rel:{self.kind.value}:{self.name}"

    @classmethod
    def parse(cls, text: str) -> "RelationId":
        parts = text.split(":", 2)
        if len(parts) != 3 or parts[0] != "rel":
            raise ValidationError(f"relation id {text!r} is not of the form rel:<kind>:<name>")
        try:
            kind = RelationKind(parts[1])
        except ValueError as exc:
            raise ValidationError(f"unknown relation kind {parts[1]!r} in {text!r}") from exc
        if not parts[2]:
            raise ValidationError("relation name must be non-empty")
        return cls(kind, parts[2])

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.kind.value, self.name)

    def __str__(self) -> str:
        return self.serialized


EQUIVALENCE_RELATION = RelationId(RelationKind.EQUIVALENCE, EQUIVALENCE_RELATION_NAME)


_RELATION_KIND_OF_ENDPOINTS = {
    (NodeKind.SYNSET, NodeKind.SYNSET): RelationKind.SYNSET_SYNSET,
    (NodeKind.SEMEME, NodeKind.SEMEME): RelationKind.SEMEME_SEMEME,
    (NodeKind.SYNSET, NodeKind.SEMEME): RelationKind.HAVE_SEMEME,
}


class Triplet(NamedTuple):
    """A (head, relation, tail) triplet, built and checked by :func:`make_triplet`."""

    head: NodeId
    relation: RelationId
    tail: NodeId

    @property
    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.head.name, self.relation.kind.value, self.relation.name, self.tail.name)


def make_triplet(head: NodeId, relation_name: str, tail: NodeId) -> Triplet:
    """Build a triplet inferring the relation kind from the endpoint kinds."""
    if relation_name == EQUIVALENCE_RELATION_NAME:
        raise ValidationError(
            f"relation name {EQUIVALENCE_RELATION_NAME!r} is reserved for the learned "
            "equivalence vector and cannot appear in data"
        )
    kind = _RELATION_KIND_OF_ENDPOINTS.get((head.kind, tail.kind))
    if kind is None:
        raise ValidationError(
            f"triplet with sememe head {head} and synset tail {tail} is not a legal kind"
        )
    if not relation_name:
        raise ValidationError("relation name must be non-empty")
    return Triplet(head, RelationId(kind, relation_name), tail)


AnnotationMap = Mapping[NodeId, frozenset[NodeId]]


@dataclass(frozen=True)
class StoreStats:
    n_triplets: int
    n_synsets: int
    n_sememes: int
    n_relations_by_kind: dict[RelationKind, int]
    n_triplets_by_kind: dict[RelationKind, int]
    n_by_split: dict[Split, int]


class TripletStore:
    """Immutable, validated container for the synset-sememe graph.

    Construction deduplicates triplets (logging the dropped count),
    enforces the single ``have_sememe`` relation rule, and checks split
    soundness: valid/test may contain only synset-sememe triplets, and
    all such triplets of one synset share one split.
    """

    def __init__(
        self,
        triplets: Iterable[Triplet],
        pos_tags: Mapping[NodeId, Pos] | None = None,
        split: Mapping[Triplet, Split] | None = None,
    ) -> None:
        given = list(triplets)
        split = split or {}
        self._build({t: split.get(t, Split.TRAIN) for t in given}, len(given), pos_tags)

    def _build(self, split: dict[Triplet, Split], n_given: int, pos_tags: Mapping[NodeId, Pos] | None) -> None:
        """Take ``split``, every unique triplet in first-seen order with its
        split, as the store's own table; ``n_given`` counts the triplets
        given, repeats included."""
        # Three tables, each the one source of its fact: triplet -> split in
        # first-seen order, node -> degree in name order (0 for a node known
        # only from ``pos_tags``), relation -> triplet count in sort_key order.
        self._split: dict[Triplet, Split] = split
        dropped = n_given - len(self._split)
        if dropped:
            logger.info("dropped %d duplicate triplets", dropped)
        self._triplets: tuple[Triplet, ...] = tuple(self._split)
        self._pos: dict[NodeId, Pos] = dict(pos_tags or {})

        degree = Counter(map(itemgetter(0), self._triplets))
        degree.update(map(itemgetter(2), self._triplets))
        self._degree: dict[NodeId, int] = {
            n: degree[n] for n in sorted(degree.keys() | self._pos.keys(), key=lambda n: n.name)
        }
        self._nodes: tuple[NodeId, ...] = tuple(self._degree)

        count = Counter(map(itemgetter(1), self._triplets))
        self._relation_count: dict[RelationId, int] = {
            r: count[r] for r in sorted(count, key=lambda r: r.sort_key)
        }
        self._relations: tuple[RelationId, ...] = tuple(self._relation_count)

        have_names = [r.name for r in self._relations if r.kind is RelationKind.HAVE_SEMEME]
        if len(have_names) > 1:
            raise ValidationError(
                f"multiple synset-sememe relation names found: {have_names}; exactly one is allowed"
            )

        self._check_split_soundness()

    def _check_split_soundness(self) -> None:
        synset_split: dict[NodeId, Split] = {}
        for t, s in self._split.items():
            if t.relation.kind is not RelationKind.HAVE_SEMEME:
                if s is not Split.TRAIN:
                    raise ValidationError(
                        f"non have_sememe triplet {t.head}->{t.tail} assigned to {s.value}"
                    )
                continue
            prev = synset_split.setdefault(t.head, s)
            if prev is not s:
                raise ValidationError(
                    f"synset {t.head} has have_sememe triplets in both {prev.value} and {s.value}"
                )

    # -- basic queries -------------------------------------------------

    @property
    def triplets(self) -> tuple[Triplet, ...]:
        return self._triplets

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def relations(self) -> tuple[RelationId, ...]:
        return self._relations

    @property
    def synsets(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self._nodes if n.kind is NodeKind.SYNSET)

    @property
    def sememes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self._nodes if n.kind is NodeKind.SEMEME)

    def __len__(self) -> int:
        return len(self._triplets)

    def __contains__(self, triplet: Triplet) -> bool:
        return triplet in self._split

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripletStore):
            return NotImplemented
        return (
            self._triplets == other._triplets
            and self._split == other._split
            and self._pos == other._pos
        )

    def __repr__(self) -> str:
        return f"TripletStore({len(self._triplets)} triplets, {len(self._nodes)} nodes)"

    def split_of(self, triplet: Triplet) -> Split:
        try:
            return self._split[triplet]
        except KeyError as exc:
            raise UnknownIdError(f"triplet not in store: {triplet}") from exc

    def pos_of(self, node: NodeId) -> Pos:
        if node not in self._degree:
            raise UnknownIdError(f"unknown node {node}")
        return self._pos.get(node, Pos.UNKNOWN)

    def pos_tags(self) -> dict[NodeId, Pos]:
        return dict(self._pos)

    def degree(self, node: NodeId) -> int:
        """Number of triplets in which ``node`` appears as head or tail."""
        if node not in self._degree:
            raise UnknownIdError(f"unknown node {node}")
        return self._degree[node]

    def triplets_in(self, split: Split) -> tuple[Triplet, ...]:
        return tuple(t for t, s in self._split.items() if s is split)

    def annotation_map(self, split: Split) -> dict[NodeId, frozenset[NodeId]]:
        """Per-synset gold sememe sets derived from the split's triplets,
        keyed in sorted synset order."""
        gold: dict[NodeId, set[NodeId]] = {}
        for t, s in self._split.items():
            if t.relation.kind is RelationKind.HAVE_SEMEME and s is split:
                gold.setdefault(t.head, set()).add(t.tail)
        return {b: frozenset(gold[b]) for b in sorted(gold, key=lambda n: n.name)}

    def annotated_synsets(self) -> tuple[NodeId, ...]:
        """Synsets possessing at least one have_sememe triplet, sorted."""
        out: set[NodeId] = set()
        for t in self._triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME:
                out.add(t.head)
        return tuple(sorted(out, key=lambda n: n.name))

    def stats(self) -> StoreStats:
        rel_kinds = Counter(r.kind for r in self._relations)
        trip_kinds: Counter[RelationKind] = Counter()
        for r, n in self._relation_count.items():
            trip_kinds[r.kind] += n
        by_split = Counter(self._split.values())
        return StoreStats(
            n_triplets=len(self._triplets),
            n_synsets=len(self.synsets),
            n_sememes=len(self.sememes),
            n_relations_by_kind={k: rel_kinds.get(k, 0) for k in RelationKind},
            n_triplets_by_kind={k: trip_kinds.get(k, 0) for k in RelationKind},
            n_by_split={s: by_split.get(s, 0) for s in Split},
        )

    # -- transformations ----------------------------------------------

    def _substore(self, keep: Iterable[Triplet], keep_nodes: Iterable[NodeId]) -> "TripletStore":
        node_set = set(keep_nodes)
        pos = {n: p for n, p in self._pos.items() if n in node_set}
        return TripletStore(keep, pos, self._split)

    def filter_low_frequency(self, min_node_degree: int, min_relation_count: int) -> "TripletStore":
        """Iteratively drop nodes below ``min_node_degree`` and relations
        below ``min_relation_count``, with their triplets, to a fixed point.
        A store that loses nothing is returned as it is.
        """
        if min_node_degree < 0 or min_relation_count < 0:
            raise ConfigError("frequency thresholds must be >= 0")
        # One peel: ``slack`` is each node's degree and each relation's count
        # above its floor among the triplets left (a triplet iterates as its
        # head, relation and tail); a key joins ``low`` once, when its slack
        # first falls below zero, and then drops its triplets.
        slack = {n: d - min_node_degree for n, d in self._degree.items()}
        slack.update((r, c - min_relation_count) for r, c in self._relation_count.items())
        low = [key for key, s in slack.items() if s < 0]
        if not low:
            return self
        touching: dict[NodeId | RelationId, list[Triplet]] = {}
        for t in self._triplets:
            for key in t:
                touching.setdefault(key, []).append(t)
        dropped: set[Triplet] = set()
        while low:
            for t in touching.get(low.pop(), ()):
                if t not in dropped:
                    dropped.add(t)
                    for key in t:
                        slack[key] -= 1
                        if slack[key] == -1:
                            low.append(key)
        kept = [t for t in self._triplets if t not in dropped]
        return self._substore(kept, (n for n in self._nodes if slack[n] >= 0))

    def split_dataset(self, ratios: tuple[float, float, float], seed: int) -> "TripletStore":
        """Partition annotated synsets by ``ratios``; their have_sememe
        triplets follow them into valid/test while every other triplet,
        including synset-synset ones touching held-out synsets, stays in
        train.
        """
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {ratios}")
        if any(r < 0 for r in ratios):
            raise ConfigError(f"split ratios must be nonnegative, got {ratios}")
        annotated = list(self.annotated_synsets())
        if not annotated:
            raise ValidationError("cannot split a store with no annotated synsets")
        rng = random.Random(seed)
        rng.shuffle(annotated)
        n = len(annotated)
        n_valid = int(ratios[1] * n)
        n_test = int(ratios[2] * n)
        n_train = n - n_valid - n_test
        assignment: dict[NodeId, Split] = {}
        for i, b in enumerate(annotated):
            if i < n_train:
                assignment[b] = Split.TRAIN
            elif i < n_train + n_valid:
                assignment[b] = Split.VALID
            else:
                assignment[b] = Split.TEST
        split: dict[Triplet, Split] = {}
        for t in self._triplets:
            if t.relation.kind is RelationKind.HAVE_SEMEME:
                split[t] = assignment[t.head]
            else:
                split[t] = Split.TRAIN
        return TripletStore(self._triplets, self._pos, split)

    def filter_by_pos(self, keep: Iterable[Pos]) -> "TripletStore":
        """Drop synsets whose POS tag is not in ``keep`` along with every
        triplet touching them; sememes are never removed by POS."""
        keep_set = set(keep)
        if not keep_set:
            raise ConfigError("filter_by_pos requires a non-empty keep set")
        removed = {
            n
            for n in self._nodes
            if n.kind is NodeKind.SYNSET and self._pos.get(n, Pos.UNKNOWN) not in keep_set
        }
        kept_nodes = [n for n in self._nodes if n not in removed]
        kept_triplets = [t for t in self._triplets if t.head not in removed and t.tail not in removed]
        return self._substore(kept_triplets, kept_nodes)


# -- file formats -----------------------------------------------------
#
# Triplet file: UTF-8, one triplet per line, TAB-separated fields
#   head<TAB>relation<TAB>tail[<TAB>split]
# Lines starting with '#' are comments.  The optional fourth column is the
# split label written by the prepare step.
#
# POS file: node-id<TAB>pos-tag with the same comment convention.


def load_triplets(path: str | Path, pos_path: str | Path | None = None) -> TripletStore:
    """Load a triplet file, optionally with a POS file, into a validated store.

    Three-column lines default to the train split; four-column lines carry
    an explicit split label.  Malformed lines raise :class:`ParseError`
    naming the line number.  A repeated triplet is dropped, unless its split
    label differs, which raises :class:`ValidationError` naming both lines.
    A store check that fails (see :class:`TripletStore`) names the file.
    """
    split: dict[Triplet, Split] = {}
    n_given = 0
    # (head prefix, name, tail prefix) -> relation; make_triplet checks each key once.
    relations: dict[tuple[str, str, str], RelationId] = {}
    interned = NodeId._interned
    with numbered_lines(path) as lines:
        for lineno, line in lines:
            if line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(f"expected 3 or 4 TAB-separated fields, got {len(fields)}")
            head_name, name, tail_name = fields[0], fields[1], fields[2]
            head = interned.get(head_name) or NodeId(head_name)
            tail = interned.get(tail_name) or NodeId(tail_name)
            key = (head_name[:4], name, tail_name[:4])
            relation = relations.get(key) or relations.setdefault(key, make_triplet(head, name, tail).relation)
            label = _SPLIT_OF_LABEL.get(fields[3]) if len(fields) == 4 else Split.TRAIN
            if label is None:
                raise ParseError(f"unknown split label {fields[3]!r}")
            first_label = split.setdefault(Triplet(head, relation, tail), label)
            if first_label is not label:
                # Equal names make an equal triplet, so the first line with
                # these three fields is the one that first gave it.
                with numbered_lines(path) as again:
                    first_line = next(n for n, text in again if text.split("\t")[:3] == fields[:3])
                raise ValidationError(
                    f"triplet {' '.join(fields[:3])} is {label.value} here "
                    f"but {first_label.value} on line {first_line}"
                )
            n_given += 1
    pos = load_pos_tags(pos_path) if pos_path is not None else {}
    # The store keeps the one table built here, not a copy.
    store = TripletStore.__new__(TripletStore)
    try:
        store._build(split, n_given, pos)
    except ValidationError as exc:
        raise ValidationError(f"{Path(path)}: {exc}") from exc
    return store


def load_pos_tags(path: str | Path) -> dict[NodeId, Pos]:
    tags: dict[NodeId, Pos] = {}
    first_line: dict[NodeId, int] = {}
    interned = NodeId._interned
    with numbered_lines(path) as lines:
        for lineno, line in lines:
            if line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 2 TAB-separated fields, got {len(fields)}")
            node = interned.get(fields[0]) or NodeId(fields[0])
            if first_line.setdefault(node, lineno) != lineno:
                raise ValidationError(f"{node} already tagged on line {first_line[node]}")
            tag = _POS_OF_TAG.get(fields[1])
            if tag is None:
                raise ParseError(f"unknown POS tag {fields[1]!r}")
            tags[node] = tag
    return tags


def save_triplets(store: TripletStore, path: str | Path, include_split: bool = False) -> None:
    """Write the store's triplets in insertion order; with ``include_split``
    a fourth column carries each triplet's split label."""
    with atomic_open(path) as fh:
        for t in store.triplets:
            fields = [t.head.name, t.relation.name, t.tail.name]
            if include_split:
                fields.append(store.split_of(t).value)
            fh.write("\t".join(fields) + "\n")


def save_pos_tags(tags: Mapping[NodeId, Pos], path: str | Path) -> None:
    with atomic_open(path) as fh:
        for node in sorted(tags, key=lambda n: n.name):
            fh.write(f"{node.name}\t{tags[node].value}\n")


def format_stats(stats: StoreStats) -> str:
    """Human-readable dataset summary used by the prepare command."""
    lines = [
        f"triplets\t{stats.n_triplets}",
        f"synsets\t{stats.n_synsets}",
        f"sememes\t{stats.n_sememes}",
    ]
    for kind in (RelationKind.SYNSET_SYNSET, RelationKind.SEMEME_SEMEME, RelationKind.HAVE_SEMEME):
        lines.append(f"relations[{kind.value}]\t{stats.n_relations_by_kind[kind]}")
        lines.append(f"triplets[{kind.value}]\t{stats.n_triplets_by_kind[kind]}")
    for split in Split:
        lines.append(f"split[{split.value}]\t{stats.n_by_split[split]}")
    return "\n".join(lines) + "\n"
