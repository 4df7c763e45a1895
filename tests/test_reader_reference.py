"""``load_triplets`` and ``load_pos_tags`` against their earlier bodies,
kept here as ``_reference_load_triplets`` and ``_reference_load_pos_tags``.

The readers now resolve each id through the intern table, take each
relation from a per-file table that ``make_triplet`` fills once per
(head prefix, name, tail prefix), map labels and tags through dicts and
skip comments inside the loop.  The references below are the earlier
bodies verbatim, with only their names changed: ``NodeId.parse`` and
``make_triplet`` on every line, ``Split(...)`` and ``Pos(...)`` lookups
and a separate comment filter.  Over seeded random files with comments,
blank lines, 3- and 4-column lines, repeats, conflicting labels and all
three relation kinds, and over one-field swaps with awkward tokens, both
must build equal stores or raise the same error with the same message.
Half the files use names no earlier case interned, so the readers take
both the cold and the warm id path.

The vector reader now parses each row with one numpy call; the last
tests hold it to ``float`` on every token.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import pytest
from test_errors import AWKWARD_TOKENS

from semepred import TripletStore, load_triplets, make_triplet
from semepred.embeddings import read_vector_file
from semepred.errors import ParseError, SemepredError, ValidationError, numbered_lines
from semepred.graph import NodeId, Pos, RelationKind, Split, Triplet, load_pos_tags

SEEDS = range(120)
_fresh = itertools.count()


def _data_lines(lines: Iterable[tuple[int, str]]) -> Iterable[tuple[int, str]]:
    return ((n, line) for n, line in lines if not line.lstrip().startswith("#"))


def _reference_load_triplets(path: str | Path, pos_path: str | Path | None = None) -> TripletStore:
    """Load a triplet file, optionally with a POS file, into a validated store.

    Three-column lines default to the train split; four-column lines carry
    an explicit split label.  Malformed lines raise :class:`ParseError`
    naming the line number.  A repeated triplet is dropped, unless its split
    label differs, which raises :class:`ValidationError` naming both lines.
    A store check that fails (see :class:`TripletStore`) names the file.
    """
    triplets: list[Triplet] = []
    first: dict[Triplet, tuple[Split, int]] = {}
    with numbered_lines(path) as lines:
        for lineno, line in _data_lines(lines):
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(f"expected 3 or 4 TAB-separated fields, got {len(fields)}")
            triplet = make_triplet(NodeId.parse(fields[0]), fields[1], NodeId.parse(fields[2]))
            label = Split.TRAIN
            if len(fields) == 4:
                try:
                    label = Split(fields[3])
                except ValueError as exc:
                    raise ParseError(f"unknown split label {fields[3]!r}") from exc
            first_label, first_line = first.setdefault(triplet, (label, lineno))
            if first_label is not label:
                raise ValidationError(
                    f"triplet {' '.join(fields[:3])} is {label.value} here "
                    f"but {first_label.value} on line {first_line}"
                )
            triplets.append(triplet)
    pos = _reference_load_pos_tags(pos_path) if pos_path is not None else {}
    try:
        return TripletStore(triplets, pos, {t: label for t, (label, _) in first.items()})
    except ValidationError as exc:
        raise ValidationError(f"{Path(path)}: {exc}") from exc


def _reference_load_pos_tags(path: str | Path) -> dict[NodeId, Pos]:
    tags: dict[NodeId, Pos] = {}
    first_line: dict[NodeId, int] = {}
    with numbered_lines(path) as lines:
        for lineno, line in _data_lines(lines):
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 2 TAB-separated fields, got {len(fields)}")
            node = NodeId.parse(fields[0])
            if first_line.setdefault(node, lineno) != lineno:
                raise ValidationError(f"{node} already tagged on line {first_line[node]}")
            try:
                tags[node] = Pos(fields[1])
            except ValueError as exc:
                raise ParseError(f"unknown POS tag {fields[1]!r}") from exc
    return tags


# -- random files -------------------------------------------------------

_FILLER = ("# a comment", "   # an indented comment", "\t#tab-indented", "#", "", "   ", "\t")


def _names(rng: random.Random, cold: bool) -> tuple[list[str], list[str]]:
    """Synset and sememe names; cold ones were never interned before this
    call, warm ones come from a small shared pool interned up front.  Some
    hold a ``#``, which is no comment inside a name."""
    tag = f"cold{next(_fresh)}_" if cold else "warm_"
    synsets = [f"syn:{tag}b{i}" + ("#x" if i % 5 == 4 else "") for i in range(rng.randint(2, 9))]
    sememes = [f"sem:{tag}s{i}" + ("#" if i % 4 == 3 else "") for i in range(rng.randint(2, 6))]
    if not cold:
        for name in synsets + sememes:
            NodeId(name)
    return synsets, sememes


def _random_triplet_lines(rng: random.Random, synsets: list[str], sememes: list[str]) -> list[str]:
    have = "have_sememe" if rng.random() < 0.95 else rng.choice(["have_sememe", "has"])
    split_of = {b: rng.choice([Split.TRAIN, Split.TRAIN, Split.VALID, Split.TEST]) for b in synsets}
    lines: list[str] = []
    for _ in range(rng.randint(1, 30)):
        roll = rng.random()
        if roll < 0.4:
            b = rng.choice(synsets)
            fields = [b, have, rng.choice(sememes)]
            label = split_of[b]
            if label is not Split.TRAIN or rng.random() < 0.5:
                fields.append(label.value)
        else:
            pool = synsets if roll < 0.7 else sememes
            fields = [rng.choice(pool), rng.choice(["hypernym", "antonym", "also"]), rng.choice(pool)]
            if rng.random() < 0.3:
                fields.append("train")
        if rng.random() < 0.03 and len(fields) == 4:
            fields[3] = rng.choice(["train", "valid", "test"])  # may break the store's split rules
        lines.append("\t".join(fields))
        if rng.random() < 0.15:
            lines.append(rng.choice(lines))  # a repeat
        if rng.random() < 0.03:
            lines.append("\t".join([*fields[:3], rng.choice(["train", "valid", "test"])]))
        if rng.random() < 0.2:
            lines.append(rng.choice(_FILLER))
    return lines


def _random_pos_lines(rng: random.Random, synsets: list[str], sememes: list[str]) -> list[str]:
    nodes = rng.sample(synsets + sememes, rng.randint(0, len(synsets) + len(sememes)))
    lines = [f"{n}\t{rng.choice([p.value for p in Pos])}" for n in nodes]
    if rng.random() < 0.3:
        lines.append(f"syn:pos_only{next(_fresh)}\tnoun")
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_FILLER))
    if nodes and rng.random() < 0.05:
        lines.append(f"{rng.choice(nodes)}\tverb")  # tagged twice
    if nodes and rng.random() < 0.05:
        lines.append(f"{rng.choice(nodes)}\tpronoun")
    return lines


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _outcome(load: Callable[..., object], *args: object) -> object:
    try:
        return load(*args)
    except SemepredError as exc:
        return type(exc), str(exc)


def _assert_same(new: object, ref: object) -> None:
    if not isinstance(ref, TripletStore):
        assert new == ref
        return
    assert isinstance(new, TripletStore)
    assert new == ref
    assert new.triplets == ref.triplets
    assert new.nodes == ref.nodes
    assert new.relations == ref.relations
    assert new.pos_tags() == ref.pos_tags()
    assert [new.degree(n) for n in new.nodes] == [ref.degree(n) for n in ref.nodes]
    assert [new.split_of(t) for t in new.triplets] == [ref.split_of(t) for t in ref.triplets]
    assert new.stats() == ref.stats()


def _both(load: Callable[..., object], reference: Callable[..., object], *args: object, cold: bool):
    """Both readers' outcomes; a cold case runs the new reader first, so it
    is the one that interns the ids."""
    if cold:
        new = _outcome(load, *args)
        return new, _outcome(reference, *args)
    ref = _outcome(reference, *args)
    return _outcome(load, *args), ref


def _compare(triplets: Path, pos: Path | None, cold: bool) -> object:
    new, ref = _both(load_triplets, _reference_load_triplets, triplets, pos, cold=cold)
    _assert_same(new, ref)
    return new


@pytest.mark.parametrize("seed", SEEDS)
def test_random_files_load_alike(tmp_path, seed):
    rng = random.Random(seed)
    cold = seed % 2 == 0
    synsets, sememes = _names(rng, cold)
    triplets = _write(tmp_path / "dataset.tsv", _random_triplet_lines(rng, synsets, sememes))
    pos = _write(tmp_path / "pos.tsv", _random_pos_lines(rng, synsets, sememes)) if seed % 3 else None
    _compare(triplets, pos, cold)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_pos_files_load_alike(tmp_path, seed):
    rng = random.Random(seed)
    cold = seed % 2 == 0
    pos = _write(tmp_path / "pos.tsv", _random_pos_lines(rng, *_names(rng, cold)))
    new, ref = _both(load_pos_tags, _reference_load_pos_tags, pos, cold=cold)
    # Same tags in the same order, or the same error.
    assert (list(new.items()) if isinstance(new, dict) else new) == (
        list(ref.items()) if isinstance(ref, dict) else ref
    )


def test_random_files_cover_stores_and_errors(tmp_path):
    """The seeds above build stores holding all three relation kinds, and
    raise errors too."""
    outcomes = []
    for seed in SEEDS:
        rng = random.Random(seed)
        path = _write(tmp_path / "dataset.tsv", _random_triplet_lines(rng, *_names(rng, cold=False)))
        outcomes.append(_outcome(load_triplets, path))
    stores = [o for o in outcomes if isinstance(o, TripletStore)]
    assert len(stores) > len(SEEDS) // 2
    assert {t.relation.kind for s in stores for t in s.triplets} == {
        RelationKind.SYNSET_SYNSET, RelationKind.SEMEME_SEMEME, RelationKind.HAVE_SEMEME
    }
    assert any(s.stats().n_by_split[Split.TEST] for s in stores)
    assert any(isinstance(o, tuple) for o in outcomes)


@pytest.mark.parametrize("seed", range(150))
def test_one_field_swaps_fail_alike(tmp_path, seed):
    rng = random.Random(10_000 + seed)
    cold = seed % 2 == 0
    synsets, sememes = _names(rng, cold)
    lines = [line for line in _random_triplet_lines(rng, synsets, sememes) if line.count("\t") >= 2]
    pos_lines = [f"{n}\tnoun" for n in synsets]
    token = AWKWARD_TOKENS[seed % len(AWKWARD_TOKENS)]
    target = pos_lines if seed % 4 == 3 else lines
    i = rng.randrange(len(target))
    fields = target[i].split("\t")
    fields[rng.randrange(len(fields))] = token
    target[i] = "\t".join(fields)
    triplets = _write(tmp_path / "dataset.tsv", lines)
    pos = _write(tmp_path / "pos.tsv", pos_lines)
    _compare(triplets, pos, cold)


# One case per error kind, in the order the checks fire on one line: each
# line also holds every later fault, and only its own is reported.
ERROR_CASES = [
    ("bad head", ["foo\tsemantic_equivalence\tbar\tnope"], ValidationError,
     "node id 'foo' lacks a syn:/sem: prefix"),
    ("bad tail", ["syn:a\tsemantic_equivalence\tsyn:b c\tnope"], ValidationError,
     "node id 'syn:b c' holds a comma"),
    ("reserved name", ["sem:x\tsemantic_equivalence\tsyn:a\tnope"], ValidationError,
     "relation name 'semantic_equivalence' is reserved"),
    ("illegal kind", ["sem:x\t\tsyn:a\tnope"], ValidationError,
     "triplet with sememe head sem:x and synset tail syn:a is not a legal kind"),
    ("empty name", ["syn:a\t\tsyn:b\tnope"], ValidationError, "relation name must be non-empty"),
    ("bad label", ["syn:a\thave_sememe\tsem:x\tnope"], ParseError, "unknown split label 'nope'"),
    ("conflicting label", ["syn:a\thave_sememe\tsem:x\ttest", "# c", "syn:a\thave_sememe\tsem:x\ttrain"],
     ValidationError, "triplet syn:a have_sememe sem:x is train here but test on line"),
]


@pytest.mark.parametrize(("lines", "kind", "message"), [c[1:] for c in ERROR_CASES],
                         ids=[c[0] for c in ERROR_CASES])
@pytest.mark.parametrize("after_valid_line", [False, True], ids=["first", "after-a-valid-line"])
def test_each_error_fires_in_order_with_its_message(tmp_path, lines, kind, message, after_valid_line):
    if after_valid_line:
        lines = ["syn:a\thave_sememe\tsem:y", *lines]
    path = _write(tmp_path / "dataset.tsv", lines)
    outcome = _compare(path, None, cold=False)
    number = len(lines)
    assert outcome[0] is kind
    assert outcome[1].startswith(f"{path}:{number}: {message}")


@pytest.mark.parametrize(("line", "message"), [
    ("foo\tnoun", "node id 'foo' lacks a syn:/sem: prefix or a name after it"),
    ("syn:a\tpronoun", "unknown POS tag 'pronoun'"),
    ("syn:a\tnoun\tx", "expected 2 TAB-separated fields, got 3"),
])
def test_pos_errors_match(tmp_path, line, message):
    path = _write(tmp_path / "pos.tsv", ["syn:z\tverb", line])
    new, ref = _outcome(load_pos_tags, path), _outcome(_reference_load_pos_tags, path)
    assert new == ref
    assert new[1] == f"{path}:2: {message}"


# -- vector rows --------------------------------------------------------

VALID_TOKENS = ["1", "-0", "-0.0", "+1", ".5", "1_0", "١٢", "1e-400", "1.e2", "-2.5E+3", "0.1", "1e308"]
MALFORMED_TOKENS = ["0x10", "1e", "1__0", "_1", "1,5", "−1", "abc", "1e+"]


@pytest.mark.parametrize("token", VALID_TOKENS)
def test_vector_components_load_bit_equal_to_float(tmp_path, token):
    path = _write(tmp_path / "vectors.tsv", ["D=2", f"syn:a\t{token} 0.25"])
    _, rows, _ = read_vector_file(path, NodeId)
    (_, vec), = rows
    expected = np.array([float(token), 0.25])
    assert vec.dtype == np.float64
    assert vec.tobytes() == expected.tobytes()  # bit-equal, so -0.0 keeps its sign


@pytest.mark.parametrize("token", MALFORMED_TOKENS)
def test_malformed_vector_component_names_the_line(tmp_path, token):
    path = _write(tmp_path / "vectors.tsv", ["D=2", "syn:a\t1 2", f"syn:b\t1 {token}"])
    with pytest.raises(ParseError) as info:
        read_vector_file(path, NodeId)
    assert str(info.value) == f"{path}:3: non-numeric vector component"


@pytest.mark.parametrize("token", ["nan", "-inf", "infinity", "1e999"])
def test_non_finite_vector_component_names_the_line(tmp_path, token):
    path = _write(tmp_path / "vectors.tsv", ["D=2", "syn:a\t1 2", f"syn:b\t{token} 1"])
    with pytest.raises(ParseError) as info:
        read_vector_file(path, NodeId)
    assert str(info.value) == f"{path}:3: non-finite vector component"
