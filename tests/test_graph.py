from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semepred import (
    ConfigError,
    NodeId,
    NodeKind,
    ParseError,
    Pos,
    RelationId,
    RelationKind,
    Split,
    TripletStore,
    UnknownIdError,
    ValidationError,
    load_triplets,
    make_triplet,
    save_triplets,
    sememe_id,
    synset_id,
)
from semepred.graph import (
    EQUIVALENCE_RELATION_NAME,
    format_stats,
    load_pos_tags,
    save_pos_tags,
)

# The node-name grammar: printable characters other than whitespace and ",".
# Unicode's "other" (C*) and "separator" (Z*) categories are exactly what
# str.isprintable() rejects, bar the ASCII space.
GRAMMAR_CHARS = st.characters(exclude_categories=("C", "Z"), exclude_characters=",")
OUTSIDE_GRAMMAR_CHARS = st.characters(categories=("C", "Z")) | st.just(",")


class TestIds:
    def test_parse_prefixes(self):
        assert NodeId.parse("syn:bn:00045106n") == synset_id("bn:00045106n")
        assert NodeId.parse("sem:capital").kind is NodeKind.SEMEME

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValidationError):
            NodeId.parse("node:x")
        with pytest.raises(ValidationError):
            NodeId("syn:")

    @pytest.mark.parametrize("text", ["sem:", "syn", ""])
    def test_prefix_without_a_name_rejected(self, text):
        with pytest.raises(ValidationError, match=f"node id {text!r} lacks"):
            NodeId(text)

    def test_kind_follows_the_prefix(self):
        assert NodeId("syn:a").kind is NodeKind.SYNSET
        assert NodeId("sem:a").kind is NodeKind.SEMEME

    def test_id_never_equals_a_string(self):
        assert NodeId("syn:a") != "syn:a"
        assert "syn:a" != NodeId("syn:a")

    @given(st.sampled_from(["syn:", "sem:"]), st.text(GRAMMAR_CHARS, min_size=1))
    def test_parse_round_trip(self, prefix, rest):
        node = NodeId(prefix + rest)
        assert NodeId.parse(str(node)) == node

    @given(st.sampled_from(["syn:", "sem:"]), st.text(GRAMMAR_CHARS), OUTSIDE_GRAMMAR_CHARS, st.data())
    def test_name_outside_the_grammar_rejected(self, prefix, rest, bad, data):
        at = data.draw(st.integers(0, len(rest)))
        name = prefix + rest[:at] + bad + rest[at:]
        with pytest.raises(ValidationError, match="holds a comma, whitespace or a non-printable character"):
            NodeId(name)

    def test_one_instance_per_name(self):
        assert NodeId("syn:a") is NodeId.parse("syn:a")
        assert NodeId("syn:a") is synset_id("a")

    def test_id_is_immutable(self):
        node = NodeId("syn:a")
        with pytest.raises(AttributeError):
            node.name = "syn:b"
        with pytest.raises(AttributeError):
            del node.name
        assert node.name == "syn:a"

    def test_rejected_text_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(ValidationError, match="node id 'syn:' lacks a syn:/sem: prefix"):
                NodeId("syn:")
        assert "syn:" not in NodeId._interned

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))]
    )
    def test_copies_are_the_interned_instance(self, clone):
        node = NodeId("sem:capital")
        assert clone(node) is node
        assert clone([node])[0] is node

    def test_repr_names_the_field(self):
        assert repr(NodeId("syn:a")) == "NodeId(name='syn:a')"

    def test_relation_round_trip(self):
        rel = RelationId(RelationKind.SEMEME_SEMEME, "antonym")
        assert RelationId.parse(rel.serialized) == rel

    def test_relation_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            RelationId.parse("antonym")
        with pytest.raises(ValidationError):
            RelationId.parse("rel:nope:antonym")

    def test_relation_parse_rejects_an_empty_name(self):
        with pytest.raises(ValidationError, match="^relation name must be non-empty$"):
            RelationId.parse("rel:have:")


class TestTriplet:
    def test_kind_inferred_from_endpoints(self):
        t = make_triplet(synset_id("a"), "related", synset_id("b"))
        assert t.relation.kind is RelationKind.SYNSET_SYNSET
        t = make_triplet(sememe_id("p"), "antonym", sememe_id("q"))
        assert t.relation.kind is RelationKind.SEMEME_SEMEME
        t = make_triplet(synset_id("a"), "have_sememe", sememe_id("p"))
        assert t.relation.kind is RelationKind.HAVE_SEMEME

    def test_sememe_head_synset_tail_rejected(self):
        with pytest.raises(ValidationError):
            make_triplet(sememe_id("p"), "weird", synset_id("a"))

    def test_reserved_relation_name_rejected(self):
        with pytest.raises(ValidationError):
            make_triplet(synset_id("a"), EQUIVALENCE_RELATION_NAME, synset_id("b"))

    def test_empty_relation_name_rejected(self):
        with pytest.raises(ValidationError, match="^relation name must be non-empty$"):
            make_triplet(synset_id("a"), "", sememe_id("p"))

    def test_illegal_kind_is_reported_before_an_empty_name(self):
        with pytest.raises(ValidationError, match="sememe head sem:p and synset tail syn:a is not a legal kind"):
            make_triplet(sememe_id("p"), "", synset_id("a"))


def _basic_triplets():
    a, b = synset_id("a"), synset_id("b")
    p, q = sememe_id("p"), sememe_id("q")
    return [
        make_triplet(a, "related", b),
        make_triplet(p, "antonym", q),
        make_triplet(a, "have_sememe", p),
        make_triplet(b, "have_sememe", q),
    ]


class TestStoreConstruction:
    def test_duplicates_dropped(self):
        triplets = _basic_triplets()
        store = TripletStore(triplets + [triplets[0], triplets[2]])
        assert len(store) == len(triplets)

    def test_single_have_relation_name_enforced(self):
        bad = _basic_triplets() + [make_triplet(synset_id("a"), "annotated_with", sememe_id("q"))]
        with pytest.raises(ValidationError, match="exactly one"):
            TripletStore(bad)

    def test_non_have_triplet_cannot_be_held_out(self):
        triplets = _basic_triplets()
        with pytest.raises(ValidationError):
            TripletStore(triplets, split={triplets[0]: Split.TEST})

    def test_synset_split_must_be_consistent(self):
        a = synset_id("a")
        p, q = sememe_id("p"), sememe_id("q")
        t1 = make_triplet(a, "have_sememe", p)
        t2 = make_triplet(a, "have_sememe", q)
        with pytest.raises(ValidationError, match="both"):
            TripletStore([t1, t2], split={t1: Split.VALID, t2: Split.TEST})

    def test_pos_only_nodes_are_kept_isolated(self):
        store = TripletStore(_basic_triplets(), pos_tags={synset_id("zzz"): Pos.VERB})
        assert synset_id("zzz") in store.nodes
        assert store.degree(synset_id("zzz")) == 0


class TestStoreQueries:
    def test_degree_counts_triplet_memberships(self, toy_store):
        assert toy_store.degree(synset_id("a")) == 2
        assert toy_store.degree(synset_id("c")) == 3
        assert toy_store.degree(sememe_id("p")) == 4

    def test_degree_unknown_node(self, toy_store):
        with pytest.raises(UnknownIdError):
            toy_store.degree(synset_id("nope"))

    def test_annotation_map_is_sorted_and_split_scoped(self, toy_store):
        gold = toy_store.annotation_map(Split.TRAIN)
        assert list(gold) == sorted(gold, key=lambda n: n.name)
        assert gold[synset_id("c")] == frozenset({sememe_id("p"), sememe_id("q")})
        assert toy_store.annotation_map(Split.TEST) == {}

    def test_pos_defaults_to_unknown(self, toy_store):
        assert toy_store.pos_of(synset_id("a")) is Pos.UNKNOWN

    def test_stats_counts(self, toy_store):
        stats = toy_store.stats()
        assert stats.n_triplets == 8
        assert stats.n_synsets == 3
        assert stats.n_sememes == 2
        assert stats.n_triplets_by_kind[RelationKind.HAVE_SEMEME] == 4
        assert "triplets\t8" in format_stats(stats)


class TestLowFrequencyFilter:
    def test_iterates_to_fixed_point(self):
        # d hangs off c; removing c (degree 1 via its single edge) must
        # cascade and remove d as well.
        a, b, c, d = (synset_id(x) for x in "abcd")
        triplets = [
            make_triplet(a, "related", b),
            make_triplet(b, "related", a),
            make_triplet(c, "related", d),
        ]
        store = TripletStore(triplets)
        filtered = store.filter_low_frequency(min_node_degree=2, min_relation_count=0)
        assert set(filtered.nodes) == {a, b}
        assert len(filtered) == 2

    def test_relation_count_threshold(self):
        a, b = synset_id("a"), synset_id("b")
        triplets = [
            make_triplet(a, "common", b),
            make_triplet(b, "common", a),
            make_triplet(a, "rare", b),
        ]
        filtered = TripletStore(triplets).filter_low_frequency(0, 2)
        assert {t.relation.name for t in filtered.triplets} == {"common"}

    def test_zero_thresholds_are_identity(self, toy_store):
        assert toy_store.filter_low_frequency(0, 0) == toy_store

    @pytest.mark.parametrize("thresholds", [(0, 0), (1, 1), (2, 2)])
    def test_store_dropping_nothing_comes_back_unchanged(self, toy_store, thresholds):
        assert toy_store.filter_low_frequency(*thresholds) is toy_store

    def test_pos_only_node_is_still_dropped(self, toy_store):
        lone = synset_id("lone")
        pos = {lone: Pos.NOUN, synset_id("a"): Pos.VERB}
        store = TripletStore(toy_store.triplets, pos)
        filtered = store.filter_low_frequency(1, 0)
        assert filtered is not store
        assert lone not in filtered.nodes
        assert filtered.triplets == toy_store.triplets
        assert filtered.pos_tags() == {synset_id("a"): Pos.VERB}

    def test_negative_threshold_rejected(self, toy_store):
        with pytest.raises(ConfigError):
            toy_store.filter_low_frequency(-1, 0)


class TestSplitDataset:
    def test_ratio_validation(self, toy_store):
        with pytest.raises(ConfigError):
            toy_store.split_dataset((0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ConfigError):
            toy_store.split_dataset((1.2, -0.1, -0.1), seed=0)

    def test_same_seed_same_split(self, toy_store):
        first = toy_store.split_dataset((0.4, 0.3, 0.3), seed=11)
        second = toy_store.split_dataset((0.4, 0.3, 0.3), seed=11)
        assert first == second

    def test_only_have_triplets_leave_train(self, toy_store):
        split = toy_store.split_dataset((0.4, 0.3, 0.3), seed=3)
        for t in split.triplets:
            if t.relation.kind is not RelationKind.HAVE_SEMEME:
                assert split.split_of(t) is Split.TRAIN

    def test_floor_based_partition_sizes(self):
        synsets = [synset_id(f"s{i}") for i in range(10)]
        p = sememe_id("p")
        triplets = [make_triplet(b, "have_sememe", p) for b in synsets]
        store = TripletStore(triplets)
        split = store.split_dataset((0.8, 0.1, 0.1), seed=0)
        assert len(split.annotation_map(Split.VALID)) == 1
        assert len(split.annotation_map(Split.TEST)) == 1
        assert len(split.annotation_map(Split.TRAIN)) == 8

    def test_all_train_ratios(self, toy_store):
        split = toy_store.split_dataset((1.0, 0.0, 0.0), seed=0)
        assert split.annotation_map(Split.VALID) == {}
        assert split.annotation_map(Split.TEST) == {}


class TestPosFilter:
    def _tagged_store(self):
        a, b = synset_id("a"), synset_id("b")
        p = sememe_id("p")
        triplets = [
            make_triplet(a, "related", b),
            make_triplet(a, "have_sememe", p),
            make_triplet(b, "have_sememe", p),
        ]
        return TripletStore(triplets, pos_tags={a: Pos.NOUN, b: Pos.VERB})

    def test_drops_other_pos_synsets_and_their_triplets(self):
        filtered = self._tagged_store().filter_by_pos([Pos.NOUN])
        assert synset_id("b") not in filtered.nodes
        assert sememe_id("p") in filtered.nodes
        assert len(filtered) == 1

    def test_preserves_split_labels_of_survivors(self):
        store = self._tagged_store().split_dataset((0.0, 0.0, 1.0), seed=0)
        filtered = store.filter_by_pos([Pos.NOUN, Pos.VERB])
        for t in filtered.triplets:
            assert filtered.split_of(t) == store.split_of(t)

    def test_empty_keep_set_rejected(self):
        with pytest.raises(ConfigError):
            self._tagged_store().filter_by_pos([])


class TestFileFormats:
    def test_non_utf8_triplet_line_is_named(self, tmp_path):
        # The bad byte sits in the first block read, so the line is found
        # by rereading, not by where decoding stopped.
        path = tmp_path / "data.tsv"
        path.write_bytes(b"syn:a\trelated\tsyn:b\n# note\nsyn:c\trel\xffated\tsyn:d\n")
        with pytest.raises(ParseError, match=r"data\.tsv:3: not valid UTF-8"):
            load_triplets(path)

    def test_non_utf8_pos_line_is_named(self, tmp_path):
        data, pos = tmp_path / "data.tsv", tmp_path / "pos.tsv"
        data.write_text("syn:a\trelated\tsyn:b\n", encoding="utf-8")
        pos.write_bytes(b"syn:a\tnoun\nsyn:b\tno\xe9un\n")
        with pytest.raises(ParseError, match=r"pos\.tsv:2: not valid UTF-8"):
            load_triplets(data, pos)

    def test_round_trip_with_split_and_pos(self, tmp_path, toy_store):
        split = toy_store.split_dataset((0.4, 0.3, 0.3), seed=5)
        data = tmp_path / "data.tsv"
        pos_file = tmp_path / "pos.tsv"
        save_triplets(split, data, include_split=True)
        save_pos_tags({synset_id("a"): Pos.NOUN}, pos_file)
        loaded = load_triplets(data, pos_file)
        assert loaded == TripletStore(
            split.triplets, {synset_id("a"): Pos.NOUN}, {t: split.split_of(t) for t in split.triplets}
        )

    def test_three_column_lines_default_to_train(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("syn:a\thave_sememe\tsem:p\n", encoding="utf-8")
        store = load_triplets(path)
        assert store.split_of(store.triplets[0]) is Split.TRAIN

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("# header\n\nsyn:a\thave_sememe\tsem:p\n", encoding="utf-8")
        assert len(load_triplets(path)) == 1

    def test_parse_errors_name_the_line(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("syn:a\thave_sememe\tsem:p\nsyn:b\tonly-two\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2"):
            load_triplets(path)

    def test_empty_relation_name_names_the_line(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("syn:a\thave_sememe\tsem:p\nsyn:b\t\tsem:p\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"data\.tsv:2: relation name must be non-empty$"):
            load_triplets(path)

    def test_illegal_kind_line_with_an_empty_name_reports_the_kind(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("sem:p\t\tsyn:a\n", encoding="utf-8")
        with pytest.raises(
            ValidationError, match=r"data\.tsv:1: triplet with sememe head sem:p and synset tail syn:a is not a legal kind"
        ):
            load_triplets(path)

    def test_bad_split_label(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("syn:a\thave_sememe\tsem:p\tdev\n", encoding="utf-8")
        with pytest.raises(ParseError, match="dev"):
            load_triplets(path)

    def test_repeated_label_is_deduplicated(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("syn:a\thave_sememe\tsem:p\ttest\nsyn:a\thave_sememe\tsem:p\ttest\n")
        store = load_triplets(path)
        assert len(store) == 1
        assert store.split_of(store.triplets[0]) is Split.TEST

    @pytest.mark.parametrize(
        ("first", "again", "labels"),
        [("\ttrain", "\ttest", "test here but train"), ("", "\tvalid", "valid here but train")],
        ids=["explicit", "implicit-train"],
    )
    def test_conflicting_split_labels_name_both_lines(self, tmp_path, first, again, labels):
        path = tmp_path / "data.tsv"
        triplet = "syn:a\thave_sememe\tsem:p"
        path.write_text(f"{triplet}{first}\nsyn:b\thave_sememe\tsem:p\n{triplet}{again}\n")
        with pytest.raises(
            ValidationError,
            match=rf"data\.tsv:3: triplet syn:a have_sememe sem:p is {labels} on line 1",
        ):
            load_triplets(path)

    def test_repeated_pos_node_names_both_lines(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("syn:a\tnoun\nsyn:b\tverb\nsyn:a\tverb\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"pos\.tsv:3: syn:a already tagged on line 1"):
            load_pos_tags(path)

    def test_bad_pos_tag(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("syn:a\tnominal\n", encoding="utf-8")
        with pytest.raises(ParseError, match="nominal"):
            load_pos_tags(path)


@st.composite
def small_triplet_lists(draw):
    synsets = [synset_id(f"s{i}") for i in range(4)]
    sememes = [sememe_id(f"m{i}") for i in range(3)]
    triplets = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["syn", "sem", "have"]))
        if kind == "syn":
            head, tail = draw(st.sampled_from(synsets)), draw(st.sampled_from(synsets))
            triplets.append(make_triplet(head, "related", tail))
        elif kind == "sem":
            head, tail = draw(st.sampled_from(sememes)), draw(st.sampled_from(sememes))
            triplets.append(make_triplet(head, "antonym", tail))
        else:
            head, tail = draw(st.sampled_from(synsets)), draw(st.sampled_from(sememes))
            triplets.append(make_triplet(head, "have_sememe", tail))
    return triplets


class TestStoreProperties:
    @given(small_triplet_lists())
    @settings(max_examples=50)
    def test_dedup_to_set_size_and_degree_sum(self, triplets):
        store = TripletStore(triplets)
        assert len(store) == len(set(triplets))
        assert sum(store.degree(n) for n in store.nodes) == 2 * len(store)

    @given(small_triplet_lists(), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_split_preserves_triplets(self, triplets, seed):
        store = TripletStore(triplets)
        if not store.annotated_synsets():
            return
        split = store.split_dataset((0.6, 0.2, 0.2), seed=seed)
        assert set(split.triplets) == set(store.triplets)
