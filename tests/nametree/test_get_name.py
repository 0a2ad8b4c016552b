"""Tests for the GET-NAME extraction algorithm (Figure 6)."""

from repro.naming import NameSpecifier
from repro.nametree import NameTree

from ..conftest import OVAL_OFFICE_CAMERA, make_record, parse


class TestGetName:
    def test_single_pair_round_trip(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert tree.get_name(record) == parse("[a=b]")

    def test_deep_chain_round_trip(self, tree):
        record = make_record()
        name = parse("[a=b[c=d[e=f[g=h]]]]")
        tree.insert(name, record)
        assert tree.get_name(record) == name

    def test_multi_branch_round_trip(self, tree):
        """Grafting joins fragments through shared ancestors."""
        record = make_record()
        name = parse("[a=b[x=1][y=2[z=3]]][c=d]")
        tree.insert(name, record)
        assert tree.get_name(record) == name

    def test_figure_3_name_round_trips(self, tree):
        record = make_record()
        name = parse(OVAL_OFFICE_CAMERA)
        tree.insert(name, record)
        assert tree.get_name(record) == name

    def test_extraction_from_superposed_tree(self, tree):
        """Each record's name comes back exactly, even when the tree
        superposes many names over shared nodes."""
        names = [
            "[a=b[c=d]]",
            "[a=b[c=e]]",
            "[a=b[c=d[f=g]]]",
            "[a=z]",
            "[q=r][a=b]",
        ]
        records = {}
        for index, wire in enumerate(names):
            record = make_record(host=f"h{index}")
            tree.insert(parse(wire), record)
            records[wire] = record
        for wire, record in records.items():
            assert tree.get_name(record) == parse(wire), wire

    def test_ptrs_are_reset_between_extractions(self, tree):
        """The transient PTR variables must not leak across calls."""
        first = make_record("h1")
        second = make_record("h2")
        tree.insert(parse("[a=b[c=d]]"), first)
        tree.insert(parse("[a=b[c=e]]"), second)
        assert tree.get_name(first) == parse("[a=b[c=d]]")
        assert tree.get_name(second) == parse("[a=b[c=e]]")
        assert tree.get_name(first) == parse("[a=b[c=d]]")
        for value_node in tree.root.walk_values():
            assert value_node.ptr is None

    def test_names_iterates_all_pairs(self, tree):
        wires = {"[a=b]", "[c=d[e=f]]"}
        inserted = {}
        for wire in sorted(wires):
            record = make_record(host=wire)
            tree.insert(parse(wire), record)
            inserted[wire] = record
        extracted = {name.to_wire(): record for name, record in tree.names()}
        assert set(extracted) == wires
        for wire in sorted(wires):
            assert extracted[wire] is inserted[wire]


class TestGetNameMemo:
    """GET-NAME runs once per graft; its read-only result is shared."""

    def test_result_is_memoized_and_read_only(self, tree):
        record = make_record()
        tree.insert(parse("[a=b[c=d]]"), record)
        name = tree.get_name(record)
        assert tree.get_name(record) is name
        assert name.frozen
        assert record.advertised_name is name

    def test_regraft_rebuilds(self, tree):
        record = make_record()
        tree.insert(parse("[a=b[c=d]]"), record)
        old = tree.get_name(record)
        renamed = make_record()
        renamed.announcer = record.announcer
        tree.insert(parse("[a=b[c=e]]"), renamed)
        assert tree.get_name(renamed).to_wire() == "[a=b[c=e]]"
        assert old.to_wire() == "[a=b[c=d]]"

    def test_remove_clears_the_memo(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        tree.get_name(record)
        tree.remove(record)
        assert record.advertised_name is None

    def test_pure_refresh_keeps_the_memo(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        name = tree.get_name(record)
        tree.insert(parse("[a=b]"), make_record_for(record))
        assert tree.get_name(record) is name

    def test_graft_adopts_a_read_only_name(self, tree):
        source = NameTree()
        origin = make_record()
        source.insert(parse("[a=b[x=1][y=2]][c=d]"), origin)
        shared = source.get_name(origin)
        record = make_record()
        tree.insert(shared, record)
        assert tree.get_name(record) is shared

    def test_graft_does_not_adopt_a_mutable_name(self, tree):
        record = make_record()
        advertised = parse("[a=b]")
        tree.insert(advertised, record)
        name = tree.get_name(record)
        assert name is not advertised
        advertised.add("c", "d")  # the advertiser's object stays its own
        assert tree.get_name(record).to_wire() == "[a=b]"

    def test_refresh_adopts_only_an_identical_wire_text(self, tree):
        record = make_record()
        tree.insert(parse("[a=1][b=2]"), record)
        own = tree.get_name(record)
        reordered = parse("[b=2][a=1]").freeze()
        tree.insert(reordered, make_record_for(record))
        assert tree.get_name(record) is own
        same = parse("[a=1][b=2]").freeze()
        tree.insert(same, make_record_for(record))
        assert tree.get_name(record) is same


def make_record_for(record):
    """A refresh of ``record``: same announcer, same payload."""
    refresh = make_record()
    refresh.announcer = record.announcer
    refresh.endpoints = list(record.endpoints)
    return refresh
