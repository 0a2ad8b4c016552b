"""Tests for name-tree memory accounting (the Figure 13 instrument)."""

import sys

from repro.nametree import NameTree, name_tree_bytes, name_tree_megabytes

from ..conftest import make_record, parse


class TestSizing:
    def test_empty_tree_has_nonzero_overhead(self, tree):
        assert name_tree_bytes(tree) > 0

    def test_size_grows_with_insertions(self, tree):
        empty = name_tree_bytes(tree)
        for i in range(50):
            tree.insert(parse(f"[service=s{i}[id=v{i}]]"), make_record(f"h{i}"))
        assert name_tree_bytes(tree) > empty

    def test_size_shrinks_after_removal(self, tree):
        records = []
        for i in range(30):
            record = make_record(f"h{i}")
            tree.insert(parse(f"[service=s{i}]"), record)
            records.append(record)
        full = name_tree_bytes(tree)
        for record in records[:20]:
            tree.remove(record)
        assert name_tree_bytes(tree) < full

    def test_shared_strings_counted_once(self):
        """Two records under the same attribute/value vocabulary add
        records but not vocabulary bytes."""
        one = NameTree()
        one.insert(parse("[a=b]"), make_record("h1"))
        single = name_tree_bytes(one)

        two = NameTree()
        two.insert(parse("[a=b]"), make_record("h1"))
        two.insert(parse("[a=b]"), make_record("h2"))
        double = name_tree_bytes(two)
        # The second identical name costs less than the first one did
        # (no new nodes, no new tokens; just a record).
        assert double - single < single

    def test_megabytes_scaling(self, tree):
        tree.insert(parse("[a=b]"), make_record())
        assert name_tree_megabytes(tree) == name_tree_bytes(tree) / (1024 * 1024)

    def test_memoized_name_is_counted(self, tree):
        """GET-NAME's memoized result is resident memory the tree owns:
        its pairs, child dicts, keys and wire text, but not the
        attribute/value strings it shares with the tree's nodes."""
        record = make_record()
        tree.insert(parse("[a=b[c=d]][e=f]"), record)
        before = name_tree_bytes(tree)
        name = tree.get_name(record)
        wire = name.to_wire()
        tuples, stack = {}, [name.canonical_key()]
        while stack:
            item = stack.pop()
            if item.__class__ is tuple:
                tuples[id(item)] = item
                stack.extend(item)
        expected = (
            sys.getsizeof(name) + sys.getsizeof(name._roots) + sys.getsizeof(wire)
            + sum(sys.getsizeof(t) for t in tuples.values())
            + sum(sys.getsizeof(pair) + sys.getsizeof(pair._children)
                  for pair in name.walk())
        )
        assert name_tree_bytes(tree) - before == expected
