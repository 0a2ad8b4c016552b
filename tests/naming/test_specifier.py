"""Tests for NameSpecifier construction, inspection and vspaces."""

import pytest

from repro.naming import (
    AVPair,
    DEFAULT_VSPACE,
    DuplicateAttributeError,
    FrozenNameError,
    NameSpecifier,
    WildcardValueError,
)


class TestConstruction:
    def test_add_builds_roots_in_order(self):
        name = NameSpecifier()
        name.add("a", "1")
        name.add("b", "2")
        assert [p.attribute for p in name.roots] == ["a", "b"]

    def test_duplicate_top_level_attribute_rejected(self):
        name = NameSpecifier()
        name.add("a", "1")
        with pytest.raises(DuplicateAttributeError):
            name.add("a", "2")

    def test_from_dict_flat(self):
        name = NameSpecifier.from_dict({"room": "510", "floor": "5"})
        assert name.root("room").value == "510"
        assert name.root("floor").value == "5"

    def test_from_dict_nested(self):
        name = NameSpecifier.from_dict(
            {"service": ("camera", {"entity": "transmitter", "id": "a"}), "room": "510"}
        )
        assert name.to_wire() == "[service=camera[entity=transmitter][id=a]][room=510]"

    def test_from_dict_deeply_nested(self):
        name = NameSpecifier.from_dict(
            {"city": ("washington", {"building": ("whitehouse", {"wing": "west"})})}
        )
        assert name.root("city").child("building").child("wing").value == "west"


class TestInspection:
    def test_count_and_depth_empty(self):
        empty = NameSpecifier()
        assert empty.count() == 0
        assert empty.depth() == 0
        assert empty.is_empty

    def test_walk_covers_all_pairs(self):
        name = NameSpecifier.parse("[a=1[b=2]][c=3]")
        assert {(p.attribute, p.value) for p in name.walk()} == {
            ("a", "1"),
            ("b", "2"),
            ("c", "3"),
        }

    def test_wire_size_is_utf8_bytes(self):
        name = NameSpecifier.parse("[a=b]")
        assert name.wire_size() == len("[a=b]")


class TestConcreteness:
    def test_concrete_name(self):
        assert NameSpecifier.parse("[a=b[c=d]]").is_concrete()

    def test_wildcard_is_not_concrete(self):
        assert not NameSpecifier.parse("[a=*]").is_concrete()

    def test_range_is_not_concrete(self):
        assert not NameSpecifier.parse("[a=<5]").is_concrete()

    def test_nested_wildcard_detected(self):
        assert not NameSpecifier.parse("[a=b[c=*]]").is_concrete()

    def test_require_concrete_raises_with_attribute_in_message(self):
        with pytest.raises(WildcardValueError, match="room"):
            NameSpecifier.parse("[a=b][room=*]").require_concrete()

    def test_require_concrete_returns_self(self):
        name = NameSpecifier.parse("[a=b]")
        assert name.require_concrete() is name


class TestVspaces:
    def test_default_when_undeclared(self):
        assert NameSpecifier.parse("[a=b]").vspaces() == (DEFAULT_VSPACE,)

    def test_single_declared_vspace(self):
        name = NameSpecifier.parse("[service=camera][vspace=camera-ne43]")
        assert name.vspaces() == ("camera-ne43",)

    def test_multiple_vspaces_via_children(self):
        name = NameSpecifier.parse("[vspace=camera-ne43[extra=building-ne43]]")
        assert set(name.vspaces()) == {"camera-ne43", "building-ne43"}

    def test_empty_name_is_default_vspace(self):
        assert NameSpecifier().vspaces() == (DEFAULT_VSPACE,)


class TestEqualityAndCopy:
    def test_equality_ignores_root_order(self):
        a = NameSpecifier.parse("[a=1][b=2]")
        b = NameSpecifier.parse("[b=2][a=1]")
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_is_structural(self):
        assert NameSpecifier.parse("[a=1[b=2]]") != NameSpecifier.parse("[a=1]")

    def test_copy_is_independent(self):
        original = NameSpecifier.parse("[a=1[b=2]]")
        duplicate = original.copy()
        assert duplicate == original
        duplicate.root("a").add("c", "3")
        assert duplicate != original

    def test_cached_canonical_key_tracks_mutation(self):
        """canonical_key() is cached; any structural mutation — even a
        deeply nested add_child — must invalidate the cache."""
        name = NameSpecifier.parse("[a=1[b=2]]")
        before = name.canonical_key()
        assert name.canonical_key() is before  # cached object reused
        name.root("a").child("b").add("c", "3")
        after = name.canonical_key()
        assert after != before
        assert after == NameSpecifier.parse("[a=1[b=2[c=3]]]").canonical_key()

    def test_cached_canonical_key_tracks_add_pair(self):
        name = NameSpecifier.parse("[a=1]")
        before = name.canonical_key()
        name.add("b", "2")
        assert name.canonical_key() != before
        assert name == NameSpecifier.parse("[a=1][b=2]")

    def test_str_and_repr(self):
        name = NameSpecifier.parse("[a=b]")
        assert str(name) == "[a=b]"
        assert "[a=b]" in repr(name)


class TestWireCache:
    def test_compact_text_is_kept_once_the_key_is_cached(self):
        name = NameSpecifier.parse("[a=1[b=2]][c=3]")
        name.canonical_key()
        first = name.to_wire()
        assert name.to_wire() is first
        assert name.to_wire(pretty=True) == "[a = 1 [b = 2]] [c = 3]"

    def test_mutation_below_the_root_refreshes_the_text(self):
        name = NameSpecifier.parse("[a=1[b=2]]")
        name.canonical_key()
        assert name.to_wire() == "[a=1[b=2]]"
        name.root("a").child("b").add("c", "3")
        assert name.to_wire() == "[a=1[b=2[c=3]]]"
        name.canonical_key()
        name.add("d", "4")
        assert name.to_wire() == "[a=1[b=2[c=3]]][d=4]"

    def test_empty_name(self):
        name = NameSpecifier()
        name.canonical_key()
        assert name.to_wire() == ""
        name.add("a", "1")
        name.canonical_key()
        assert name.to_wire() == "[a=1]"


class TestReadOnly:
    def test_frozen_name_rejects_add_pair(self):
        name = NameSpecifier.parse("[a=1[b=2]]").freeze()
        assert name.frozen
        with pytest.raises(FrozenNameError):
            name.add("c", "3")
        with pytest.raises(FrozenNameError):
            name.add_pair(AVPair("c", "3"))
        assert name.to_wire() == "[a=1[b=2]]"

    def test_frozen_name_rejects_add_child_at_any_depth(self):
        name = NameSpecifier.parse("[a=1[b=2]]").freeze()
        with pytest.raises(FrozenNameError):
            name.root("a").add("c", "3")
        with pytest.raises(FrozenNameError):
            name.root("a").child("b").add_child(AVPair("c", "3"))
        assert name == NameSpecifier.parse("[a=1[b=2]]")

    def test_frozen_pairs_cannot_be_attached_elsewhere(self):
        """Re-parenting a shared pair would let another name mutate it."""
        frozen = NameSpecifier.parse("[a=1[b=2]]").freeze()
        with pytest.raises(FrozenNameError):
            NameSpecifier().add_pair(frozen.root("a"))
        with pytest.raises(FrozenNameError):
            AVPair("x", "y").add_child(frozen.root("a").child("b"))

    def test_copy_of_frozen_name_is_mutable(self):
        frozen = NameSpecifier.parse("[a=1[b=2]]").freeze()
        duplicate = frozen.copy()
        assert not duplicate.frozen
        duplicate.root("a").add("c", "3")
        duplicate.add("d", "4")
        assert duplicate.to_wire() == "[a=1[b=2][c=3]][d=4]"
        assert frozen.to_wire() == "[a=1[b=2]]"

    def test_fresh_names_are_mutable(self):
        name = NameSpecifier.parse("[a=1]")
        assert not name.frozen
        name.add("b", "2")
        assert name.to_wire() == "[a=1][b=2]"
