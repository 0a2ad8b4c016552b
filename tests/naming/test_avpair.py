"""Unit tests for attribute-value pairs."""

import pytest

from repro.naming import (
    AVPair,
    DuplicateAttributeError,
    InvalidTokenError,
    make_pair,
    validate_token,
)
from repro.naming.avpair import _FIRST_ILLEGAL, RESERVED_CHARACTERS


class TestTokenValidation:
    def test_accepts_plain_tokens(self):
        assert validate_token("camera", "attribute") == "camera"

    def test_accepts_punctuation(self):
        assert validate_token("640x480", "value") == "640x480"
        assert validate_token("oval-office", "value") == "oval-office"
        assert validate_token("a_b.c:d", "value") == "a_b.c:d"

    @pytest.mark.parametrize("bad", ["", "a b", "a[b", "a]b", "a=b", "\t", "a\nb"])
    def test_rejects_reserved_and_whitespace(self, bad):
        with pytest.raises(InvalidTokenError):
            validate_token(bad, "attribute")

    def test_error_names_the_kind(self):
        with pytest.raises(InvalidTokenError, match="value"):
            validate_token("x=y", "value")

    def test_error_names_the_first_offending_character(self):
        with pytest.raises(InvalidTokenError, match=r"reserved character '\['"):
            validate_token("ab[c d]", "attribute")
        with pytest.raises(InvalidTokenError, match=r"reserved character ' '"):
            validate_token("ab c]", "attribute")

    def test_range_operator_exempts_only_the_leading_operator(self):
        assert validate_token("<=5", "value") == "<=5"
        assert validate_token(">=5", "value") == ">=5"
        with pytest.raises(InvalidTokenError, match=r"character '='"):
            validate_token("<=5=", "value")
        with pytest.raises(InvalidTokenError, match=r"character '='"):
            validate_token("<=5", "attribute")

    def test_illegal_set_is_exactly_reserved_or_whitespace(self):
        """Over every code point, the compiled test agrees with
        ``ch in RESERVED_CHARACTERS or ch.isspace()``."""
        everything = "".join(map(chr, range(0x110000)))
        matched = set()
        found = _FIRST_ILLEGAL(everything)
        while found is not None:
            matched.add(found.start())
            found = _FIRST_ILLEGAL(everything, found.end())
        expected = {
            code for code, ch in enumerate(everything)
            if ch in RESERVED_CHARACTERS or ch.isspace()
        }
        assert matched == expected


class TestConstruction:
    def test_basic_pair(self):
        pair = AVPair("city", "washington")
        assert pair.attribute == "city"
        assert pair.value == "washington"
        assert pair.is_leaf
        assert pair.children == ()

    def test_rejects_bad_attribute(self):
        with pytest.raises(InvalidTokenError):
            AVPair("ci ty", "washington")

    def test_rejects_bad_value(self):
        with pytest.raises(InvalidTokenError):
            AVPair("city", "wash[ington")

    def test_add_child_returns_child(self):
        parent = AVPair("service", "camera")
        child = parent.add("entity", "transmitter")
        assert child.attribute == "entity"
        assert parent.children == (child,)
        assert not parent.is_leaf

    def test_sibling_attributes_must_be_orthogonal(self):
        parent = AVPair("service", "camera")
        parent.add("entity", "transmitter")
        with pytest.raises(DuplicateAttributeError):
            parent.add("entity", "receiver")

    def test_same_attribute_allowed_at_different_levels(self):
        # country=us -> state=virginia vs country=canada -> province=...
        # but also room can nest under room-like chains.
        parent = AVPair("area", "north")
        child = parent.add("area2", "x")
        child.add("area", "south")  # no clash across levels
        assert parent.child("area2").child("area").value == "south"

    def test_make_pair_with_children(self):
        pair = make_pair(
            "service", "camera", AVPair("entity", "transmitter"), AVPair("id", "a")
        )
        assert {c.attribute for c in pair.children} == {"entity", "id"}


class TestInspection:
    def test_child_lookup(self):
        pair = make_pair("a", "b", AVPair("c", "d"))
        assert pair.child("c").value == "d"
        assert pair.child("missing") is None

    def test_walk_is_preorder(self):
        root = AVPair("a", "1")
        child = root.add("b", "2")
        child.add("c", "3")
        root.add("d", "4")
        walked = [(p.attribute, p.value) for p in root.walk()]
        assert walked == [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]

    def test_depth_counts_av_pair_levels(self):
        root = AVPair("a", "1")
        assert root.depth() == 1
        child = root.add("b", "2")
        assert root.depth() == 2
        child.add("c", "3")
        assert root.depth() == 3

    def test_count(self):
        root = AVPair("a", "1")
        root.add("b", "2").add("c", "3")
        root.add("d", "4")
        assert root.count() == 4


class TestEquality:
    def test_structural_equality(self):
        a = make_pair("x", "1", AVPair("y", "2"))
        b = make_pair("x", "1", AVPair("y", "2"))
        assert a == b
        assert hash(a) == hash(b)

    def test_sibling_order_is_irrelevant(self):
        a = make_pair("x", "1", AVPair("y", "2"), AVPair("z", "3"))
        b = make_pair("x", "1", AVPair("z", "3"), AVPair("y", "2"))
        assert a == b

    def test_value_difference_breaks_equality(self):
        assert AVPair("x", "1") != AVPair("x", "2")

    def test_structure_difference_breaks_equality(self):
        assert make_pair("x", "1", AVPair("y", "2")) != AVPair("x", "1")

    def test_not_equal_to_other_types(self):
        assert AVPair("x", "1") != "x=1"

    def test_copy_is_deep_and_equal(self):
        original = make_pair("x", "1", make_pair("y", "2", AVPair("z", "3")))
        duplicate = original.copy()
        assert duplicate == original
        duplicate.child("y").add("w", "4")
        assert duplicate != original
