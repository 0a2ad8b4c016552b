"""Property-based tests for the name language (hypothesis)."""

import string

from hypothesis import given, settings, strategies as st

from repro.naming import AVPair, NameSpecifier

TOKEN_ALPHABET = string.ascii_lowercase + string.digits + "-_."

tokens = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=8)


@st.composite
def av_pairs(draw, depth=0):
    """A random AVPair with bounded depth and sibling count."""
    pair = AVPair(draw(tokens), draw(tokens))
    if depth < 3:
        child_count = draw(st.integers(min_value=0, max_value=2 if depth < 2 else 1))
        used = set()
        for _ in range(child_count):
            child = draw(av_pairs(depth=depth + 1))
            if child.attribute in used:
                continue
            used.add(child.attribute)
            pair.add_child(child)
    return pair


@st.composite
def name_specifiers(draw):
    """A random non-empty NameSpecifier."""
    name = NameSpecifier()
    used = set()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pair = draw(av_pairs())
        if pair.attribute in used:
            continue
        used.add(pair.attribute)
        name.add_pair(pair)
    return name


@given(name_specifiers())
@settings(max_examples=150, deadline=None)
def test_wire_round_trip(name):
    """parse(to_wire(n)) == n for every generated name."""
    assert NameSpecifier.parse(name.to_wire()) == name


@given(name_specifiers())
@settings(max_examples=100, deadline=None)
def test_pretty_wire_round_trip(name):
    assert NameSpecifier.parse(name.to_wire(pretty=True)) == name


@given(name_specifiers())
@settings(max_examples=100, deadline=None)
def test_copy_equals_original(name):
    assert name.copy() == name
    assert hash(name.copy()) == hash(name)


@given(name_specifiers())
@settings(max_examples=100, deadline=None)
def test_count_matches_walk(name):
    assert name.count() == sum(1 for _ in name.walk())


@given(name_specifiers())
@settings(max_examples=100, deadline=None)
def test_depth_bounds(name):
    depth = name.depth()
    assert 1 <= depth <= 4  # the generator bounds nesting at 4 levels
    assert depth <= name.count()


@given(name_specifiers())
@settings(max_examples=100, deadline=None)
def test_wire_size_consistent_with_serialization(name):
    assert name.wire_size() == len(name.to_wire().encode("utf-8"))


@given(name_specifiers(), name_specifiers())
@settings(max_examples=100, deadline=None)
def test_equality_iff_canonical_keys_match(a, b):
    assert (a == b) == (a.canonical_key() == b.canonical_key())


@given(name_specifiers())
@settings(max_examples=50, deadline=None)
def test_concrete_names_survive_require_concrete(name):
    # The generator never emits '*' or range tokens (alphabet excludes
    # them), so every generated name must be accepted as concrete.
    assert name.is_concrete()
    name.require_concrete()


@given(name_specifiers(), st.data())
@settings(max_examples=150, deadline=None)
def test_cached_wire_text_is_never_stale(name, data):
    """Interleaved to_wire/canonical_key/add_pair/add_child: to_wire()
    always equals the serialization of a fresh, cache-free copy()."""
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        operation = data.draw(
            st.sampled_from(("to_wire", "canonical_key", "add_pair", "add_child"))
        )
        if operation == "to_wire":
            assert name.to_wire() == name.copy().to_wire()
        elif operation == "canonical_key":
            name.canonical_key()
        elif operation == "add_pair":
            attribute = data.draw(tokens)
            if name.root(attribute) is None:
                name.add(attribute, data.draw(tokens))
        else:
            parent = data.draw(st.sampled_from(list(name.walk())))
            attribute = data.draw(tokens)
            if parent.child(attribute) is None:
                parent.add(attribute, data.draw(tokens))
    assert name.to_wire() == name.copy().to_wire()
