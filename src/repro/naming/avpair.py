"""Attribute-value pairs, the building block of name-specifiers.

An av-pair (Section 2.1) is an attribute (a category, e.g. ``city``)
bound to a value (the classification, e.g. ``washington``), with child
av-pairs that are only meaningful in the context of this pair. Children
with distinct attributes are *orthogonal*; a child whose meaning depends
on this pair is a *descendant* of it.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Optional, Tuple

from .errors import DuplicateAttributeError, FrozenNameError, InvalidTokenError

#: Characters that cannot appear inside attribute or value tokens
#: because they are structural in the wire format.
RESERVED_CHARACTERS = frozenset("[]=")

#: The first character ``validate_token`` rejects: a reserved one or
#: whitespace (``\s`` on a str pattern is exactly ``str.isspace``).
_FIRST_ILLEGAL = re.compile(r"[\[\]=\s]").search


def validate_token(token: str, kind: str) -> str:
    """Check that ``token`` is a legal attribute or value token.

    Tokens are free-form strings, but the wire format reserves
    ``[``, ``]`` and ``=`` and forbids embedded whitespace (whitespace is
    a token separator). The single exception: a *value* may begin with a
    range operator (``<=`` / ``>=``), whose ``=`` the parser also knows
    how to carry. Returns the token so calls can be inlined.
    """
    if not token:
        raise InvalidTokenError(f"empty {kind} token")
    start = 2 if kind == "value" and token[:2] in ("<=", ">=") else 0
    illegal = _FIRST_ILLEGAL(token, start)
    if illegal is not None:
        raise InvalidTokenError(
            f"{kind} token {token!r} contains reserved character "
            f"{illegal.group()!r}"
        )
    return token


class AVPair:
    """One attribute-value pair and its dependent children.

    The children are kept in a dict keyed by attribute, preserving
    insertion order while enforcing sibling-attribute orthogonality and
    giving O(1) child lookup during name-tree operations.
    """

    __slots__ = (
        "attribute", "value", "_children", "_key_cache", "_parent", "_frozen",
    )

    def __init__(self, attribute: str, value: str) -> None:
        self.attribute = validate_token(attribute, "attribute")
        self.value = validate_token(value, "value")
        self._children: Dict[str, "AVPair"] = {}
        # Memoized canonical_key() plus the upward link that lets a
        # descendant mutation invalidate every ancestor's cache. An
        # av-pair belongs to at most one parent (pair or specifier) —
        # which the object model already implies: names are trees.
        self._key_cache: Optional[tuple] = None
        self._parent = None
        # Set by NameSpecifier.freeze() on every pair of a shared name.
        self._frozen = False

    def _invalidate_key(self) -> None:
        # A cached ancestor implies every descendant is cached (the key
        # is built bottom-up), so stopping at the first already-clear
        # cache never strands a stale ancestor.
        node = self
        while node is not None and node._key_cache is not None:
            node._key_cache = None
            node = node._parent

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_child(self, child: "AVPair") -> "AVPair":
        """Attach ``child`` as a dependent av-pair; returns ``child``.

        Raises :class:`DuplicateAttributeError` when a sibling already
        classifies the same attribute, and :class:`FrozenNameError` when
        either pair belongs to a read-only name.
        """
        if self._frozen or child._frozen:
            raise FrozenNameError(
                f"cannot attach {child.attribute}={child.value} under "
                f"{self.attribute}={self.value}: a read-only name is "
                "involved (copy() it first)"
            )
        if child.attribute in self._children:
            raise DuplicateAttributeError(
                f"sibling av-pair with attribute {child.attribute!r} "
                f"already present under {self.attribute}={self.value}"
            )
        self._children[child.attribute] = child
        child._parent = self
        self._invalidate_key()
        return child

    def add(self, attribute: str, value: str) -> "AVPair":
        """Create an av-pair and attach it; returns the new child."""
        return self.add_child(AVPair(attribute, value))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def children(self) -> Tuple["AVPair", ...]:
        """The dependent av-pairs, in insertion order."""
        return tuple(self._children.values())

    def child(self, attribute: str) -> Optional["AVPair"]:
        """The child av-pair classifying ``attribute``, or None."""
        return self._children.get(attribute)

    @property
    def is_leaf(self) -> bool:
        """True when this av-pair has no dependent children."""
        return not self._children

    def walk(self) -> Iterator["AVPair"]:
        """Yield this pair and every descendant, pre-order.

        Iterative (explicit stack): names built programmatically can be
        arbitrarily deep, and a nested-generator walk would hit the
        interpreter recursion limit a few hundred levels down.
        """
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            pair = pop()
            yield pair
            children = pair._children
            if children:
                extend(list(children.values())[::-1])

    def depth(self) -> int:
        """Number of av-pair levels in the subtree rooted here (>= 1)."""
        deepest = 1
        stack = [(self, 1)]
        while stack:
            pair, level = stack.pop()
            if level > deepest:
                deepest = level
            below = level + 1
            for child in pair._children.values():
                stack.append((child, below))
        return deepest

    def count(self) -> int:
        """Total number of av-pairs in the subtree rooted here."""
        total = 0
        stack = [self]
        while stack:
            pair = stack.pop()
            total += 1
            stack.extend(pair._children.values())
        return total

    # ------------------------------------------------------------------
    # Structural equality and canonical ordering
    # ------------------------------------------------------------------
    def canonical_key(self) -> tuple:
        """A hashable key identifying this subtree up to sibling order.

        Cached: structural mutation (``add_child`` anywhere below)
        invalidates the cache up the parent chain, so repeated key
        computations — hashing, name-tree memo lookups, refresh
        comparisons — cost one attribute read instead of a tree walk.
        """
        cached = self._key_cache
        if cached is not None:
            return cached
        # Post-order over the uncached region: children's keys exist
        # before their parent's is assembled, without Python recursion
        # (deep programmatic names would otherwise blow the stack).
        pending: list = [self]
        order: list = []
        while pending:
            pair = pending.pop()
            if pair._key_cache is None:
                order.append(pair)
                pending.extend(pair._children.values())
        for pair in reversed(order):
            pair._key_cache = (
                pair.attribute,
                pair.value,
                tuple(sorted(c._key_cache for c in pair._children.values())),
            )
        return self._key_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AVPair):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def copy(self) -> "AVPair":
        """A deep copy of this subtree (iterative, depth-safe)."""
        duplicate = AVPair(self.attribute, self.value)
        stack = [(self, duplicate)]
        while stack:
            source, target = stack.pop()
            for child in source._children.values():
                twin = AVPair(child.attribute, child.value)
                target.add_child(twin)
                stack.append((child, twin))
        return duplicate

    def __repr__(self) -> str:
        return f"AVPair({self.attribute}={self.value}, children={len(self._children)})"


def make_pair(attribute: str, value: str, *children: AVPair) -> AVPair:
    """Convenience constructor: an av-pair with pre-built children."""
    pair = AVPair(attribute, value)
    for child in children:
        pair.add_child(child)
    return pair
