"""Name-specifiers: the intentional names of INS (Section 2.1).

A :class:`NameSpecifier` is a hierarchy of av-pairs. Top-level av-pairs
are orthogonal to each other (e.g. ``city``, ``service`` and
``accessibility`` in the paper's Figure 2); each av-pair may carry
dependent children. Clients put name-specifiers in message headers to
identify message destinations and sources, and services advertise them
to describe what they provide.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .avpair import AVPair
from .errors import DuplicateAttributeError, FrozenNameError, WildcardValueError
from .operators import is_operator_value

#: The well-known attribute an application uses to declare the virtual
#: space(s) its names belong to (Section 2.5).
VSPACE_ATTRIBUTE = "vspace"

#: The virtual space used when an application does not declare one.
DEFAULT_VSPACE = "default"

_DictValue = Union[str, Tuple[str, "NestedDict"]]
NestedDict = Mapping[str, _DictValue]


class NameSpecifier:
    """An intentional name: an ordered forest of orthogonal av-pairs."""

    __slots__ = (
        "_roots", "_key_cache", "_parent", "_wire_key", "_wire_text", "_frozen",
    )

    def __init__(self, roots: Optional[List[AVPair]] = None) -> None:
        self._roots: Dict[str, AVPair] = {}
        # Memoized canonical_key(); root av-pairs point back here so a
        # mutation anywhere in the name invalidates it. A specifier is
        # never itself a child, so its _parent stays None (it exists
        # only to terminate AVPair._invalidate_key's upward walk).
        self._key_cache: Optional[tuple] = None
        self._parent = None
        # Memoized compact to_wire(), valid while _key_cache is the very
        # tuple it was built under: any mutation clears _key_cache, and
        # a recomputed key is a new object, so the tag goes stale too.
        self._wire_key: Optional[tuple] = None
        self._wire_text = ""
        self._frozen = False
        for root in roots or []:
            self.add_pair(root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pair(self, pair: AVPair) -> AVPair:
        """Attach a top-level av-pair; returns it.

        Raises :class:`DuplicateAttributeError` if the attribute is
        already classified at the top level, and
        :class:`FrozenNameError` if this name or ``pair`` is read-only.
        """
        if self._frozen or pair._frozen:
            raise FrozenNameError(
                f"cannot add top-level {pair.attribute}={pair.value}: a "
                "read-only name is involved (copy() it first)"
            )
        if pair.attribute in self._roots:
            raise DuplicateAttributeError(
                f"top-level av-pair with attribute {pair.attribute!r} "
                "already present"
            )
        self._roots[pair.attribute] = pair
        pair._parent = self
        self._key_cache = None
        return pair

    def add(self, attribute: str, value: str) -> AVPair:
        """Create and attach a top-level av-pair; returns it."""
        return self.add_pair(AVPair(attribute, value))

    @classmethod
    def from_dict(cls, spec: NestedDict) -> "NameSpecifier":
        """Build a name-specifier from a nested mapping.

        Each key is an attribute; each value is either the value string
        or a ``(value, children)`` tuple where ``children`` is another
        mapping of the same shape::

            NameSpecifier.from_dict({
                "service": ("camera", {"entity": "transmitter", "id": "a"}),
                "room": "510",
            })
        """
        name = cls()
        for attribute, described in spec.items():
            name.add_pair(cls._pair_from_dict(attribute, described))
        return name

    @staticmethod
    def _pair_from_dict(attribute: str, described: _DictValue) -> AVPair:
        if isinstance(described, str):
            return AVPair(attribute, described)
        value, children = described
        pair = AVPair(attribute, value)
        for child_attribute, child_described in children.items():
            pair.add_child(
                NameSpecifier._pair_from_dict(child_attribute, child_described)
            )
        return pair

    @classmethod
    def parse(cls, text: str) -> "NameSpecifier":
        """Parse the wire representation (Figure 3). See :mod:`.parser`."""
        from .parser import parse_name_specifier

        return parse_name_specifier(text)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def roots(self) -> Tuple[AVPair, ...]:
        """The top-level orthogonal av-pairs, in insertion order."""
        return tuple(self._roots.values())

    def root(self, attribute: str) -> Optional[AVPair]:
        """The top-level av-pair classifying ``attribute``, or None."""
        return self._roots.get(attribute)

    def walk(self) -> Iterator[AVPair]:
        """Yield every av-pair in the name, pre-order."""
        for pair in self._roots.values():
            yield from pair.walk()

    def count(self) -> int:
        """Total number of av-pairs in the name."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Maximum number of av-pair levels (the paper's ``d``); 0 if empty."""
        if not self._roots:
            return 0
        return max(pair.depth() for pair in self._roots.values())

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` made the name read-only."""
        return self._frozen

    def freeze(self) -> "NameSpecifier":
        """Make the name read-only, in place; returns self.

        From then on ``add_pair``/``add_child`` anywhere in it raise
        :class:`FrozenNameError`, so the name can be shared (the
        name-tree hands the same GET-NAME result to every update and
        discovery answer). ``copy()`` still returns a mutable name.
        Computes the canonical key up front, which also lets
        :meth:`to_wire` keep its text from the first call on.
        """
        self.canonical_key()
        self._frozen = True
        for pair in self.walk():
            pair._frozen = True
        return self

    @property
    def is_empty(self) -> bool:
        """True for the empty name, which matches everything."""
        return not self._roots

    def is_concrete(self) -> bool:
        """True when no value is a wild-card or range operator.

        Only concrete names may be advertised; operators belong in
        queries (Section 2.2 advertisements describe actual services).
        Iterative, with the operator test inlined: this predicate runs
        once per name on the advertisement ingestion path.
        """
        stack = list(self._roots.values())
        while stack:
            pair = stack.pop()
            value = pair.value
            if value == "*" or (value and value[0] in "<>"):
                return False
            stack.extend(pair._children.values())
        return True

    def require_concrete(self) -> "NameSpecifier":
        """Raise :class:`WildcardValueError` unless concrete; returns self."""
        stack = list(self._roots.values())
        while stack:
            pair = stack.pop()
            if is_operator_value(pair.value):
                raise WildcardValueError(
                    f"advertisement value {pair.value!r} for attribute "
                    f"{pair.attribute!r} is not a concrete literal"
                )
            stack.extend(pair._children.values())
        return self

    def vspaces(self) -> Tuple[str, ...]:
        """The virtual spaces this name declares via the ``vspace``
        attribute, or ``(DEFAULT_VSPACE,)`` when it declares none.

        A name may belong to multiple vspaces by giving a child list,
        e.g. ``[vspace=camera-ne43]``; multiple vspace declarations are
        expressed as dependent children of the first (the top level only
        permits one ``vspace`` pair because siblings are orthogonal).
        """
        declared = self._roots.get(VSPACE_ATTRIBUTE)
        if declared is None:
            return (DEFAULT_VSPACE,)
        names = [declared.value]
        names.extend(
            pair.value for pair in declared.walk() if pair is not declared
        )
        return tuple(names)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_wire(self, pretty: bool = False) -> str:
        """Serialize to the bracketed wire representation (Figure 3).

        Iterative token emission into one list joined at the end: no
        per-subtree string concatenation (quadratic on deep names) and
        no recursion (deep names would blow the stack). Wire bytes are
        identical to the recursive formulation.

        The compact text is memoized once the canonical key is cached,
        tagged with that key tuple (see ``__init__``), so a name sent
        round after round is serialized once.
        """
        key = self._key_cache
        if not pretty and key is not None and self._wire_key is key:
            return self._wire_text
        eq = " = " if pretty else "="
        out: List[str] = []
        append = out.append
        first_root = True
        # Stack items: an AVPair opens a bracket and schedules its
        # children; the two string sentinels emit themselves.
        for root in self._roots.values():
            if pretty and not first_root:
                append(" ")
            first_root = False
            stack: List[object] = [root]
            pop = stack.pop
            while stack:
                item = pop()
                if item.__class__ is str:
                    append(item)
                    continue
                append(f"[{item.attribute}{eq}{item.value}")
                stack.append("]")
                children = item._children
                if children:
                    if pretty:
                        for child in list(children.values())[::-1]:
                            stack.append(child)
                            stack.append(" ")
                    else:
                        stack.extend(list(children.values())[::-1])
        text = "".join(out)
        if not pretty and key is not None:
            self._wire_key = key
            self._wire_text = text
        return text

    def wire_size(self) -> int:
        """Length in bytes of the compact wire representation."""
        return len(self.to_wire().encode("utf-8"))

    # ------------------------------------------------------------------
    # Equality / hashing (structural, order-insensitive among siblings)
    # ------------------------------------------------------------------
    def canonical_key(self) -> tuple:
        """A hashable key identifying the name up to sibling order.

        Cached; any ``add_pair``/``add_child`` below this name clears
        the cache (see :meth:`AVPair.canonical_key`)."""
        cached = self._key_cache
        if cached is None:
            cached = tuple(
                sorted(p.canonical_key() for p in self._roots.values())
            )
            self._key_cache = cached
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameSpecifier):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def copy(self) -> "NameSpecifier":
        """A deep copy of the name."""
        return NameSpecifier([pair.copy() for pair in self._roots.values()])

    def __repr__(self) -> str:
        return f"NameSpecifier({self.to_wire()!r})"

    def __str__(self) -> str:
        return self.to_wire()
