"""Exceptions raised by the intentional name language.

All naming-layer errors derive from :class:`NamingError` so callers can
catch one type at API boundaries while tests can assert on the precise
subclass.
"""

from __future__ import annotations


class NamingError(ValueError):
    """Base class for all intentional-name language errors."""


class NameSyntaxError(NamingError):
    """A wire-format name-specifier could not be parsed.

    Carries the character ``position`` at which parsing failed so tools
    (and tests) can point at the offending token.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidTokenError(NamingError):
    """An attribute or value token contains a reserved character.

    Tokens are free-form strings but may not contain whitespace or the
    structural characters ``[``, ``]`` and ``=`` (Section 2.1 of the
    paper permits arbitrary whitespace *between* tokens only).
    """


class DuplicateAttributeError(NamingError):
    """Two sibling av-pairs share the same attribute.

    Sibling attributes are orthogonal categories; a name-specifier that
    classifies the same object twice in one category is ambiguous.
    """


class FrozenNameError(NamingError):
    """A read-only name-specifier was mutated.

    Names the name-tree rebuilds with GET-NAME are shared by every
    update and discovery answer that carries them, across rounds and
    neighbors, so they are frozen; ``copy()`` gives a mutable one.
    """


class WildcardValueError(NamingError):
    """A wildcard or range value was used where a literal is required.

    Advertisements must describe concrete services, so ``*`` and range
    operators are only legal in queries.
    """


class WireFormatError(NamingError):
    """A binary-encoded name is truncated, malformed or oversized.

    Everything a decoder can object to — a varint running past the
    buffer, a token index outside the table, unbalanced nesting, bytes
    after the terminator — raises this one type, so transport code can
    treat "undecodable frame" as a single condition and drop it without
    ever seeing a raw ``IndexError`` or ``UnicodeDecodeError``.
    """
