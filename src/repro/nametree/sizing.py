"""Memory accounting for name-trees (used by the Figure 13 benchmark).

The paper reports the Java heap allocated to the name-tree as names are
added (about 0.5 MB at a few hundred names to 4 MB at 14300). We measure
the same quantity natively: a deep ``sys.getsizeof`` walk over the tree's
nodes, dictionaries, records and strings, deduplicating shared objects by
identity so interned attribute/value strings are counted once, exactly as
they are stored once.
"""

from __future__ import annotations

import sys
from typing import Set

from ..naming import NameSpecifier
from .nodes import ValueNode
from .record import NameRecord
from .tree import NameTree


def _sizeof(obj: object, seen: Set[int]) -> int:
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    return sys.getsizeof(obj)


def _record_size(record: NameRecord, seen: Set[int]) -> int:
    total = _sizeof(record, seen)
    total += _sizeof(record.announcer, seen)
    total += _sizeof(record.announcer.host, seen)
    total += _sizeof(record.endpoints, seen)
    for endpoint in record.endpoints:
        total += _sizeof(endpoint, seen)
        total += _sizeof(endpoint.host, seen)
        total += _sizeof(endpoint.transport, seen)
    total += _sizeof(record.route, seen)
    if record.route.next_hop is not None:
        total += _sizeof(record.route.next_hop, seen)
    total += _sizeof(record.attachments, seen)
    if record.advertised_name is not None:
        # The memoized GET-NAME result is resident memory the tree owns
        # (shared with neighbors that adopted it, so counted once).
        total += _name_size(record.advertised_name, seen)
    return total


def _key_size(key: tuple, seen: Set[int]) -> int:
    """A canonical key: nested tuples of (attribute, value, children)."""
    total = 0
    stack = [key]
    while stack:
        item = stack.pop()
        total += _sizeof(item, seen)
        if item.__class__ is tuple:
            stack.extend(item)
    return total


def _name_size(name: NameSpecifier, seen: Set[int]) -> int:
    """A read-only name: its pairs, child dicts, keys and wire text.

    Freezing cached every key, and the name's key holds its pairs' keys,
    so walking it covers them all.
    """
    total = _sizeof(name, seen) + _sizeof(name._roots, seen)
    total += _key_size(name.canonical_key(), seen)
    if name._wire_key is not None:
        total += _sizeof(name._wire_text, seen)
    for pair in name.walk():
        total += _sizeof(pair, seen)
        total += _sizeof(pair.attribute, seen)
        total += _sizeof(pair.value, seen)
        total += _sizeof(pair._children, seen)
    return total


def name_tree_bytes(tree: NameTree) -> int:
    """Resident bytes of ``tree``: nodes, dicts, records and strings."""
    seen: Set[int] = set()
    total = _sizeof(tree, seen)
    stack = [tree.root]
    while stack:
        value_node = stack.pop()
        total += _sizeof(value_node, seen)
        if value_node.value is not None:
            total += _sizeof(value_node.value, seen)
        total += _sizeof(value_node.children, seen)
        total += _sizeof(value_node.records, seen)
        if value_node._sub_fs is not None:
            # The memoized subtree frozenset is resident memory the tree
            # owns; its record elements are deduplicated by identity.
            total += _sizeof(value_node._sub_fs, seen)
        if value_node.aggregate is not None:
            total += _sizeof(value_node.aggregate, seen)
        for record in value_node.records:
            total += _record_size(record, seen)
        for attribute_node in value_node.children.values():
            total += _sizeof(attribute_node, seen)
            total += _sizeof(attribute_node.attribute, seen)
            total += _sizeof(attribute_node.children, seen)
            stack.extend(attribute_node.children.values())
    return total


def name_tree_megabytes(tree: NameTree) -> float:
    """``name_tree_bytes`` scaled to megabytes, as Figure 13 plots."""
    return name_tree_bytes(tree) / (1024.0 * 1024.0)
