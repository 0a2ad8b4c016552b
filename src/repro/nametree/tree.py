"""The name-tree and its two central algorithms (Section 2.3).

``NameTree`` stores the superposition of every name-specifier an INR
knows about and maps each to its name-record. ``lookup`` implements
LOOKUP-NAME (Figure 5) and ``get_name`` implements GET-NAME (Figure 6).
Grafting (``insert``), soft-state expiry (``expire``) and branch pruning
keep the structure consistent as advertisements come and go.

Beyond the paper, ``lookup`` memoizes its results (see
``NameTree.__init__``): query resolution at scale is dominated by
repeated queries over a record set that changes far less often than it
is read, so results are cached under the query's canonical key and the
whole memo is flushed when a tree *epoch* counter advances. The epoch
moves only on membership changes — graft, remove, expiry — never on a
pure refresh, so periodic soft-state refreshes keep the memo warm.

Three implementation notes on the hot paths:

- LOOKUP-NAME runs iteratively over an explicit frame stack (names of
  any depth resolve without recursion) and reads per-value-node subtree
  sets through an epoch-keyed frozenset cache
  (:meth:`.nodes.ValueNode.subtree_frozen`), so repeated distinct
  queries against an unchanged record set stop re-walking subtrees.
- Mutations can be grouped into a *batch epoch*
  (:meth:`begin_batch`/:meth:`end_batch`/:meth:`batch`): the epoch
  advances once when the outermost batch closes instead of once per
  graft, which keeps one simulator delivery of N periodic updates from
  invalidating lookup state N times.
- GET-NAME runs at most once per graft. A record's name can only change
  when it is grafted again, so ``get_name`` memoizes its result on the
  record (``NameRecord.advertised_name``, cleared by graft and remove)
  and every periodic update, triggered update, full-table send and
  discovery answer reuses it. The result is frozen because it is
  shared. A tree *adopts* an incoming read-only name instead of keeping
  its own copy: at graft, and on a refresh whose name has the same wire
  text as the memo. That is safe because GET-NAME(graft(n)) reproduces
  n's wire text exactly (grafting attaches leaves in n's pre-order, and
  the upward trace rebuilds siblings in that order), and it keeps one
  copy of each name per domain rather than one per resolver.

One fidelity note on LOOKUP-NAME: the paper states that omitted
attributes correspond to wild-cards for both queries and advertisements.
When a query av-pair is a leaf but the matched value-node is not (the
advertisement is more specific than the query), we therefore intersect
with all records in the value-node's *subtree*; Figure 5's prose says
"the name-records of Tv", and Figure 4's caption says value-nodes point
to all records they correspond to, which is the same set.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..naming import AVPair, NameSpecifier, classify_value
from .nodes import AttributeNode, ValueNode
from .record import AnnouncerID, NameRecord

#: A shared always-empty cursor. The iterative LOOKUP-NAME assigns it to
#: a frame whose candidate set just became empty, which ends that
#: frame's pair loop without a per-pair emptiness test.
_EXHAUSTED: Iterator[AVPair] = iter(())


@dataclass(frozen=True)
class InsertOutcome:
    """What an insert did, for the discovery protocol's benefit.

    ``created`` — the announcer was previously unknown here.
    ``changed`` — the record carries new information (new name, new
    endpoints, better metric, ...) and must trigger an update to
    neighbor INRs; a pure periodic refresh leaves it False.
    """

    record: NameRecord
    created: bool
    changed: bool


class NameTree:
    """A per-virtual-space superposition of name-specifiers."""

    def __init__(
        self,
        vspace: str = "default",
        search: str = "hash",
        index_subtrees: bool = False,
        memoize: bool = True,
        memo_capacity: int = 1024,
    ) -> None:
        """``search`` selects how attribute/value children are found:
        ``"hash"`` (the implementation the paper measures) or
        ``"linear"`` (the strawman in the Section 5.1.1 analysis, kept
        for the ablation benchmark). ``index_subtrees`` additionally
        maintains per-value-node record aggregates so wild-card unions
        cost O(result) instead of O(subtree) — an optimization ablation
        beyond the paper. ``memoize`` enables the LOOKUP-NAME memo: a
        bounded LRU of ``lookup()`` result sets keyed by the query's
        canonical key, invalidated wholesale whenever the tree's record
        *set* changes (pure refreshes keep it warm).
        """
        if search not in ("hash", "linear"):
            raise ValueError(f"unknown search strategy: {search!r}")
        if memo_capacity <= 0:
            raise ValueError("memo_capacity must be positive")
        self.vspace = vspace
        self._linear = search == "linear"
        self._root = ValueNode(value=None, parent=None, indexed=index_subtrees)
        self._by_announcer: Dict[AnnouncerID, NameRecord] = {}
        # LOOKUP-NAME memo. The epoch counter advances only on
        # membership changes (graft, remove, expire); the memo is
        # flushed lazily at the next lookup that observes a newer
        # epoch, so a burst of mutations costs one flush, not many.
        self._memoize = memoize
        self._memo: "OrderedDict[tuple, FrozenSet[NameRecord]]" = OrderedDict()
        self._memo_capacity = memo_capacity
        self._memo_epoch = 0
        self._epoch = 0
        # Batch-epoch state: while a batch is open, membership changes
        # set the dirty flag instead of advancing the epoch; the
        # outermost end_batch() commits one advance for the whole group.
        self._batch_depth = 0
        self._batch_dirty = False
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0

    @property
    def epoch(self) -> int:
        """Mutation counter: advances only when the record set changes.

        Inside an open batch the counter is deferred; reads mid-batch
        see the last committed value (lookups commit it themselves so
        they never serve stale results).
        """
        return self._epoch

    # ------------------------------------------------------------------
    # Batched mutation epochs
    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """Open a batch: membership changes until :meth:`end_batch`
        advance the epoch once, together, not once each.

        Nests; only the outermost close commits. Use :meth:`batch` for
        the context-manager form.
        """
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Close a batch, committing one epoch advance if anything
        inside it changed tree membership."""
        if self._batch_depth == 0:
            raise RuntimeError("end_batch() without begin_batch()")
        self._batch_depth -= 1
        if self._batch_depth == 0 and self._batch_dirty:
            self._batch_dirty = False
            self._epoch += 1

    @contextmanager
    def batch(self):
        """Context manager wrapping :meth:`begin_batch`/:meth:`end_batch`."""
        self.begin_batch()
        try:
            yield self
        finally:
            self.end_batch()

    def _bump_epoch(self) -> None:
        if self._batch_depth:
            self._batch_dirty = True
        else:
            self._epoch += 1

    # ------------------------------------------------------------------
    # Child search (hash vs linear, for the Section 5.1.1 ablation)
    # ------------------------------------------------------------------
    def _find_attribute(self, node: ValueNode, attribute: str) -> Optional[AttributeNode]:
        if self._linear:
            for candidate, child in node.children.items():
                if candidate == attribute:
                    return child
            return None
        return node.children.get(attribute)

    def _find_value(self, node: AttributeNode, value: str) -> Optional[ValueNode]:
        if self._linear:
            for candidate, child in node.children.items():
                if candidate == value:
                    return child
            return None
        return node.children.get(value)

    # ------------------------------------------------------------------
    # Grafting and removal
    # ------------------------------------------------------------------
    def insert(self, name: NameSpecifier, record: NameRecord) -> InsertOutcome:
        """Graft ``name`` and attach ``record`` at its leaf value-nodes.

        If this announcer is already known the existing record is
        updated in place (a refresh), re-grafting only when the name
        itself changed (service mobility, Section 3.2). Advertisements
        must be concrete: wild-cards and ranges are query-only.

        Refreshes take a fast path: the advertised name's canonical key
        is stored on the record at graft time, so detecting "same name
        again" is a key comparison, not a GET-NAME reconstruction — and
        an equal key proves the name is the one already validated as
        concrete at graft time, so the validation walk is skipped too.
        A pure refresh leaves the tree epoch (and therefore the lookup
        memo) untouched. It adopts a read-only incoming name whose wire
        text equals the memoized GET-NAME result's (see the module
        docstring), so neighbors converge on one shared copy.
        """
        key = name.canonical_key()
        existing = self._by_announcer.get(record.announcer)
        if existing is not None and existing.advertised_key == key:
            memo = existing.advertised_name
            if (
                memo is not None
                and memo is not name
                and name.frozen
                and memo.to_wire() == name.to_wire()
            ):
                existing.advertised_name = name
                existing.advertised_key = key
            record.vspace = self.vspace
            changed = not existing.same_payload(record)
            existing.endpoints = list(record.endpoints)
            existing.anycast_metric = record.anycast_metric
            existing.route = record.route
            existing.expires_at = record.expires_at
            return InsertOutcome(existing, created=False, changed=changed)
        name.require_concrete()
        if name.is_empty:
            raise ValueError("cannot advertise an empty name-specifier")
        record.vspace = self.vspace
        if existing is not None:
            self.remove(existing)
            self._graft(name, record, key)
            return InsertOutcome(record, created=False, changed=True)
        self._graft(name, record, key)
        return InsertOutcome(record, created=True, changed=True)

    def _graft(self, name: NameSpecifier, record: NameRecord, key: tuple) -> None:
        record.attachments = []
        record.advertised_key = key
        # A read-only name is what GET-NAME would rebuild from this
        # graft (see the module docstring): adopt it as the memo.
        record.advertised_name = name if name.frozen else None
        for pair in name.roots:
            self._graft_pair(self._root, pair, record)
        self._by_announcer[record.announcer] = record
        self._bump_epoch()

    def _graft_pair(self, value_node: ValueNode, pair: AVPair, record: NameRecord) -> None:
        # Explicit stack, pushed in reverse child order so leaves attach
        # in exactly the pre-order the recursive formulation produced
        # (attachment order feeds GET-NAME reconstruction order, which
        # feeds update wire bytes: it must stay deterministic).
        stack: List[Tuple[ValueNode, AVPair]] = [(value_node, pair)]
        while stack:
            parent_value, pair = stack.pop()
            attribute_node = parent_value.ensure_child(pair.attribute)
            child_value = attribute_node.ensure_child(pair.value)
            children = pair._children
            if not children:
                child_value.records.add(record)
                record.attachments.append(child_value)
                self._adjust_aggregates(child_value, record, +1)
            else:
                for child_pair in list(children.values())[::-1]:
                    stack.append((child_value, child_pair))

    @staticmethod
    def _adjust_aggregates(leaf: ValueNode, record: NameRecord, delta: int) -> None:
        """Maintain the optional subtree indexes along one leaf's
        ancestor chain (counting attachments, since one record may hang
        from several leaves under a shared ancestor)."""
        node: Optional[ValueNode] = leaf
        while node is not None:
            if node.aggregate is None:
                return
            count = node.aggregate.get(record, 0) + delta
            if count <= 0:
                node.aggregate.pop(record, None)
            else:
                node.aggregate[record] = count
            attribute_node = node.parent
            node = attribute_node.parent if attribute_node is not None else None

    def remove(self, record: NameRecord) -> bool:
        """Detach ``record`` and prune branches it alone kept alive.

        Returns False when the record is not in this tree.
        """
        stored = self._by_announcer.get(record.announcer)
        if stored is not record:
            return False
        del self._by_announcer[record.announcer]
        for value_node in record.attachments:
            value_node.records.discard(record)
            self._adjust_aggregates(value_node, record, -1)
            value_node.prune_upwards()
        record.attachments = []
        record.advertised_key = None
        record.advertised_name = None
        self._bump_epoch()
        return True

    def remove_announcer(self, announcer: AnnouncerID) -> Optional[NameRecord]:
        """Remove and return the record for ``announcer``, if present."""
        record = self._by_announcer.get(announcer)
        if record is not None:
            self.remove(record)
        return record

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def expire(self, now: float, grace: float = 0.0) -> List[NameRecord]:
        """Remove every record whose lifetime elapsed; returns them.

        ``grace`` retains an expired record for that many extra seconds
        before collection. A graced record is a tombstone with memory:
        it never satisfies routing or queries (``is_expired`` still
        holds), but a refresh arriving inside the window re-admits the
        name as a fast-path update instead of a from-scratch rebuild —
        the partition-tolerant soft-state behavior.

        A sweep that collects several records advances the epoch once
        (it is one membership change from the memo's point of view).
        """
        expired = [
            record
            for record in self._by_announcer.values()
            if now - grace >= record.expires_at
        ]
        if expired:
            self.begin_batch()
            try:
                for record in expired:
                    self.remove(record)
            finally:
                self.end_batch()
        return expired

    def next_expiry(self) -> Optional[float]:
        """Earliest expiration time among live records, or None."""
        if not self._by_announcer:
            return None
        return min(record.expires_at for record in self._by_announcer.values())

    # ------------------------------------------------------------------
    # LOOKUP-NAME (Figure 5)
    # ------------------------------------------------------------------
    def lookup(self, name: NameSpecifier) -> Set[NameRecord]:
        """All name-records whose advertisements satisfy ``name``.

        With memoization on (the default), a repeated query against an
        unchanged record set is answered from a bounded LRU memo keyed
        by the query's canonical key. Records are shared objects, so
        in-place refreshes (endpoints, metrics, expiry) are visible
        through memoized results without any invalidation.

        A lookup inside an open batch commits the batch's pending epoch
        advance first, so it always observes the mutations made so far.
        """
        if self._batch_dirty:
            self._batch_dirty = False
            self._epoch += 1
        if not self._memoize:
            return set(self._lookup(self._root, name._roots.values()))
        if self._memo_epoch != self._epoch:
            if self._memo:
                self._memo.clear()
                self.memo_invalidations += 1
            self._memo_epoch = self._epoch
        key = name.canonical_key()
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(key)
            return set(cached)
        self.memo_misses += 1
        result = self._lookup(self._root, name._roots.values())
        if len(self._memo) >= self._memo_capacity:
            self._memo.popitem(last=False)
        if result.__class__ is frozenset:
            self._memo[key] = result
            return set(result)
        # ``result`` is a plain set: either one _lookup built (safe to
        # hand out) or a leaf value-node's aliased records set (not
        # safe). Memoize a frozen copy and return an owned copy rather
        # than distinguishing the two.
        self._memo[key] = frozen = frozenset(result)
        return set(frozen)

    def wildcard_scan_cost(self, attribute: str) -> int:
        """Nodes LOOKUP-NAME's wild-card branch must walk to union
        every subtree under ``attribute``'s values when the incremental
        index is off — the analytic cost the ``subtree_index`` ablation
        reports (0 with the index: every union is a dictionary copy).
        Counting instead of timing keeps the metric deterministic and
        the lookup hot path uninstrumented.
        """
        attribute_node = self._root.children.get(attribute)
        if attribute_node is None:
            return 0
        return sum(
            value_node.subtree_scan_cost()
            for value_node in attribute_node.children.values()
        )

    _EMPTY: FrozenSet[NameRecord] = frozenset()

    def _lookup(self, tree_node: ValueNode, pairs):
        """Figure 5, iteratively: an explicit stack of frames replaces
        recursion (a frame per query level), and subtree record sets
        come from the epoch-keyed frozenset caches on value-nodes.

        Candidate sets are never mutated in place, so the cached
        frozensets flow through intersections unchanged and the common
        single-constraint case costs zero copies. The returned set may
        therefore BE one of those shared frozensets — ``lookup`` copies
        before exposing a result the caller can own.

        ``None`` candidates stand for the universal set so we never
        materialize "all possible name-records" just to intersect it
        away.
        """
        if self._linear:
            return self._lookup_linear(tree_node, pairs)
        epoch = self._epoch
        empty = self._EMPTY
        # Frame: [value_node, pair iterator, candidates]. The iterator
        # doubles as the resume cursor after a child frame returns; a
        # finished frame's result is merged straight into its parent's
        # candidates slot when it pops. Early exit on an empty
        # intersection happens where the emptiness arises — including
        # exhausting the parent's iterator from the pop-merge — so the
        # per-pair loop carries no emptiness re-check.
        frames: List[list] = [[tree_node, iter(pairs), None]]
        push = frames.append
        while True:
            frame = frames[-1]
            node = frame[0]
            pending = frame[1]
            candidates = frame[2]
            descend = False
            for pair in pending:
                attribute_node = node.children.get(pair.attribute)
                if attribute_node is None:
                    # No advertisement classifies this attribute here,
                    # so every one of them omitted it: no constraint
                    # (omitted attributes are wild-cards).
                    continue
                value = pair.value
                if value != "*" and (not value or value[0] not in "<>"):
                    # Literal value: hash straight to the value-node,
                    # no matcher object.
                    value_node = attribute_node.children.get(value)
                    if value_node is None:
                        candidates = empty
                        break
                    children = pair._children
                    if not value_node.children or not children:
                        # Query leaf or tree leaf: intersect with the
                        # value-node's whole subtree (omitted attributes
                        # are wild-cards).
                        if value_node._sub_epoch == epoch:
                            subtree = value_node._sub_fs
                        else:
                            subtree = value_node.subtree_frozen(epoch)
                        if candidates is None:
                            candidates = subtree
                        else:
                            candidates = candidates & subtree
                            if not candidates:
                                break
                    else:
                        frame[2] = candidates
                        push([value_node, iter(children.values()), None])
                        descend = True
                        break
                else:
                    # Wild-card or range: union the subtrees of every
                    # matching value. Av-pairs below a wild-card are
                    # ignored, exactly as the paper specifies.
                    matches = classify_value(value).matches
                    selected: Set[NameRecord] = set()
                    for advertised, value_node in attribute_node.children.items():
                        if matches(advertised):
                            if value_node._sub_epoch == epoch:
                                selected |= value_node._sub_fs
                            else:
                                selected |= value_node.subtree_frozen(epoch)
                    if candidates is None:
                        candidates = selected
                    else:
                        candidates = candidates & selected
                        if not candidates:
                            break
            if descend:
                continue
            if candidates is None:
                # No constraint applied at this level: everything below
                # (and at) this node matches.
                if node._sub_epoch == epoch:
                    returned = node._sub_fs
                else:
                    returned = node.subtree_frozen(epoch)
            else:
                records = node.records
                if records:
                    returned = candidates | records
                else:
                    returned = candidates
            frames.pop()
            if not frames:
                return returned
            parent = frames[-1]
            parent_candidates = parent[2]
            if parent_candidates is not None:
                returned = parent_candidates & returned
            parent[2] = returned
            if not returned:
                # Intersection can only stay empty: skip the parent's
                # remaining pairs by exhausting its cursor.
                parent[1] = _EXHAUSTED

    def _lookup_linear(self, tree_node: ValueNode, pairs):
        """The ``search="linear"`` ablation: the same iterative Figure 5
        as :meth:`_lookup`, with dict scans in place of hash descent
        (the Section 5.1.1 strawman). Not a hot path."""
        epoch = self._epoch
        empty = self._EMPTY
        frames: List[list] = [[tree_node, iter(pairs), None]]
        push = frames.append
        while True:
            frame = frames[-1]
            node = frame[0]
            pending = frame[1]
            candidates = frame[2]
            descend = False
            for pair in pending:
                if candidates is not None and not candidates:
                    break  # early exit: intersection can only stay empty
                attribute_node = None
                for attribute, child in node.children.items():
                    if attribute == pair.attribute:
                        attribute_node = child
                        break
                if attribute_node is None:
                    continue
                value = pair.value
                if value != "*" and (not value or value[0] not in "<>"):
                    value_node = None
                    for candidate, child in attribute_node.children.items():
                        if candidate == value:
                            value_node = child
                            break
                    if value_node is None:
                        candidates = empty
                        continue
                    children = pair._children
                    if not value_node.children or not children:
                        subtree = value_node.subtree_frozen(epoch)
                        if candidates is None:
                            candidates = subtree
                        else:
                            candidates = candidates & subtree
                    else:
                        frame[2] = candidates
                        push([value_node, iter(children.values()), None])
                        descend = True
                        break
                else:
                    matches = classify_value(value).matches
                    selected: Set[NameRecord] = set()
                    for advertised, value_node in attribute_node.children.items():
                        if matches(advertised):
                            selected |= value_node.subtree_frozen(epoch)
                    if candidates is None:
                        candidates = selected
                    else:
                        candidates = candidates & selected
            if descend:
                continue
            if candidates is None:
                returned = node.subtree_frozen(epoch)
            else:
                records = node.records
                returned = candidates | records if records else candidates
            frames.pop()
            if not frames:
                return returned
            parent = frames[-1]
            parent_candidates = parent[2]
            if parent_candidates is None:
                parent[2] = returned
            else:
                parent[2] = parent_candidates & returned

    # ------------------------------------------------------------------
    # GET-NAME (Figure 6)
    # ------------------------------------------------------------------
    def get_name(self, record: NameRecord) -> NameSpecifier:
        """The name-specifier advertised for ``record``, read-only.

        Runs GET-NAME at most once per graft: the result is memoized on
        the record until it is grafted again or removed, and frozen
        because every caller shares it (``copy()`` it to edit).
        """
        name = record.advertised_name
        if name is None:
            name = record.advertised_name = self._reconstruct(record).freeze()
        return name

    def _reconstruct(self, record: NameRecord) -> NameSpecifier:
        """GET-NAME: traces upward from each of the record's leaf
        value-nodes, grafting reconstructed fragments onto av-pairs
        already rebuilt (tracked through the transient PTR variable on
        value-nodes).
        """
        name = NameSpecifier()
        touched: List[ValueNode] = [self._root]
        self._root.ptr = name
        try:
            for value_node in record.attachments:
                self._trace(value_node, None, touched)
        finally:
            for node in touched:
                node.ptr = None
        return name

    def _trace(
        self,
        value_node: ValueNode,
        fragment: Optional[AVPair],
        touched: List[ValueNode],
    ) -> None:
        # Iterative upward walk: the chain is as long as the name is
        # deep, and deep names must reconstruct without recursion.
        while value_node.ptr is None:
            assert value_node.parent is not None, "root always has a PTR"
            pair = AVPair(value_node.parent.attribute, value_node.value)
            value_node.ptr = pair
            touched.append(value_node)
            if fragment is not None:
                pair.add_child(fragment)
            fragment = pair
            value_node = value_node.parent.parent
        # Something to graft onto: attach the fragment and stop.
        if fragment is not None:
            self._graft_fragment(value_node, fragment)

    @staticmethod
    def _graft_fragment(value_node: ValueNode, fragment: AVPair) -> None:
        if value_node.is_root:
            value_node.ptr.add_pair(fragment)
        else:
            value_node.ptr.add_child(fragment)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def record_for(self, announcer: AnnouncerID) -> Optional[NameRecord]:
        """The live record announced by ``announcer``, or None."""
        return self._by_announcer.get(announcer)

    def records(self) -> Iterator[NameRecord]:
        """All live records, in no particular order."""
        return iter(list(self._by_announcer.values()))

    def names(self) -> Iterator[Tuple[NameSpecifier, NameRecord]]:
        """All (name-specifier, record) pairs, reconstructed by GET-NAME
        (memoized per graft, read-only).

        This is exactly what the discovery protocol transmits in
        periodic updates (Section 2.3.3).
        """
        for record in list(self._by_announcer.values()):
            yield self.get_name(record), record

    def __len__(self) -> int:
        """Number of live name-records (distinct announcers)."""
        return len(self._by_announcer)

    def __contains__(self, announcer: AnnouncerID) -> bool:
        return announcer in self._by_announcer

    def node_counts(self) -> Tuple[int, int]:
        """(attribute-node count, value-node count), excluding the root."""
        attributes = 0
        values = 0
        stack = [self._root]
        while stack:
            value_node = stack.pop()
            for attribute_node in value_node.children.values():
                attributes += 1
                for child in attribute_node.children.values():
                    values += 1
                    stack.append(child)
        return attributes, values

    @property
    def root(self) -> ValueNode:
        """The root value-node (read-only use: sizing, visualization)."""
        return self._root

    def __repr__(self) -> str:
        attributes, values = self.node_counts()
        return (
            f"NameTree(vspace={self.vspace!r}, records={len(self)}, "
            f"attribute_nodes={attributes}, value_nodes={values})"
        )
