"""The Intentional Name Resolver (Sections 2, 2.2-2.5).

An INR integrates name resolution with message routing. It keeps one
name-tree per virtual space it routes, discovers names through
soft-state periodic and triggered updates exchanged with its overlay
neighbors, answers early-binding and discovery queries, and forwards
late-binding data messages by intentional anycast or multicast.

Self-configuration (Section 2.4): a starting INR asks the DSR for the
active list, INR-pings each active resolver, and peers with the one
with the minimum round-trip metric — by construction the overlay is a
spanning tree. Load balancing (Section 2.5): an INR that is
lookup-overloaded spawns a helper on a candidate node; one that is
update-overloaded delegates a virtual space to a freshly spawned INR.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dtn import (
    PRIORITY_KNOWN_NAME,
    PRIORITY_UNKNOWN_NAME,
    CustodyEntry,
    CustodyStore,
)
from ..message import (
    Binding,
    CustodyRecord,
    CustodyTransfer,
    DelegateAbort,
    DelegateAccept,
    DelegateCommit,
    DelegateOffer,
    DelegateTransfer,
    Delivery,
    InsMessage,
)
from ..naming import NameSpecifier
from ..nametree import Endpoint, NameRecord, NameTree, Route
from ..netsim import Node, Process
from ..obs import DROP_PREFIX, STATUS_OK
from ..message.dsr import (
    DsrClaimCandidate,
    DsrClaimResponse,
    DsrDeregister,
    DsrHeartbeat,
    DsrListRequest,
    DsrListResponse,
    DsrRegisterActive,
    DsrRegisterCandidate,
    DsrVspaceRequest,
    DsrVspaceResponse,
)
from .cache import PacketCache
from .config import InrConfig
from .costs import DEFAULT_COSTS, CostModel
from .delegation import DelegationCoordinator
from .loadbalance import LoadMonitor
from .neighbors import NeighborTable
from .ports import DSR_PORT, INR_PORT
from .protocol import (
    Advertisement,
    DataPacket,
    DiscoveryRequest,
    DiscoveryResponse,
    NameUpdate,
    NameWithdraw,
    PeerAccept,
    PeerGoodbye,
    PeerRequest,
    PingRequest,
    PingResponse,
    Pushback,
    ResolutionRequest,
    ResolutionResponse,
    UpdateBatch,
)
from .reliable import ReliableAck, ReliableChannel, ReliableFrame

#: The probe name INR-pings carry: small, as the paper describes.
_PING_PROBE = NameSpecifier.from_dict({"service": "inr-ping"})


@dataclass
class InrStats:
    """Operation counters exposed for experiments and tests.

    Packet drops are kept per cause so chaos runs can attribute loss:
    a burst of ``drops_no_route`` during a crash means routes were
    flushed before refreshes re-installed them, while
    ``drops_expired_record`` means soft state aged out faster than the
    service refreshed. ``packets_dropped`` stays available as the sum.
    """

    lookups: int = 0
    update_names_processed: int = 0
    advertisements_processed: int = 0
    packets_delivered_locally: int = 0
    packets_forwarded: int = 0
    packets_forwarded_foreign_vspace: int = 0
    packets_answered_from_cache: int = 0
    triggered_updates_sent: int = 0
    periodic_updates_sent: int = 0
    queries_served: int = 0
    #: no record matched the destination name
    drops_no_route: int = 0
    #: records matched but every one had outlived its soft-state lifetime
    drops_expired_record: int = 0
    #: foreign-vspace payload with no DSR or no resolver for the vspace
    drops_foreign_vspace: int = 0
    #: packet reached a crashed/terminated resolver process
    drops_terminated: int = 0
    #: unparsable packet, or early binding without a source name
    drops_malformed: int = 0
    #: matched record carried no endpoints to deliver to
    drops_no_endpoint: int = 0
    #: hop limit reached zero before delivery
    drops_hop_limit: int = 0
    #: payload type no dispatch arm recognizes (wire-format skew or a
    #: message class added without a handler)
    drops_unknown_message: int = 0

    #: --- LOOKUP-NAME memo (resolution fast path) ---------------------
    #: Aggregated over every name-tree this INR routes plus the packet
    #: cache's index tree; refreshed after each lookup-serving path.
    lookup_memo_hits: int = 0
    lookup_memo_misses: int = 0
    lookup_memo_invalidations: int = 0

    #: --- Admission control (overload shedding) -----------------------
    #: periodic refreshes (non-triggered batches/ads) shed at the door
    shed_periodic: int = 0
    #: triggered updates/withdrawals shed under heavier backlog
    shed_triggered: int = 0
    #: client requests answered with an explicit Pushback
    pushbacks_sent: int = 0

    #: --- Disruption tolerance (custody store-and-forward) ------------
    #: payloads taken into custody instead of being dropped
    custody_accepted: int = 0
    #: payloads released back into forwarding when a route returned
    custody_released: int = 0
    #: CUSTODY-TRANSFER handoffs sent (terminating-INR migration)
    custody_transfers_sent: int = 0
    #: CUSTODY-TRANSFER handoffs received
    custody_transfers_received: int = 0
    #: expired records re-admitted by a refresh inside the partition
    #: grace window (the soft-state fast path after a heal)
    expiry_grace_readmissions: int = 0
    #: custody lapsed: the payload's TTL deadline passed unresolved
    drops_custody_expired: int = 0
    #: custody pushed out by capacity pressure or refused at the door
    drops_custody_evicted: int = 0
    #: custody handoff with no surviving recipient, or the payloads
    #: arrived at a resolver that runs no custody store
    drops_custody_transfer_failed: int = 0

    #: --- Crash-safe vspace delegation (two-phase handoff) ------------
    #: handoffs this resolver initiated as donor
    delegations_started: int = 0
    #: handoffs that committed (donor side: the vspace left)
    delegations_committed: int = 0
    #: handoffs the donor aborted (timeout, crash, termination)
    delegations_aborted: int = 0
    #: vspaces this resolver adopted as recipient
    delegations_adopted: int = 0
    #: adoptions rolled back by an abort-after-commit (donor crashed
    #: before finalizing; abort wins)
    delegation_rollbacks: int = 0
    #: name-records sent in DELEGATE-TRANSFER chunks
    delegate_records_sent: int = 0
    #: name-records received in DELEGATE-TRANSFER chunks
    delegate_records_received: int = 0
    #: fenced delegation frames (stale retransmissions) dropped —
    #: control-plane drops, deliberately not in ``packets_dropped``
    delegate_stale_dropped: int = 0

    @property
    def packets_dropped(self) -> int:
        """Total packets dropped, across every cause."""
        return (
            self.drops_no_route
            + self.drops_expired_record
            + self.drops_foreign_vspace
            + self.drops_terminated
            + self.drops_malformed
            + self.drops_no_endpoint
            + self.drops_hop_limit
            + self.drops_unknown_message
            + self.drops_custody_expired
            + self.drops_custody_evicted
            + self.drops_custody_transfer_failed
        )

    def drops_by_cause(self) -> Dict[str, int]:
        """Nonzero drop counters keyed by cause name."""
        causes = {
            "no-route": self.drops_no_route,
            "expired-record": self.drops_expired_record,
            "foreign-vspace": self.drops_foreign_vspace,
            "terminated": self.drops_terminated,
            "malformed": self.drops_malformed,
            "no-endpoint": self.drops_no_endpoint,
            "hop-limit": self.drops_hop_limit,
            "unknown-message": self.drops_unknown_message,
            "custody-expired": self.drops_custody_expired,
            "custody-evicted": self.drops_custody_evicted,
            "custody-transfer-failed": self.drops_custody_transfer_failed,
        }
        return {cause: count for cause, count in causes.items() if count}

    def snapshot(self) -> Dict[str, object]:
        """Every counter in declaration order, plus the derived sum and
        the per-cause drop breakdown — the uniform shape the metrics
        registry ingests and artifacts embed."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["packets_dropped"] = self.packets_dropped
        out["drops_by_cause"] = self.drops_by_cause()
        return out


@dataclass
class _PendingPing:
    address: str
    sent_at: float
    purpose: str


class INR(Process):
    """One Intentional Name Resolver process.

    ``spawner`` is the hook through which load balancing creates a new
    INR on a candidate node: ``spawner(candidate_address, vspaces)``
    must instantiate and start an INR there. Experiments provide it; if
    absent, spawn/delegate decisions are skipped.
    """

    def __init__(
        self,
        node: Node,
        dsr_address: Optional[str] = None,
        vspaces: Tuple[str, ...] = ("default",),
        config: Optional[InrConfig] = None,
        costs: Optional[CostModel] = None,
        spawner: Optional[Callable[[str, Tuple[str, ...]], "INR"]] = None,
        was_spawned: bool = False,
    ) -> None:
        super().__init__(node, INR_PORT)
        self.config = config or InrConfig()
        self.costs = costs or DEFAULT_COSTS
        self.dsr_address = dsr_address
        self.spawner = spawner
        self.was_spawned = was_spawned
        #: the vspaces this resolver was configured with; a restart after
        #: a crash comes back routing these (delegations are forgotten).
        self._initial_vspaces: Tuple[str, ...] = tuple(vspaces)
        #: how many times this resolver was restarted after a crash
        self.restarts = 0
        self.trees: Dict[str, NameTree] = {v: NameTree(vspace=v) for v in vspaces}
        self.neighbors = NeighborTable()
        self.monitor = LoadMonitor(ewma_alpha=self.config.load_ewma_alpha)
        self.stats = InrStats()
        #: Two-phase vspace handoff state machines (PROTOCOL.md §11).
        self.delegation = DelegationCoordinator(self)
        #: Finalized delegation facts preserved across a crash, like
        #: the custody snapshot (re-adopted in restart()).
        self._delegation_snapshot: tuple = ()
        # Load-hysteresis state (defaults make it transparent).
        self._last_load_action = float("-inf")
        self._overload_lookup_streak = 0
        self._overload_update_streak = 0
        self._underload_streak = 0
        #: Observability hook: a ``repro.obs.Tracer`` when the domain is
        #: being observed, None otherwise. Every instrumentation site
        #: guards on it so tracing costs nothing when off.
        self.tracer = None
        self.cache = (
            PacketCache(self.config.packet_cache_size)
            if self.config.packet_cache_size > 0
            else None
        )
        #: Disruption tolerance: the custody store, when enabled.
        self.custody: Optional[CustodyStore] = (
            CustodyStore(self.config.custody_capacity)
            if self.config.enable_custody
            else None
        )
        #: Custody is stable storage — a crash snapshot survives the
        #: process and is re-adopted on restart (DSR snapshot pattern).
        self._custody_snapshot: tuple = ()
        self.active = False
        self._started_at = 0.0
        self._terminated = False
        # Bootstrap / ping state
        self._pending_pings: Dict[int, _PendingPing] = {}
        self._join_rtts: Dict[str, float] = {}
        self._join_attempts = 0
        self._joining = False
        self._earlier_inrs: Tuple[str, ...] = ()
        # vspace -> resolver cache plus payloads parked on a DSR answer
        self._vspace_cache: Dict[str, str] = {}
        self._vspace_waiting: Dict[str, List[object]] = {}
        self._spawn_pending = False
        self._termination_votes: Optional[Dict[str, Optional[bool]]] = None
        self._pending_peer: Optional[str] = None
        self._peer_attempts = 0
        if self.config.update_mode not in ("soft-state", "reliable-delta"):
            raise ValueError(
                f"unknown update mode: {self.config.update_mode!r}"
            )
        self._reliable: Optional[ReliableChannel] = None
        if self.config.update_mode == "reliable-delta":
            self._reliable = ReliableChannel(
                transmit=lambda neighbor, payload: self.send(
                    neighbor, INR_PORT, payload
                ),
                deliver=self._deliver_reliable,
                set_timer=self.set_timer,
                retransmit_timeout=self.config.reliable_retransmit_timeout,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the overlay and begin periodic protocol activity."""
        self._started_at = self.now
        jitter = self.config.timer_jitter
        self.every(self.config.refresh_interval, self._send_periodic_updates, jitter)
        self.every(self.config.expiry_sweep_interval, self._sweep, jitter)
        if self.custody is not None:
            self.every(
                self.config.custody_retry_interval, self._custody_tick, jitter
            )
        if self.dsr_address is not None:
            self.every(self.config.heartbeat_interval, self._heartbeat, jitter)
            if self.config.enable_load_balancing:
                self.every(self.config.load_check_interval, self._check_load, jitter)
            if self.config.enable_relaxation:
                self.every(self.config.relaxation_interval, self._relax, jitter)
            self._begin_join()
        else:
            self.active = True

    def terminate(self) -> None:
        """Leave the overlay: tell peers and the DSR, then stop."""
        if self._terminated:
            return
        # A retiring donor must not leave its recipient staging chunks
        # that will never arrive: abort the in-flight handoff first
        # (the flag flips after, so the abort message still sends).
        self.delegation.shutdown()
        self._terminated = True
        if self.custody is not None and len(self.custody):
            # Held payloads must not die with their custodian: hand
            # them to a surviving neighbor before saying goodbye.
            self._custody_handoff()
        for neighbor in self.neighbors:
            self.send(neighbor.address, INR_PORT, PeerGoodbye(self.address))
        if self.dsr_address is not None:
            self.send(self.dsr_address, DSR_PORT, DsrDeregister(self.address))
            if self.was_spawned:
                # A retiring helper returns its node to the candidate
                # pool so a later overload can spawn onto it again.
                self.send(
                    self.dsr_address,
                    DSR_PORT,
                    DsrRegisterCandidate(self.address),
                )
        self.stop()

    def crash(self) -> None:
        """Fail silently: no goodbye, no deregistration (for fault
        injection). Peers and the DSR recover through soft state."""
        self._terminated = True
        if self.custody is not None:
            # Custody is stable storage: the payloads a custodian
            # accepted responsibility for survive its process and are
            # re-adopted when the operator restarts it.
            self._custody_snapshot = self.custody.snapshot()
        # Finalized delegation facts are stable storage too: which
        # vspaces left and which were adopted survive the process.
        # In-flight handoffs do NOT — the protocol aborts them.
        self._delegation_snapshot = self.delegation.crash_snapshot()
        self.stop()

    def restart(self) -> None:
        """Come back up on the same node after a crash.

        Models the operator restarting a resolver process on a host
        that rebooted: all in-memory state is gone. The restarted INR
        re-registers with the DSR, rejoins the overlay as if starting
        fresh, and rebuilds its name-trees from the periodic service
        advertisements and neighbor updates that soft state keeps
        flowing (Section 2.2) — no recovery protocol is needed.
        """
        if not self._terminated:
            raise RuntimeError("restart() is only valid after crash() or terminate()")
        if self.node.process_on(self.port) is not None:
            raise RuntimeError(
                f"port {self.port} on {self.address} was taken while this INR was down"
            )
        self._terminated = False
        self.active = False
        self.restarts += 1
        self.trees = {v: NameTree(vspace=v) for v in self._initial_vspaces}
        self.neighbors = NeighborTable()
        # The monitor's window starts NOW, not at t=0: a default-
        # constructed LoadMonitor would stretch the first post-restart
        # window back to the epoch, diluting (or faking) a load signal.
        self.monitor = LoadMonitor(
            now=self.now, ewma_alpha=self.config.load_ewma_alpha
        )
        self.stats = InrStats()
        self._last_load_action = float("-inf")
        self._overload_lookup_streak = 0
        self._overload_update_streak = 0
        self._underload_streak = 0
        # self.tracer survives a restart on purpose: the collector
        # observing the run outlives any one process incarnation.
        self.cache = (
            PacketCache(self.config.packet_cache_size)
            if self.config.packet_cache_size > 0
            else None
        )
        self.custody = (
            CustodyStore(self.config.custody_capacity)
            if self.config.enable_custody
            else None
        )
        self._pending_pings = {}
        self._join_rtts = {}
        self._join_attempts = 0
        self._joining = False
        self._earlier_inrs = ()
        self._vspace_cache = {}
        self._vspace_waiting = {}
        self._spawn_pending = False
        self._termination_votes = None
        self._pending_peer = None
        self._peer_attempts = 0
        if self._reliable is not None:
            # Fresh channel state: sequence numbers from a previous
            # incarnation must not be mistaken for the new one's.
            self._reliable = ReliableChannel(
                transmit=lambda neighbor, payload: self.send(
                    neighbor, INR_PORT, payload
                ),
                deliver=self._deliver_reliable,
                set_timer=self.set_timer,
                retransmit_timeout=self.config.reliable_retransmit_timeout,
            )
        # Fresh handoff state machines (in-flight handoffs died with the
        # process), then re-apply the finalized facts: delegated-away
        # vspaces leave the rebuilt tree set again, adopted ones come
        # back as empty trees that soft state refills.
        self.delegation = DelegationCoordinator(self)
        self.delegation.adopt_snapshot(self._delegation_snapshot)
        self._delegation_snapshot = ()
        self.node.bind(self.port, self)
        if self.custody is not None and self._custody_snapshot:
            # Re-adopt the crash snapshot, preserving each payload's
            # absolute deadline; payloads that lapsed while the process
            # was down are attributed as custody-expired drops.
            before = self.custody.counts.accepted
            lapsed, evicted = self.custody.adopt(self._custody_snapshot, self.now)
            self._custody_snapshot = ()
            self.stats.custody_accepted += self.custody.counts.accepted - before
            for entry in lapsed:
                self._custody_drop(entry, "custody-expired")
            for entry in evicted:
                self._custody_drop(entry, "custody-evicted")
        self.start()

    @property
    def terminated(self) -> bool:
        """True after crash()/terminate() and before any restart()."""
        return self._terminated

    @property
    def vspaces(self) -> Tuple[str, ...]:
        return tuple(self.trees)

    def routes_vspace(self, vspace: str) -> bool:
        return vspace in self.trees

    def name_count(self, vspace: Optional[str] = None) -> int:
        """Live names in one vspace, or across all of them."""
        if vspace is not None:
            tree = self.trees.get(vspace)
            return len(tree) if tree is not None else 0
        return sum(len(tree) for tree in self.trees.values())

    # ------------------------------------------------------------------
    # CPU cost model hook
    # ------------------------------------------------------------------
    def processing_cost(self, payload: object, size_bytes: int) -> float:
        costs = self.costs
        if isinstance(payload, ReliableFrame):
            payload = payload.inner  # charge for the carried update
        if isinstance(payload, UpdateBatch):
            return costs.update_batch(len(payload.updates))
        if isinstance(payload, NameWithdraw):
            return costs.receive + costs.update_per_name
        if isinstance(payload, CustodyTransfer):
            return costs.receive + costs.update_per_name * len(payload.records)
        if isinstance(payload, DelegateTransfer):
            # A handoff chunk costs what installing its names costs.
            return costs.receive + costs.update_per_name * len(payload.records)
        if isinstance(payload, Advertisement):
            return costs.receive + costs.update_per_name
        if isinstance(payload, (ResolutionRequest, DiscoveryRequest)):
            return costs.query
        if isinstance(payload, PingRequest):
            return costs.ping
        return costs.receive

    def _work(self, cost: float, continuation: Callable[[], None]) -> None:
        """Charge ``cost`` CPU seconds, then run ``continuation``."""
        self.node.cpu.execute(cost, continuation)

    def _sync_memo_stats(self) -> None:
        """Mirror the per-tree LOOKUP-NAME memo counters into InrStats."""
        hits = misses = invalidations = 0
        trees = list(self.trees.values())
        if self.cache is not None:
            trees.append(self.cache.index)
        for tree in trees:
            hits += tree.memo_hits
            misses += tree.memo_misses
            invalidations += tree.memo_invalidations
        self.stats.lookup_memo_hits = hits
        self.stats.lookup_memo_misses = misses
        self.stats.lookup_memo_invalidations = invalidations

    # ------------------------------------------------------------------
    # Tracing hooks (repro.obs)
    # ------------------------------------------------------------------
    def _span_start(self, name: str, context, **tags):
        """Open a hop span joining ``context``'s trace.

        Returns None (and costs one attribute test) when the domain is
        untraced or the message carried no context — every span-taking
        path below accepts that None.
        """
        if self.tracer is None or context is None:
            return None
        return self.tracer.start_span(
            name, node=self.address, parent=context, tags=tags or None
        )

    def _span_end(self, span, status: str = STATUS_OK) -> None:
        if span is not None:
            self.tracer.end_span(span, status)

    def _span_note(self, span, text: str) -> None:
        if span is not None:
            self.tracer.annotate(span, text)

    # ------------------------------------------------------------------
    # Admission control (overload shedding)
    # ------------------------------------------------------------------
    def admit(self, payload: object, source: str) -> bool:
        """Bound the pending-work queue with priority shedding.

        Work already accepted sits in the node CPU's serial queue; its
        backlog (seconds of queued work) is the queue depth. Past the
        configured thresholds, arriving work is shed cheapest-loss
        first: periodic soft-state refreshes (they recur anyway), then
        triggered updates (the next refresh re-delivers the state), and
        only under the heaviest backlog client lookups — which are
        answered with an explicit :class:`Pushback` carrying a
        retry-after hint, so the client backs off instead of declaring
        the resolver dead.
        """
        config = self.config
        if not config.admission_control or self._terminated:
            return True
        backlog = self.node.cpu.backlog
        if backlog <= config.admission_shed_backlog:
            return True
        periodic = (
            isinstance(payload, UpdateBatch) and not payload.triggered
        ) or (isinstance(payload, Advertisement) and not payload.triggered)
        if periodic:
            self.stats.shed_periodic += 1
            return False
        if backlog <= config.admission_trigger_backlog:
            return True
        if isinstance(payload, (UpdateBatch, Advertisement, NameWithdraw)):
            self.stats.shed_triggered += 1
            return False
        if backlog <= config.admission_pushback_backlog:
            return True
        if isinstance(payload, (ResolutionRequest, DiscoveryRequest)):
            self.stats.pushbacks_sent += 1
            span = self._span_start("inr.pushback", payload.trace)
            self.send(
                payload.reply_to,
                payload.reply_port,
                Pushback(
                    request_id=payload.request_id,
                    responder=self.address,
                    retry_after=min(backlog, config.admission_retry_after_max),
                ),
            )
            self._span_end(span, "pushback")
            return False
        return True

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, payload: object, source: str) -> None:
        if self._terminated:
            if isinstance(payload, DataPacket):
                self.stats.drops_terminated += 1
                if self.tracer is not None:
                    try:
                        context = payload.message.trace
                    except ValueError:
                        context = None
                    self._span_end(
                        self._span_start("inr.hop", context),
                        DROP_PREFIX + "terminated",
                    )
            return
        self.neighbors.heard_from(source, self.now)
        if isinstance(payload, ReliableFrame):
            if self._reliable is not None:
                ack = self._reliable.on_frame(source, payload)
                if ack is not None:
                    self.send(source, INR_PORT, ack)
            return
        if isinstance(payload, ReliableAck):
            if self._reliable is not None:
                self._reliable.on_ack(source, payload)
            return
        if isinstance(payload, NameWithdraw):
            self._handle_withdraw(payload, source)
        elif isinstance(
            payload,
            (
                DelegateOffer,
                DelegateAccept,
                DelegateTransfer,
                DelegateCommit,
                DelegateAbort,
            ),
        ):
            self.delegation.on_message(payload, source)
        elif isinstance(payload, CustodyTransfer):
            self._handle_custody_transfer(payload)
        elif isinstance(payload, UpdateBatch):
            self._handle_update_batch(payload)
        elif isinstance(payload, Advertisement):
            self._handle_advertisement(payload, source)
        elif isinstance(payload, DataPacket):
            self._handle_data(payload, source)
        elif isinstance(payload, ResolutionRequest):
            self._handle_resolution(payload)
        elif isinstance(payload, DiscoveryRequest):
            self._handle_discovery(payload)
        elif isinstance(payload, PingRequest):
            self.send(
                payload.reply_to,
                payload.reply_port,
                PingResponse(token=payload.token, responder=self.address),
            )
        elif isinstance(payload, PingResponse):
            self._handle_ping_response(payload)
        elif isinstance(payload, PeerRequest):
            self._handle_peer_request(payload)
        elif isinstance(payload, PeerAccept):
            self.neighbors.heard_from(payload.accepter, self.now)
            if payload.accepter == self._pending_peer:
                self._pending_peer = None
        elif isinstance(payload, PeerGoodbye):
            self._drop_neighbor(payload.sender, rejoin=True)
        elif isinstance(payload, DsrListResponse):
            self._handle_dsr_list(payload)
        elif isinstance(payload, DsrVspaceResponse):
            self._handle_vspace_response(payload)
        elif isinstance(payload, DsrClaimResponse):
            self._handle_claim_response(payload)
        else:
            # Terminal arm: an unrecognized payload must be counted and
            # trace-attributed, not silently swallowed — this is how
            # wire-format skew between resolver versions surfaces.
            self.stats.drops_unknown_message += 1
            if self.tracer is not None:
                try:
                    context = getattr(payload, "trace", None)
                except ValueError:
                    context = None
                self._span_end(
                    self._span_start(
                        "inr.hop", context,
                        payload_type=type(payload).__name__,
                    ),
                    DROP_PREFIX + "unknown-message",
                )

    # ------------------------------------------------------------------
    # Overlay self-configuration (Section 2.4)
    # ------------------------------------------------------------------
    def _begin_join(self) -> None:
        self._joining = True
        self._join_rtts = {}
        self._join_attempts += 1
        self._join_epoch = getattr(self, "_join_epoch", 0) + 1
        self._join_list_seen = False
        self.send(
            self.dsr_address,
            DSR_PORT,
            DsrListRequest(reply_to=self.address, reply_port=self.port),
        )
        # Watchdog: on a lossy link the DSR's answer may never arrive;
        # a join attempt must not hang forever (robustness, goal iii).
        self.set_timer(2.0, self._join_watchdog, self._join_epoch)

    def _join_watchdog(self, epoch: int) -> None:
        if not self._joining or epoch != self._join_epoch:
            return
        if self._join_list_seen:
            return  # the per-ping timeout path is already in control
        if self._join_attempts < 5:
            self._begin_join()
        else:
            # Give up for now; the expiry sweep's lonely-overlay check
            # keeps retrying in the background.
            self._finish_join(peer=None)

    def _handle_dsr_list(self, response: DsrListResponse) -> None:
        if self._joining:
            self._join_list_seen = True
            others = tuple(a for a in response.active if a != self.address)
            if self.address in response.active:
                prefix = response.active[: response.active.index(self.address)]
                self._earlier_inrs = prefix
            else:
                self._earlier_inrs = others
            if not others:
                self._finish_join(peer=None)
                return
            for address in others:
                self._ping(address, purpose="join")
            self.set_timer(self.config.join_ping_timeout, self._pick_join_peer)
            return
        # A list response outside a join: relaxation probing.
        self._relax_with_list(response)

    def _pick_join_peer(self) -> None:
        if not self._joining:
            return
        if not self._join_rtts:
            if self._join_attempts < 3:
                self.set_timer(1.0, self._begin_join)
            else:
                # No resolver answered: proceed alone; soft state heals
                # the overlay when connectivity returns.
                self._finish_join(peer=None)
            return
        peer = min(self._join_rtts, key=lambda a: (self._join_rtts[a], a))
        self._finish_join(peer=peer, rtt=self._join_rtts[peer])

    def _finish_join(self, peer: Optional[str], rtt: float = 0.0) -> None:
        self._joining = False
        if peer is not None:
            self._join_attempts = 0
            self._request_peering(peer, rtt)
        self.active = True
        self._register()

    def _request_peering(self, peer: str, rtt: float) -> None:
        """Establish (or re-establish) the parent peering.

        The request is retried until the peer's accept arrives — on
        lossy wireless links a single lost datagram must not strand an
        INR outside the overlay (design goal iii, robustness).
        """
        self.neighbors.add(peer, rtt=rtt, is_parent=True)
        self._pending_peer = peer
        self._peer_attempts = 0
        self._send_peer_request(peer, rtt)

    def _send_peer_request(self, peer: str, rtt: float) -> None:
        if self._pending_peer != peer:
            return
        self._peer_attempts += 1
        if self._peer_attempts > 5:
            self._pending_peer = None
            self._begin_join()
            return
        self.send(peer, INR_PORT, PeerRequest(self.address, measured_rtt=rtt))
        self._send_full_table(peer)
        self.set_timer(1.0, self._send_peer_request, peer, rtt)

    def _register(self) -> None:
        if self.dsr_address is not None:
            self.send(
                self.dsr_address,
                DSR_PORT,
                DsrRegisterActive(self.address, self.vspaces),
            )

    def _heartbeat(self) -> None:
        if self.active:
            self.send(
                self.dsr_address,
                DSR_PORT,
                DsrHeartbeat(self.address, self.vspaces),
            )

    def _handle_peer_request(self, request: PeerRequest) -> None:
        self.neighbors.add(request.requester, rtt=request.measured_rtt)
        self.neighbors.heard_from(request.requester, self.now)
        if self._reliable is not None:
            # A peering (re-)request starts a fresh conversation: the
            # requester may be a restarted incarnation with no memory of
            # our sequence numbers. Reset so the full table below goes
            # out under a new epoch from sequence 1, which the peer can
            # always accept.
            self._reliable.reset(request.requester)
        self.send(request.requester, INR_PORT, PeerAccept(self.address))
        self._send_full_table(request.requester)

    def _drop_neighbor(self, address: str, rejoin: bool) -> None:
        neighbor = self.neighbors.remove(address)
        if neighbor is None:
            return
        self._flush_routes_via(address)
        if neighbor.is_parent and rejoin and self.dsr_address is not None:
            self._begin_join()

    def _flush_routes_via(self, address: str) -> None:
        """Remove records learned through a dead neighbor immediately.

        Soft state would expire them anyway; flushing now restores
        responsiveness, and periodic updates from live neighbors
        re-install any name still reachable another way. In
        reliable-delta mode there are no periodic re-floods, so the
        flush is also propagated as withdrawals downstream.
        """
        if self._reliable is not None:
            self._reliable.reset(address)
        for tree in self.trees.values():
            for record in list(tree.records()):
                if record.route.next_hop == address:
                    tree.remove(record)
                    if self._reliable is not None:
                        self._propagate_withdraw(
                            record.announcer, tree.vspace, exclude=address
                        )

    # ------------------------------------------------------------------
    # INR-pings
    # ------------------------------------------------------------------
    def _ping(self, address: str, purpose: str) -> None:
        request = PingRequest(
            probe=_PING_PROBE, reply_to=self.address, reply_port=self.port
        )
        self._pending_pings[request.token] = _PendingPing(
            address=address, sent_at=self.now, purpose=purpose
        )
        self.send(address, INR_PORT, request)

    def _handle_ping_response(self, response: PingResponse) -> None:
        pending = self._pending_pings.pop(response.token, None)
        if pending is None:
            return
        rtt = self.now - pending.sent_at
        if pending.purpose == "join":
            self._join_rtts[pending.address] = rtt
        elif pending.purpose == "parent-refresh":
            # Relaxation re-measures the parent link so a degraded path
            # is seen at its current cost, not its historical best.
            neighbor = self.neighbors.get(pending.address)
            if neighbor is not None:
                neighbor.observe_rtt(rtt)
            return
        elif pending.purpose == "relax":
            self._maybe_switch_parent(pending.address, rtt)
        neighbor = self.neighbors.get(pending.address)
        if neighbor is not None:
            neighbor.observe_rtt(rtt)

    # ------------------------------------------------------------------
    # Overlay relaxation (extension: Section 2.4 future work)
    # ------------------------------------------------------------------
    def _relax(self) -> None:
        parent = self.neighbors.parent
        if self.active and parent is not None:
            self._ping(parent.address, purpose="parent-refresh")
            self.send(
                self.dsr_address,
                DSR_PORT,
                DsrListRequest(reply_to=self.address, reply_port=self.port),
            )

    def _relax_with_list(self, response: DsrListResponse) -> None:
        if self.address in response.active:
            self._earlier_inrs = response.active[
                : response.active.index(self.address)
            ]
        parent = self.neighbors.parent
        if parent is None or not self._earlier_inrs:
            return
        candidates = [
            a
            for a in self._earlier_inrs
            if a != parent.address and a not in self.neighbors
        ]
        if not candidates:
            return
        probe = self.sim.rng.choice(candidates)
        self._ping(probe, purpose="relax")

    def _maybe_switch_parent(self, candidate: str, rtt: float) -> None:
        parent = self.neighbors.parent
        if parent is None or candidate == parent.address:
            return
        if rtt >= parent.rtt * self.config.relaxation_improvement:
            return
        # Better parent found: swap the tree edge. Only earlier-ordered
        # INRs are probed, so the topology remains acyclic.
        self.send(parent.address, INR_PORT, PeerGoodbye(self.address))
        self.neighbors.remove(parent.address)
        self._flush_routes_via(parent.address)
        self._request_peering(candidate, rtt)

    # ------------------------------------------------------------------
    # Name discovery protocol (Section 2.2)
    # ------------------------------------------------------------------
    def _handle_advertisement(self, ad: Advertisement, source: str) -> None:
        self.stats.advertisements_processed += 1
        self.monitor.count_update_names(1)
        changed: List[Tuple[str, NameSpecifier, NameRecord]] = []
        for vspace in ad.name.vspaces():
            tree = self.trees.get(vspace)
            if tree is None:
                self._forward_foreign_payload(vspace, ad)
                continue
            endpoints = ad.endpoints or (Endpoint(host=source),)
            record = NameRecord(
                announcer=ad.announcer,
                endpoints=list(endpoints),
                anycast_metric=ad.anycast_metric,
                route=Route(next_hop=None, metric=0.0),
                expires_at=self.now + ad.lifetime,
            )
            readmitted = False
            if self.config.partition_grace > 0:
                existing = tree.record_for(ad.announcer)
                readmitted = existing is not None and existing.is_expired(
                    self.now
                )
            outcome = tree.insert(ad.name, record)
            if readmitted:
                # A graced record came back to life: the payload-equal
                # fast path would suppress the triggered update, but
                # neighbors believed the name dead — force propagation.
                self.stats.expiry_grace_readmissions += 1
            if outcome.changed or readmitted:
                # Announce the tree's own read-only GET-NAME result, not
                # the service's object: same wire text, and neighbors
                # adopt it instead of rebuilding a copy each.
                changed.append(
                    (vspace, tree.get_name(outcome.record), outcome.record)
                )
        if changed:
            self._send_triggered(changed, exclude=None)
            self._custody_retry()

    def _deliver_reliable(self, neighbor: str, payload: object) -> None:
        """In-order application delivery from the reliable channel."""
        if isinstance(payload, UpdateBatch):
            self._handle_update_batch(payload)
        elif isinstance(payload, NameWithdraw):
            self._handle_withdraw(payload, neighbor)
        elif isinstance(payload, CustodyTransfer):
            self._handle_custody_transfer(payload)

    def _handle_withdraw(self, withdraw: NameWithdraw, source: str) -> None:
        """Explicit name removal (reliable-delta mode)."""
        tree = self.trees.get(withdraw.vspace)
        if tree is None:
            return
        record = tree.record_for(withdraw.announcer)
        if record is None or record.route.is_local:
            return
        if record.route.next_hop != source:
            return  # only the route's source may withdraw it
        tree.remove(record)
        self._propagate_withdraw(withdraw.announcer, withdraw.vspace,
                                 exclude=source)

    def _propagate_withdraw(self, announcer, vspace: str,
                            exclude: Optional[str]) -> None:
        for neighbor in self.neighbors:
            if neighbor.address == exclude:
                continue
            self._send_control(
                neighbor.address,
                NameWithdraw(sender=self.address, announcer=announcer,
                             vspace=vspace),
            )

    def _send_control(self, neighbor_address: str, payload: object) -> None:
        """Send a name-state message to a neighbor on the configured
        transport (raw datagram, or the reliable channel)."""
        if self._reliable is not None:
            self._reliable.send(neighbor_address, payload)
        else:
            self.send(neighbor_address, INR_PORT, payload)

    def _handle_update_batch(self, batch: UpdateBatch) -> None:
        self.monitor.count_update_names(len(batch.updates))
        self.stats.update_names_processed += len(batch.updates)
        link_rtt = self.neighbors.rtt_to(batch.sender)
        changed: List[Tuple[str, NameSpecifier, NameRecord]] = []
        # One tree epoch per delivered batch, not per name: each touched
        # tree's batch is opened lazily the first time an update lands in
        # it (updates stay in arrival order — no regrouping by vspace)
        # and closed once the whole batch has been applied, so N periodic
        # refreshes invalidate lookup memo/subtree state at most once.
        opened: Dict[str, NameTree] = {}
        try:
            for update in batch.updates:
                tree = self.trees.get(update.vspace)
                if tree is None:
                    continue
                if update.vspace not in opened:
                    opened[update.vspace] = tree
                    tree.begin_batch()
                if self._apply_update(tree, update, batch.sender, link_rtt):
                    record = tree.record_for(update.announcer)
                    if record is not None:
                        changed.append((update.vspace, update.name, record))
        finally:
            for tree in opened.values():
                tree.end_batch()
        if changed:
            self._send_triggered(changed, exclude=batch.sender)
            self._custody_retry()

    def _apply_update(
        self, tree: NameTree, update: NameUpdate, sender: str, link_rtt: float
    ) -> bool:
        """Distributed Bellman-Ford acceptance; True when state changed
        in a way neighbors should hear about."""
        new_metric = update.route_metric + link_rtt
        existing = tree.record_for(update.announcer)
        incoming = NameRecord(
            announcer=update.announcer,
            endpoints=list(update.endpoints),
            anycast_metric=update.anycast_metric,
            route=Route(next_hop=sender, metric=new_metric),
            expires_at=self.now + update.lifetime,
        )
        if existing is None:
            tree.insert(update.name, incoming)
            return True
        if existing.route.is_local:
            # Never let a reflected update displace a directly-attached
            # service; the local announcement is authoritative.
            return False
        if self.config.partition_grace > 0 and existing.is_expired(self.now):
            # A graced record names a route that died with the
            # partition; comparing metrics against the corpse would
            # wrongly favor it. Any fresh news re-admits the name.
            tree.insert(update.name, incoming)
            self.stats.expiry_grace_readmissions += 1
            return True
        if existing.route.next_hop == sender:
            # News from the current next hop is always accepted, even if
            # the metric worsened (standard distance-vector rule).
            outcome = tree.insert(update.name, incoming)
            return outcome.changed
        if new_metric < existing.route.metric:
            outcome = tree.insert(update.name, incoming)
            return outcome.changed
        return False

    def _updates_for(
        self,
        entries: List[Tuple[str, NameSpecifier, NameRecord]],
        neighbor_address: str,
    ) -> List[NameUpdate]:
        updates = []
        for vspace, name, record in entries:
            if record.route.next_hop == neighbor_address:
                continue  # split horizon: never echo a route to its source
            updates.append(
                NameUpdate(
                    name=name,
                    announcer=record.announcer,
                    endpoints=tuple(record.endpoints),
                    anycast_metric=record.anycast_metric,
                    route_metric=record.route.metric,
                    # Reliable-delta entries are hard state: they live
                    # until withdrawn or their neighbor dies.
                    lifetime=(
                        1e12 if self._reliable is not None
                        else self.config.record_lifetime
                    ),
                    vspace=vspace,
                )
            )
        return updates

    def _all_entries(self) -> List[Tuple[str, NameSpecifier, NameRecord]]:
        entries = []
        for vspace, tree in self.trees.items():
            for name, record in tree.names():
                entries.append((vspace, name, record))
        return entries

    def _send_periodic_updates(self) -> None:
        if not self.active or self._terminated:
            return
        if self._reliable is not None:
            # Reliable-delta mode: names moved when they changed; the
            # periodic message degenerates to an empty keepalive that
            # feeds the neighbor liveness timeout.
            for neighbor in self.neighbors:
                self.send(
                    neighbor.address,
                    INR_PORT,
                    UpdateBatch(self.address, [], triggered=False),
                )
                self.stats.periodic_updates_sent += 1
            return
        entries = self._all_entries()
        for neighbor in self.neighbors:
            updates = self._updates_for(entries, neighbor.address)
            self.send(
                neighbor.address,
                INR_PORT,
                UpdateBatch(self.address, updates, triggered=False),
            )
            self.stats.periodic_updates_sent += 1

    def _send_triggered(
        self,
        entries: List[Tuple[str, NameSpecifier, NameRecord]],
        exclude: Optional[str],
    ) -> None:
        for neighbor in self.neighbors:
            if neighbor.address == exclude:
                continue
            updates = self._updates_for(entries, neighbor.address)
            if not updates:
                continue
            self._send_control(
                neighbor.address,
                UpdateBatch(self.address, updates, triggered=True),
            )
            self.stats.triggered_updates_sent += 1

    def _send_full_table(self, neighbor_address: str) -> None:
        entries = self._all_entries()
        updates = self._updates_for(entries, neighbor_address)
        self._send_control(
            neighbor_address,
            UpdateBatch(self.address, updates, triggered=True),
        )

    def _sweep(self) -> None:
        for tree in self.trees.values():
            expired = tree.expire(self.now, grace=self.config.partition_grace)
            if self._reliable is not None:
                # Explicitly withdraw locally announced names that died
                # (the service stopped refreshing its advertisement).
                for record in expired:
                    if record.route.is_local:
                        self._propagate_withdraw(
                            record.announcer, tree.vspace, exclude=None
                        )
        cutoff = self.now - self.config.neighbor_timeout
        for neighbor in self.neighbors.silent_since(cutoff):
            self._drop_neighbor(neighbor.address, rejoin=True)
        if (
            self.active
            and not self._terminated
            and len(self.neighbors) == 0
            and self.dsr_address is not None
            and not self._joining
            and self._pending_peer is None
        ):
            # A lonely resolver (lost handshakes, dead peers) keeps
            # trying to rejoin the overlay; if it really is the only
            # INR in the domain this is a cheap no-op.
            self._begin_join()

    # ------------------------------------------------------------------
    # Early binding and discovery queries
    # ------------------------------------------------------------------
    def _query_records(
        self, tree: NameTree, name: NameSpecifier
    ) -> List[NameRecord]:
        """Matches of ``name`` that a query answer may bind to.

        With a partition grace configured, expired records linger in
        the tree well past their lifetime; they must stay out of query
        answers — grace preserves state for fast readmission, it does
        not resurrect bindings. With grace off, the raw lookup set is
        returned untouched so baseline behavior stays byte-identical.
        """
        records = tree.lookup(name)
        if self.config.partition_grace > 0:
            return [r for r in records if not r.is_expired(self.now)]
        return list(records)

    def _handle_resolution(self, request: ResolutionRequest) -> None:
        span = self._span_start("inr.resolve", request.trace)
        vspace = request.name.vspaces()[0]
        tree = self.trees.get(vspace)
        if tree is None:
            self._span_note(span, f"foreign vspace {vspace}")
            self._forward_foreign_payload(vspace, request, span=span)
            return
        self.monitor.count_lookup()
        self.stats.lookups += 1
        self.stats.queries_served += 1
        bindings = []
        for record in self._query_records(tree, request.name):
            for endpoint in record.endpoints:
                bindings.append((endpoint, record.anycast_metric))
        bindings.sort(key=lambda pair: (pair[1], pair[0]))
        self.send(
            request.reply_to,
            request.reply_port,
            ResolutionResponse(request_id=request.request_id, bindings=bindings),
        )
        self._span_end(span)
        self._sync_memo_stats()

    def _handle_discovery(self, request: DiscoveryRequest) -> None:
        from ..naming import VSPACE_ATTRIBUTE

        span = self._span_start("inr.discover", request.trace)
        if request.filter.root(VSPACE_ATTRIBUTE) is not None:
            # An explicit vspace constrains the search — and may need
            # forwarding to the resolver that routes it.
            vspace = request.filter.vspaces()[0]
            tree = self.trees.get(vspace)
            if tree is None:
                self._span_note(span, f"foreign vspace {vspace}")
                self._forward_foreign_payload(vspace, request, span=span)
                return
            searched = [tree]
        else:
            # Section 2.2: a discovery message matches against "all the
            # names it knows about" — every vspace this INR routes.
            searched = list(self.trees.values())
        self.monitor.count_lookup()
        self.stats.lookups += 1
        self.stats.queries_served += 1
        names = []
        for tree in searched:
            names.extend(
                (tree.get_name(record), record.anycast_metric)
                for record in self._query_records(tree, request.filter)
            )
        names.sort(key=lambda pair: pair[0].to_wire())
        self.send(
            request.reply_to,
            request.reply_port,
            DiscoveryResponse(request_id=request.request_id, names=names),
        )
        self._span_end(span)
        self._sync_memo_stats()

    # ------------------------------------------------------------------
    # The forwarding agent: late binding (Section 2.3)
    # ------------------------------------------------------------------
    def _handle_data(self, packet: DataPacket, source: str) -> None:
        try:
            message = packet.message
        except ValueError:
            # Malformed packet (bad header, unparsable names): a robust
            # resolver drops it rather than dying (design goal iii).
            # No span either — an undecodable frame has no context.
            self.stats.drops_malformed += 1
            return
        span = self._span_start("inr.hop", message.trace)
        vspace = message.destination.vspaces()[0]
        tree = self.trees.get(vspace)
        if tree is None:
            self.stats.packets_forwarded_foreign_vspace += 1
            self._span_note(span, f"foreign vspace {vspace}")
            self._forward_foreign_payload(vspace, packet, span=span)
            return
        self.monitor.count_lookup()
        self.stats.lookups += 1
        # Charge one LOOKUP-NAME per packet per INR, then route.
        self._work(
            self.costs.lookup, lambda: self._route(tree, packet, source, span)
        )

    def _route(
        self, tree: NameTree, packet: DataPacket, source: str, span=None
    ) -> None:
        message = packet.message
        if message.binding is Binding.EARLY:
            # The B bit-flag (Figure 10): the sender wants the
            # name-to-location bindings back, not payload forwarding.
            self._answer_early_binding(tree, message, span)
            return
        if self.cache is not None and message.accept_cached:
            entry = self.cache.lookup(message.destination, self.now)
            if entry is not None:
                self._answer_from_cache(message, entry, span)
                return
        records = tree.lookup(message.destination)
        if self.cache is not None and message.wants_caching:
            if message.source.is_concrete() and not message.source.is_empty:
                self.cache.store(
                    message.source, message.data, self.now, message.cache_lifetime
                )
        if not records:
            if self._custody_take(
                tree.vspace, packet, "no-route", PRIORITY_UNKNOWN_NAME, span
            ):
                return
            self.stats.drops_no_route += 1
            self._span_end(span, DROP_PREFIX + "no-route")
            return
        # lookup() returns a set; order the survivors deterministically
        # before any scheduling/emission decision observes hash order.
        live = sorted(
            (r for r in records if not r.is_expired(self.now)),
            key=lambda r: str(r.announcer),
        )
        if not live:
            # Every match outlived its soft-state lifetime but the sweep
            # has not collected it yet; routing through it would target
            # a service presumed dead. The name *was* known here, so a
            # custodian holds the payload at the highest priority.
            if self._custody_take(
                tree.vspace, packet, "expired-record", PRIORITY_KNOWN_NAME, span
            ):
                return
            self.stats.drops_expired_record += 1
            self._span_end(span, DROP_PREFIX + "expired-record")
            return
        records = live
        if message.delivery is Delivery.ANYCAST:
            self._route_anycast(tree, packet, records, span)
        else:
            self._route_multicast(
                tree, packet, records, arrived_from=source, span=span
            )
        self._sync_memo_stats()

    def _answer_early_binding(
        self, tree: NameTree, message: InsMessage, span=None
    ) -> None:
        """Resolve the destination and send the [ip, [port, transport]]
        list (plus metrics) back to the requester's intentional name."""
        import json

        if message.source.is_empty or not message.source.is_concrete():
            # Nowhere to send the answer: early binding over the data
            # path requires an addressable source name.
            self.stats.drops_malformed += 1
            self._span_end(span, DROP_PREFIX + "malformed")
            return
        bindings = []
        for record in self._query_records(tree, message.destination):
            for endpoint in record.endpoints:
                bindings.append(
                    {
                        "host": endpoint.host,
                        "port": endpoint.port,
                        "transport": endpoint.transport,
                        "metric": record.anycast_metric,
                    }
                )
        bindings.sort(key=lambda b: (b["metric"], b["host"], b["port"]))
        reply = InsMessage(
            destination=message.source.copy(),
            source=message.destination.copy(),
            data=json.dumps({"bindings": bindings}).encode("utf-8"),
            binding=Binding.LATE,
            delivery=Delivery.ANYCAST,
        )
        self.stats.queries_served += 1
        self.handle_message(DataPacket(raw=reply.encode()), self.address)
        self._span_end(span, "early-binding")

    def _answer_from_cache(
        self, message: InsMessage, entry, span=None
    ) -> None:
        """Reply to a request directly from the packet cache."""
        self.stats.packets_answered_from_cache += 1
        reply = InsMessage(
            destination=message.source.copy(),
            source=entry.name.copy(),
            data=entry.data,
            binding=Binding.LATE,
            delivery=Delivery.ANYCAST,
        )
        self.handle_message(DataPacket(raw=reply.encode()), self.address)
        self._span_end(span, "cache-hit")

    def _route_anycast(
        self,
        tree: NameTree,
        packet: DataPacket,
        records: Sequence[NameRecord],
        span=None,
    ) -> None:
        best = min(
            records, key=lambda r: (r.anycast_metric, r.route.metric, str(r.announcer))
        )
        if best.route.is_local:
            self._deliver_local(tree, packet, best, span)
            return
        if self._next_hop_suspect(best.route.next_hop):
            # The route exists but its next hop has gone silent —
            # forwarding would feed the payload to a dead link long
            # before the neighbor timeout flushes the route.
            if self._custody_take(
                tree.vspace, packet, "next-hop-suspect", PRIORITY_KNOWN_NAME, span
            ):
                return
        self._forward_to_inr(packet, best.route.next_hop, span)

    def _route_multicast(
        self,
        tree: NameTree,
        packet: DataPacket,
        records: Sequence[NameRecord],
        arrived_from: str,
        span=None,
    ) -> None:
        # Reverse-path rule: never forward a copy back over the link the
        # packet arrived on. The overlay is a tree, so this suffices to
        # keep the per-name shortest-path forwarding loop-free.
        # A multicast hop shares one span across its fan-out; the first
        # branch outcome settles the status (end_span is idempotent) and
        # the remaining branches land as annotations.
        next_hops: Set[str] = set()
        for record in records:
            if record.route.is_local:
                self._deliver_local(tree, packet, record, span)
            elif record.route.next_hop != arrived_from:
                next_hops.add(record.route.next_hop)
        for next_hop in sorted(next_hops):
            self._span_note(span, f"multicast copy to {next_hop}")
            self._forward_to_inr(packet, next_hop, span)

    def _deliver_local(
        self, tree: NameTree, packet: DataPacket, record, span=None
    ) -> None:
        if not record.endpoints:
            self.stats.drops_no_endpoint += 1
            self._span_end(span, DROP_PREFIX + "no-endpoint")
            return
        endpoint = record.endpoints[0]
        self.stats.packets_delivered_locally += 1

        def deliver() -> None:
            self.send(endpoint.host, endpoint.port, packet)
            self._span_end(span, "delivered")

        self._work(self.costs.local_delivery(len(tree)), deliver)

    def _forward_to_inr(
        self, packet: DataPacket, next_hop: str, span=None
    ) -> None:
        message = packet.message
        if message.hop_limit <= 0:
            self.stats.drops_hop_limit += 1
            self._span_end(span, DROP_PREFIX + "hop-limit")
            return
        outgoing = message.hop_decremented()
        if span is not None:
            # Re-parent the context so the next hop's span nests under
            # this one: the exported tree then mirrors the actual path.
            outgoing.trace = span.context
        forwarded = DataPacket(raw=outgoing.encode())
        self.stats.packets_forwarded += 1

        def forward() -> None:
            self.send(next_hop, INR_PORT, forwarded)
            self._span_end(span, "forwarded")

        self._work(self.costs.forward, forward)

    # ------------------------------------------------------------------
    # Disruption tolerance: custody store-and-forward (repro.dtn)
    # ------------------------------------------------------------------
    def _next_hop_suspect(self, next_hop: Optional[str]) -> bool:
        """True when forwarding to ``next_hop`` would likely feed a dead
        link: the neighbor vanished, or has been silent longer than the
        configured suspicion threshold. Only consulted when custody is
        on — without a custodian there is nothing better to do than try."""
        silence = self.config.custody_suspect_silence
        if self.custody is None or silence <= 0 or next_hop is None:
            return False
        neighbor = self.neighbors.get(next_hop)
        if neighbor is None:
            return True
        return self.now - neighbor.last_heard > silence

    def _custody_take(
        self,
        vspace: str,
        packet: DataPacket,
        cause: str,
        priority: int,
        span=None,
    ) -> bool:
        """Take custody of an unroutable payload instead of dropping it.

        Returns True when the payload's fate was settled here — held,
        or evicted at the door (which is itself an attributed drop) —
        and False when custody does not apply, in which case the caller
        falls through to the paper's drop behavior. Only late-binding
        anycast is eligible: early binding answers from current state
        by design, and a multicast payload has no single custodian.
        """
        if self.custody is None:
            return False
        message = packet.message
        if message.binding is not Binding.LATE:
            return False
        if message.delivery is not Delivery.ANYCAST:
            return False
        entry, evicted = self.custody.accept(
            packet.raw,
            message.destination,
            vspace,
            self.now,
            ttl=self.config.custody_ttl,
            priority=priority,
            cause=cause,
            trace=message.trace,
        )
        for victim in evicted:
            self._custody_drop(victim, "custody-evicted")
        if entry is None:
            # Refused at the door: the store is full of higher-priority
            # payloads, so the newcomer is the cheapest loss.
            self.stats.drops_custody_evicted += 1
            self._span_end(span, DROP_PREFIX + "custody-evicted")
            return True
        self.stats.custody_accepted += 1
        self._span_note(span, f"custody cause={cause} priority={priority}")
        self._span_end(span, "custody-accepted")
        return True

    def _custody_drop(self, entry: CustodyEntry, cause: str) -> None:
        """Attribute the final loss of a custodied payload: a distinct
        drop counter per cause, and a span status a trace query can
        find (satellite: every drop path stays attributable)."""
        if cause == "custody-expired":
            self.stats.drops_custody_expired += 1
        elif cause == "custody-evicted":
            self.stats.drops_custody_evicted += 1
        else:
            self.stats.drops_custody_transfer_failed += 1
        span = self._span_start("inr.custody", entry.trace, cause=entry.cause)
        self._span_end(span, DROP_PREFIX + cause)

    def _custody_tick(self) -> None:
        """Periodic custody maintenance: lapse overdue payloads, then
        re-attempt the rest. The timer is the backstop that catches
        link heals no triggered update announces."""
        if self.custody is None or self._terminated:
            return
        for entry in self.custody.expire(self.now):
            self._custody_drop(entry, "custody-expired")
        self._custody_retry()

    def _custody_retry(self) -> None:
        """Release every held payload whose destination is resolvable
        again, re-injecting it through the normal forwarding path (late
        binding: the name is re-resolved at release time, so the
        payload goes wherever the service is *now*)."""
        if self.custody is None or not len(self.custody):
            return
        for entry in self.custody.entries():
            tree = self.trees.get(entry.vspace)
            if tree is None:
                continue
            live = [
                r
                for r in tree.lookup(entry.destination)
                if not r.is_expired(self.now)
            ]
            if not live:
                continue
            best = min(
                live,
                key=lambda r: (r.anycast_metric, r.route.metric, str(r.announcer)),
            )
            if not best.route.is_local and self._next_hop_suspect(
                best.route.next_hop
            ):
                continue
            if self.custody.release(entry):
                self.stats.custody_released += 1
                span = self._span_start(
                    "inr.custody", entry.trace, cause=entry.cause
                )
                self._span_end(span, "custody-released")
                self._handle_data(DataPacket(raw=entry.raw), self.address)

    def _custody_handoff(self) -> None:
        """Migrate held payloads to a surviving neighbor (termination
        path). Deadlines ride along unchanged — a handoff must not
        reset a payload's custody clock. Best-effort by nature: the
        sender is about to stop and cannot retransmit past its death."""
        entries = self.custody.drain()
        if not entries:
            return
        parent = self.neighbors.parent
        if parent is not None:
            recipient: Optional[str] = parent.address
        else:
            addresses = sorted(self.neighbors.addresses)
            recipient = addresses[0] if addresses else None
        if recipient is None:
            # Nobody left to hand custody to; the payloads die with us.
            for entry in entries:
                self._custody_drop(entry, "custody-transfer-failed")
            return
        records = tuple(
            CustodyRecord(
                raw=entry.raw,
                vspace=entry.vspace,
                deadline=entry.deadline,
                priority=entry.priority,
                transfers=entry.transfers + 1,
            )
            for entry in entries
        )
        self._send_control(
            recipient, CustodyTransfer(sender=self.address, records=records)
        )
        self.stats.custody_transfers_sent += 1
        for entry in entries:
            span = self._span_start("inr.custody", entry.trace, cause=entry.cause)
            self._span_note(span, f"handoff to {recipient}")
            self._span_end(span, "custody-transferred")

    def _handle_custody_transfer(self, transfer: CustodyTransfer) -> None:
        """Adopt payloads from a departing custodian, preserving each
        absolute deadline, then immediately re-attempt them — this
        resolver may well have the route its predecessor lacked."""
        self.stats.custody_transfers_received += 1
        if self.custody is None:
            # No custody store here: the handoff's payloads have no
            # custodian left and are lost, attributably.
            for record in transfer.records:
                try:
                    context = InsMessage.decode(record.raw).trace
                except Exception:
                    context = None
                self.stats.drops_custody_transfer_failed += 1
                span = self._span_start("inr.custody", context)
                self._span_end(span, DROP_PREFIX + "custody-transfer-failed")
            return
        snapshot = tuple(
            (
                record.raw,
                record.vspace,
                record.deadline,
                record.priority,
                "transferred",
                record.transfers,
            )
            for record in transfer.records
        )
        before = self.custody.counts.accepted
        lapsed, evicted = self.custody.adopt(snapshot, self.now)
        self.stats.custody_accepted += self.custody.counts.accepted - before
        for entry in lapsed:
            self._custody_drop(entry, "custody-expired")
        for entry in evicted:
            self._custody_drop(entry, "custody-evicted")
        self._custody_retry()

    # ------------------------------------------------------------------
    # Foreign virtual spaces (Section 2.5)
    # ------------------------------------------------------------------
    def _forward_foreign_payload(
        self, vspace: str, payload: object, span=None
    ) -> None:
        resolver = self._vspace_cache.get(vspace)
        if resolver is not None:
            self._forward_foreign_to(resolver, payload, span)
            return
        if self.dsr_address is None:
            self.stats.drops_foreign_vspace += 1
            self._span_end(span, DROP_PREFIX + "foreign-vspace")
            return
        waiting = self._vspace_waiting.setdefault(vspace, [])
        waiting.append((payload, span))
        if len(waiting) == 1:
            self.send(
                self.dsr_address,
                DSR_PORT,
                DsrVspaceRequest(
                    vspace=vspace, reply_to=self.address, reply_port=self.port
                ),
            )

    def _forward_foreign_to(
        self, resolver: str, payload: object, span=None
    ) -> None:
        def forward() -> None:
            self.send(resolver, INR_PORT, payload)
            self._span_end(span, "forwarded-foreign")

        self._work(self.costs.vspace_forward, forward)

    def _handle_vspace_response(self, response: DsrVspaceResponse) -> None:
        self._tally_termination_vote(response)
        waiting = self._vspace_waiting.pop(response.vspace, [])
        if not response.resolvers:
            self.stats.drops_foreign_vspace += len(waiting)
            for _payload, span in waiting:
                self._span_end(span, DROP_PREFIX + "foreign-vspace")
            return
        resolver = response.resolvers[0]
        if len(self._vspace_cache) >= self.config.vspace_cache_size:
            self._vspace_cache.pop(next(iter(self._vspace_cache)))
        self._vspace_cache[response.vspace] = resolver
        for payload, span in waiting:
            self._forward_foreign_to(resolver, payload, span)

    # ------------------------------------------------------------------
    # Load balancing (Section 2.5)
    # ------------------------------------------------------------------
    def _check_load(self) -> None:
        """Section 2.5 policy with hysteresis: decisions compare the
        (optionally EWMA-smoothed) rates against the thresholds, fire
        only after the configured number of consecutive signals, and
        respect a cooldown between actions — with the defaults
        (alpha=1, streak=1, cooldown=0) this is exactly the raw
        act-on-first-signal behavior."""
        sample = self.monitor.sample(self.now)
        if self.spawner is None or self._spawn_pending:
            return
        config = self.config
        if self.now - self._last_load_action < config.load_action_cooldown:
            return
        if sample.ewma_lookups_per_second > config.spawn_lookup_rate:
            self._overload_lookup_streak += 1
            self._overload_update_streak = 0
            self._underload_streak = 0
            if self._overload_lookup_streak >= config.overload_consecutive_samples:
                self._overload_lookup_streak = 0
                self._last_load_action = self.now
                self._claim_candidate(purpose="spawn")
            return
        self._overload_lookup_streak = 0
        if (
            sample.ewma_update_names_per_second > config.delegate_update_rate
            and len(self.trees) > 1
        ):
            self._overload_update_streak += 1
            self._underload_streak = 0
            if self._overload_update_streak >= config.overload_consecutive_samples:
                if self.delegation.busy or not self.delegation.can_start(self.now):
                    return  # one handoff at a time; cooldown after aborts
                self._overload_update_streak = 0
                self._last_load_action = self.now
                self._claim_candidate(purpose="delegate")
            return
        self._overload_update_streak = 0
        if (
            self.was_spawned
            and sample.ewma_lookups_per_second < config.terminate_lookup_rate
            and self.now - self._started_at > config.minimum_lifetime
        ):
            self._underload_streak += 1
            if self._underload_streak >= config.underload_consecutive_samples:
                if self.delegation.busy:
                    return  # never retire mid-handoff (either role)
                self._underload_streak = 0
                self._consider_termination()
        else:
            self._underload_streak = 0

    def _consider_termination(self) -> None:
        """Self-terminate only if every vspace this INR routes is also
        routed by another resolver — a delegated vspace's sole resolver
        must stay up however idle it is."""
        if self._termination_votes is not None:
            return  # a check is already in flight
        if not self.trees:
            # A spawned recipient whose handoff aborted routes nothing
            # and serves nobody: retire immediately (terminate() puts
            # the node back in the candidate pool for the retry).
            self.terminate()
            return
        self._termination_votes = {vspace: None for vspace in self.trees}
        for vspace in self.trees:
            self.send(
                self.dsr_address,
                DSR_PORT,
                DsrVspaceRequest(
                    vspace=vspace, reply_to=self.address, reply_port=self.port
                ),
            )

    def _tally_termination_vote(self, response: DsrVspaceResponse) -> None:
        votes = self._termination_votes
        if votes is None or response.vspace not in votes:
            return
        votes[response.vspace] = any(
            resolver != self.address for resolver in response.resolvers
        )
        if any(vote is None for vote in votes.values()):
            return
        self._termination_votes = None
        if all(votes.values()):
            self.terminate()

    def _claim_candidate(self, purpose: str) -> None:
        self._spawn_pending = True
        self._claim_purpose = purpose
        self.send(
            self.dsr_address,
            DSR_PORT,
            DsrClaimCandidate(
                requester=self.address, reply_to=self.address, reply_port=self.port
            ),
        )

    def _handle_claim_response(self, response: DsrClaimResponse) -> None:
        self._spawn_pending = False
        if not response.candidate or self.spawner is None:
            return
        purpose = getattr(self, "_claim_purpose", "spawn")
        if purpose == "spawn":
            # Lookup overload: replicate this INR's vspaces on the
            # candidate; clients re-selecting a default INR spread out.
            self.spawner(response.candidate, self.vspaces)
        elif self.config.delegation_two_phase:
            self.delegation.begin(response.candidate)
        else:
            self._delegate_vspace(response.candidate)

    def _delegate_vspace(self, candidate: str) -> None:
        """Hand the busiest vspace to a fresh INR on ``candidate``.

        The single-shot legacy path (``delegation_two_phase=False``):
        spawn, fling one update batch, drop the tree. No offer, no
        acks, no commit — a crash on either side mid-handoff loses the
        vspace's names until services re-advertise, and can leave the
        space with no authoritative resolver. Kept as the ablation the
        delegation chaos scenario measures against.
        """
        if len(self.trees) <= 1:
            return
        vspace = max(self.trees, key=lambda v: len(self.trees[v]))
        tree = self.trees[vspace]
        self.spawner(candidate, (vspace,))
        updates = [
            NameUpdate(
                name=name,
                announcer=record.announcer,
                endpoints=tuple(record.endpoints),
                anycast_metric=record.anycast_metric,
                route_metric=record.route.metric,
                lifetime=self.config.record_lifetime,
                vspace=vspace,
            )
            for name, record in tree.names()
        ]
        self.send(candidate, INR_PORT, UpdateBatch(self.address, updates, triggered=True))
        del self.trees[vspace]
        self._vspace_cache[vspace] = candidate
        self._register()  # refresh the DSR's view of our vspaces

    def __repr__(self) -> str:
        return (
            f"INR({self.address}, vspaces={list(self.trees)}, "
            f"names={self.name_count()}, neighbors={len(self.neighbors)})"
        )
