"""Name-records and their constituents (Section 2.3.1).

A name-record is what a name-tree lookup returns. It contains the
route to the next-hop INR for the announcer (with its overlay metric,
used by intentional multicast), the network locations of the potential
final destinations (returned on early binding), the announcer's
application-advertised metric (minimized by intentional anycast), the
record's soft-state expiration time and the AnnouncerID that
differentiates identical names announced by different applications.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..naming import NameSpecifier

#: Default soft-state lifetime for a name-record, seconds. Records not
#: refreshed within one lifetime are discarded (Section 2.2).
DEFAULT_LIFETIME = 60.0


@dataclass(frozen=True, order=True)
class AnnouncerID:
    """Unique identifier of the application announcing a name.

    The paper's implementation concatenates the announcer's IP address
    with its startup time, allowing multiple instances of the same
    service on one node (Section 2.2).
    """

    host: str
    startup_time: float

    _sequence = itertools.count(1)

    @classmethod
    def generate(cls, host: str, startup_time: Optional[float] = None) -> "AnnouncerID":
        """Create an AnnouncerID for ``host``.

        When ``startup_time`` is not given a process-unique monotonic
        sequence number stands in for it, which preserves the uniqueness
        property the paper relies on without consulting a wall clock.
        """
        if startup_time is None:
            startup_time = float(next(cls._sequence))
        return cls(host=host, startup_time=startup_time)

    def __str__(self) -> str:
        return f"{self.host}@{self.startup_time:g}"


@dataclass(frozen=True, order=True)
class Endpoint:
    """A network location of a final destination.

    Updates carry, for each IP address, a set of [port-number,
    transport-type] pairs so clients can implement early binding
    (Section 2.2); we flatten to one endpoint per (host, port,
    transport) triple.
    """

    host: str
    port: int = 0
    transport: str = "udp"

    def __str__(self) -> str:
        return f"{self.transport}://{self.host}:{self.port}"


@dataclass(frozen=True)
class Route:
    """The next-hop INR for a record and the overlay metric of the path.

    ``next_hop`` is None for records announced by a directly-attached
    application; the metric is then zero by definition.
    """

    next_hop: Optional[str]
    metric: float = 0.0

    @property
    def is_local(self) -> bool:
        return self.next_hop is None

    def __str__(self) -> str:
        hop = self.next_hop if self.next_hop is not None else "<local>"
        return f"Route(via={hop}, metric={self.metric:g})"


LOCAL_ROUTE = Route(next_hop=None, metric=0.0)


@dataclass
class NameRecord:
    """The resolver-side state for one announced name.

    Mutable on purpose: refreshes update endpoints, metrics, routes and
    expiry in place so every leaf value-node pointer stays valid.
    """

    announcer: AnnouncerID
    endpoints: List[Endpoint] = field(default_factory=list)
    anycast_metric: float = 0.0
    route: Route = LOCAL_ROUTE
    expires_at: float = math.inf
    vspace: str = "default"

    #: Leaf value-nodes of this record's name in its tree; maintained by
    #: NameTree.insert/remove, read by GET-NAME.
    attachments: list = field(default_factory=list, repr=False)

    #: Canonical key of the advertised name, stored at graft time so a
    #: refresh can detect "same name again" without re-running GET-NAME;
    #: None while the record is not grafted anywhere.
    advertised_key: Optional[tuple] = field(default=None, repr=False)

    #: GET-NAME's result for this record, memoized: built at most once
    #: per graft (or adopted at graft from a neighbor's read-only
    #: GET-NAME output) and handed to every update and discovery answer
    #: until the record is grafted again or removed; None until then.
    #: Frozen, because it is shared.
    advertised_name: Optional[NameSpecifier] = field(
        default=None, repr=False, compare=False
    )

    #: Memoized __hash__. Records live in many sets (value-node record
    #: sets, subtree caches, lookup results) and set operations probe
    #: hashes constantly; recomputing the announcer/vspace tuple hash
    #: per probe dominated LOOKUP-NAME's intersection cost. Filled on
    #: first use, which happens no earlier than grafting — after
    #: ``vspace`` is finalized by the owning tree.
    _hash_cache: Optional[int] = field(default=None, repr=False, compare=False)

    def is_expired(self, now: float) -> bool:
        """True once the soft-state lifetime has elapsed unrefreshed."""
        return now >= self.expires_at

    def refresh(self, now: float, lifetime: float = DEFAULT_LIFETIME) -> None:
        """Extend the record's life by ``lifetime`` seconds from ``now``."""
        self.expires_at = now + lifetime

    def same_payload(self, other: "NameRecord") -> bool:
        """True when ``other`` carries no new routing information.

        Used to decide whether an incoming update is a pure refresh
        (periodic, no propagation needed) or new information that must
        trigger an update to neighbors (Section 2.2).
        """
        return (
            sorted(self.endpoints) == sorted(other.endpoints)
            and self.anycast_metric == other.anycast_metric
            and self.route == other.route
        )

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.announcer, self.vspace))
            self._hash_cache = cached
        return cached

    def __eq__(self, other: object) -> bool:
        return self is other
