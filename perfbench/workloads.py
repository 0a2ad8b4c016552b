"""The benchmark's three workloads against the real ``InsDomain`` stack.

Each workload is split in three steps so the runner can time them
apart:

- ``generate(seed)`` builds every input from the seed before any timing:
  names, the open-loop op schedule, change logs and the fault plan. The
  program receives only these inputs.
- ``setup(inputs)`` builds the domain and lets it converge (timed as
  ``setup_s``).
- ``measure(run)`` drives the fixed simulated-time schedule (timed as
  the measured phase), after which ``outcome(run)`` checks every answer
  and derives the simulated metrics.

Load is open-loop in simulated time: every send is scheduled up front,
regardless of replies, so the generator is never late in virtual time
and each latency is taken from the op's scheduled send time.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos import ChaosController, FaultPlan, fast_chaos_config
from repro.experiments import InsDomain, UniformWorkload
from repro.naming import NameSpecifier
from repro.obs import merge_counts
from repro.resolver import InrConfig

#: Fig. 12 name shape: r_a = 3 attributes, r_v = 3 values, n_a = 2 per
#: level. The depth is chosen per workload.
FIG12_SHAPE = dict(attribute_range=3, value_range=3, attributes_per_level=2)


class CheckFailed(Exception):
    """A correctness check on the program's answers failed."""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def make_names(rng: random.Random, count: int, depth: int) -> List[NameSpecifier]:
    """``count`` distinct Fig. 12-shaped names drawn from ``rng``."""
    generator = UniformWorkload(rng=rng, depth=depth, **FIG12_SHAPE)
    return generator.distinct_names(count)


def name_matches(query, name) -> bool:
    """Whether LOOKUP-NAME (paper Fig. 5) can return ``name``'s record
    for ``query`` from some tree that holds it, independent of the
    name-tree code.

    LOOKUP-NAME skips a query attribute that no record in the tree
    carries at that position ("if Ta = null, continue"). Which attributes
    a tree carries depends on every record in it, and an INR's tree is
    not known from the input: under faults a crashed INR restarts empty
    and refills, so it can hold any subset of the names. Adding records
    only adds attributes, so a record is returned from the fewest trees
    when the tree holds that record alone. This is the rule for that
    tree: wherever ``name`` carries a query attribute, one of its values
    equals the query's and their children match the same way; a query
    attribute ``name`` lacks is skipped. A wild-card value matches any
    value and, as in the paper, its children are ignored.
    """
    return _pairs_match(query.roots, name.roots)


def _pairs_match(query_pairs, name_pairs) -> bool:
    by_attribute: Dict[str, list] = {}
    for pair in name_pairs:
        by_attribute.setdefault(pair.attribute, []).append(pair)
    for wanted in query_pairs:
        candidates = by_attribute.get(wanted.attribute)
        if candidates is None or wanted.value == "*":
            continue
        if not any(
            wanted.value == have.value and _pairs_match(wanted.children, have.children)
            for have in candidates
        ):
            return False
    return True


def quantile(values: List[float], fraction: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def poisson_times(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Open-loop arrival times of a Poisson process over ``duration``."""
    times = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


@dataclass
class PhaseCounts:
    """Failure accounting for one phase of one workload."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    hung: int = 0


@dataclass
class Outcome:
    """What one repetition of a workload produced, in simulated terms.

    ``ops`` counts the measured phase's completed ops (failed ones do
    less work, so counting them would reward failure); the runner
    divides it by host time. Everything else is exact for a seed.
    """

    ops: int
    setup: PhaseCounts
    measured: PhaseCounts
    #: simulated op latencies in seconds (resolve or first delivery)
    latencies: List[float]
    #: extra simulated figures named by the workload (ratios, counts)
    figures: Dict[str, float] = field(default_factory=dict)
    #: what ``latencies`` time: "resolve" or "delivery"
    latency_kind: str = "resolve"

    def fingerprint(self) -> tuple:
        """Every simulated figure, for same-seed comparisons."""
        return (
            self.ops,
            tuple(asdict(self.setup).items()),
            tuple(asdict(self.measured).items()),
            tuple(self.latencies),
            tuple(sorted(self.figures.items())),
            self.latency_kind,
        )


def setup_counts(run: dict) -> PhaseCounts:
    """Setup-phase accounting, taken right after setup: a service's
    advertisement succeeded when every live INR holds its record."""
    services = run["initial"]
    counts = PhaseCounts(attempted=len(services))
    trees = [inr.trees["default"] for inr in run["domain"].live_inrs]
    for service in services:
        if all(service.announcer in tree for tree in trees):
            counts.succeeded += 1
        else:
            counts.failed += 1
    return counts


def _totals(domain: InsDomain) -> Dict[str, float]:
    links = [link for _, link in domain.network.links]
    collector = domain.collector
    return {
        "sim_events": domain.sim.events_processed,
        "wire_bytes": sum(link.stats.bytes for link in links),
        "link_drops": sum(link.stats.drops for link in links),
        "spans": len(collector.tracer.spans) if collector is not None else 0,
        "inr_busy_s": sum(inr.node.cpu.busy_seconds for inr in domain.inrs),
    }


def open_window(run: dict) -> None:
    """Mark the start of the measured phase in ``run``: the clock, the
    network totals and the stats counters reported as measured-phase
    deltas."""
    domain = run["domain"]
    run["window"] = (domain.now, _totals(domain))
    run["window_inr"] = merge_counts(inr.stats.snapshot() for inr in domain.inrs)
    run["window_client"] = merge_counts(
        client.stats.snapshot()
        for client in list(domain.clients) + list(domain.services)
    )


def domain_counters(run: dict) -> Dict[str, float]:
    """Simulated totals of the measured phase every workload reports:
    events, wire bytes, link drops, program spans and the INRs' CPU busy
    share."""
    domain = run["domain"]
    started, before = run["window"]
    after = _totals(domain)
    counters = {name: after[name] - before[name] for name in after}
    busy = counters.pop("inr_busy_s")
    counters["cpu_busy_ratio"] = busy / ((domain.now - started) * len(domain.inrs))
    return counters


# ----------------------------------------------------------------------
# query-steady
# ----------------------------------------------------------------------
@dataclass
class QuerySteady:
    """Early-binding resolves over a stable namespace, tracing on.

    The fields are the sizes the benchmark's tests shrink; the upper-case
    constants are the same for every run.
    """

    #: stable namespace, larger than the 1,024-entry lookup memo
    names: int = 2000
    #: half of all resolves go to this hot set
    hot: int = 64
    #: resolves per simulated second, Poisson arrivals
    rate: float = 800.0
    #: sends span ``duration``; ``duration + drain`` is one refresh
    #: interval, so every periodic timer fires once in the measured phase
    duration: float = 12.0
    #: simulated seconds after the last send for replies to land
    drain: float = 3.0

    name = "query-steady"
    INRS = 4
    #: services advertising each hot name (answers with several endpoints)
    HOT_REPLICAS = 2
    CLIENTS = 8
    DEPTH = 3
    #: INR CPU speed relative to the paper's Pentium II: a refresh batch
    #: of every name then blocks an INR for well under the client's
    #: 0.5 s request timeout, so the update plane stays a minority
    CPU_SPEED = 4.0

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        names = make_names(rng, self.names, self.DEPTH)
        hot = list(range(self.hot))
        # service index -> name index; the first names are the hot set
        advertisers = list(range(self.names)) + [
            index for index in hot for _ in range(self.HOT_REPLICAS - 1)
        ]
        schedule = []
        for t in poisson_times(rng, self.rate, self.duration):
            if rng.random() < 0.5:
                target = rng.choice(hot)
            else:
                target = rng.randrange(self.names)
            schedule.append((t, rng.randrange(self.CLIENTS), target))
        return {
            "seed": seed,
            "names": names,
            "keys": [name.canonical_key() for name in names],
            "advertisers": advertisers,
            "schedule": schedule,
        }

    def setup(self, inputs: dict):
        domain = InsDomain(seed=inputs["seed"])
        domain.observe()
        inrs = [domain.add_inr(cpu_speed=self.CPU_SPEED) for _ in range(self.INRS)]
        services = []
        for index, name_index in enumerate(inputs["advertisers"]):
            services.append(
                domain.add_service(
                    inputs["names"][name_index].copy(),
                    resolver=inrs[index % self.INRS],
                )
            )
        clients = [
            domain.add_client(resolver=inrs[index % self.INRS])
            for index in range(self.CLIENTS)
        ]
        # One refresh interval lets every advertisement propagate and
        # warms the caches. The INRs' timers start while they join
        # (t = 0..4 s) and the services' at t = 4 s, so running 1.4
        # intervals starts the measured phase mid-way between refresh
        # rounds, well clear of the timers' jitter.
        domain.run(1.4 * domain.config.refresh_interval)
        return {
            "domain": domain,
            "inputs": inputs,
            "services": services,
            "initial": services,
            "clients": clients,
            "replies": [],
        }

    def measure(self, run: dict) -> None:
        domain = run["domain"]
        inputs = run["inputs"]
        names = inputs["names"]
        clients = run["clients"]
        replies = run["replies"]
        open_window(run)
        start = domain.now

        def send(client_index: int, name_index: int) -> None:
            reply = clients[client_index].resolve_early(names[name_index])
            replies.append((domain.now, name_index, reply, _settle_time(domain, reply)))

        for t, client_index, name_index in inputs["schedule"]:
            domain.sim.at(start + t, send, client_index, name_index)
        domain.run(self.duration + self.drain)

    def outcome(self, run: dict) -> Outcome:
        inputs = run["inputs"]
        keys = inputs["keys"]
        expected: Dict[tuple, Set[Tuple[str, int]]] = {}
        for service, name_index in zip(run["services"], inputs["advertisers"]):
            expected.setdefault(keys[name_index], set()).add(
                (service.address, service.port)
            )
        measured = PhaseCounts(attempted=len(run["replies"]))
        latencies = []
        for sent_at, name_index, reply, settled in run["replies"]:
            if reply.done:
                got = {(ep.host, ep.port) for ep, _metric in reply.value}
                want = expected[keys[name_index]]
                if got != want:
                    raise CheckFailed(
                        f"resolve of name #{name_index} at t={sent_at:.6f} "
                        f"returned {sorted(got)}, input says {sorted(want)}"
                    )
                measured.succeeded += 1
                latencies.append(settled[0] - sent_at)
            elif reply.failed:
                measured.failed += 1
            else:
                measured.hung += 1
        figures = domain_counters(run)
        return Outcome(
            ops=measured.succeeded,
            setup=run["setup_counts"],
            measured=measured,
            latencies=latencies,
            figures=figures,
        )


def _settle_time(domain: InsDomain, reply) -> list:
    """A one-slot list filled with the virtual time ``reply`` resolves."""
    slot: list = []
    reply.then(lambda _value: slot.append(domain.now))
    return slot


# ----------------------------------------------------------------------
# update-churn
# ----------------------------------------------------------------------
@dataclass
class UpdateChurn:
    """Renames, metric changes, joins and leaves on a short refresh.

    The fields are the sizes the benchmark's tests shrink; the upper-case
    constants are the same for every run.
    """

    services: int = 1500
    #: renames + metric changes + joins + leaves per simulated second
    change_rate: float = 40.0
    #: resolves per simulated second, aimed at recently changed names
    resolve_rate: float = 50.0
    #: ``duration + DRAIN`` is two refresh intervals
    duration: float = 7.0

    name = "update-churn"
    INRS = 6
    CLIENTS = 3
    DEPTH = 3
    REFRESH_INTERVAL = 5.0
    RECORD_LIFETIME = 15.0
    DRAIN = 3.0
    #: a resolve targets a change made this many seconds ago at most
    RECENT_WINDOW = 3.0
    #: share of changes per kind; the rest are metric changes
    RENAME, JOIN, LEAVE = 0.4, 0.1, 0.1

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        change_times = poisson_times(rng, self.change_rate, self.duration)
        # Enough fresh names for every rename and join up front.
        names = make_names(rng, self.services + len(change_times), self.DEPTH)
        fresh = iter(range(self.services, len(names)))
        alive = list(range(self.services))  # service ids currently up
        next_service = self.services
        changes = []  # (t, kind, service id, name index or metric)
        for t in change_times:
            draw = rng.random()
            if draw < self.RENAME:
                changes.append((t, "rename", rng.choice(alive), next(fresh)))
            elif draw < self.RENAME + self.JOIN:
                changes.append((t, "join", next_service, next(fresh)))
                alive.append(next_service)
                next_service += 1
            elif draw < self.RENAME + self.JOIN + self.LEAVE and len(alive) > 1:
                victim = alive.pop(rng.randrange(len(alive)))
                changes.append((t, "leave", victim, None))
            else:
                changes.append((t, "metric", rng.choice(alive), rng.randrange(100)))
        # Resolves aim at names touched by a change in the last few
        # seconds: the new name of a rename or join, or the old name of
        # a rename or leave.
        resolves = []
        touched: List[Tuple[float, int]] = []
        owner = {index: index for index in range(self.services)}  # service -> name
        change_iter = iter(changes)
        pending = next(change_iter, None)
        for t in poisson_times(rng, self.resolve_rate, self.duration):
            while pending is not None and pending[0] <= t:
                ct, kind, service_id, arg = pending
                if kind in ("rename", "leave"):
                    touched.append((ct, owner[service_id]))
                if kind in ("rename", "join"):
                    owner[service_id] = arg
                    touched.append((ct, arg))
                pending = next(change_iter, None)
            recent = [index for ct, index in touched if t - ct <= self.RECENT_WINDOW]
            if recent:
                resolves.append((t, rng.randrange(self.CLIENTS), rng.choice(recent)))
        return {
            "seed": seed,
            "names": names,
            "keys": [name.canonical_key() for name in names],
            "changes": changes,
            "resolves": resolves,
        }

    def config(self) -> InrConfig:
        return InrConfig(
            refresh_interval=self.REFRESH_INTERVAL,
            record_lifetime=self.RECORD_LIFETIME,
            expiry_sweep_interval=self.REFRESH_INTERVAL / 2.0,
        )

    def setup(self, inputs: dict):
        domain = InsDomain(seed=inputs["seed"], config=self.config())
        # Joining 0.2 s apart keeps the INRs' refresh timers within the
        # first quarter of the interval (services start at its end).
        inrs = [domain.add_inr(settle=0.2) for _ in range(self.INRS)]
        services = {}
        for index in range(self.services):
            services[index] = domain.add_service(
                inputs["names"][index].copy(), resolver=inrs[index % self.INRS]
            )
        clients = [
            domain.add_client(resolver=inrs[index % self.INRS])
            for index in range(self.CLIENTS)
        ]
        # Two refresh intervals to converge, plus 0.4 so the measured
        # phase (a whole number of intervals) starts mid-way between
        # refresh rounds: every timer fires equally often in it.
        domain.run(2.4 * self.REFRESH_INTERVAL)
        return {
            "domain": domain,
            "inrs": inrs,
            "inputs": inputs,
            "services": services,
            "initial": list(services.values()),
            "clients": clients,
            # ground truth: (virtual time, service id, name index or None)
            "log": [(domain.now, sid, sid) for sid in services],
            "replies": [],
            "adverts_before": 0,
        }

    def measure(self, run: dict) -> None:
        domain = run["domain"]
        inputs = run["inputs"]
        names = inputs["names"]
        services = run["services"]
        inrs = run["inrs"]
        log = run["log"]
        replies = run["replies"]
        open_window(run)
        start = domain.now
        run["adverts_before"] = sum(s.advertisements_sent for s in services.values())

        def change(kind: str, service_id: int, arg) -> None:
            if kind == "rename":
                services[service_id].rename(names[arg].copy())
                log.append((domain.now, service_id, arg))
            elif kind == "join":
                services[service_id] = domain.add_service(
                    names[arg].copy(), resolver=inrs[service_id % self.INRS]
                )
                log.append((domain.now, service_id, arg))
            elif kind == "leave":
                services[service_id].stop()
                log.append((domain.now, service_id, None))
            else:
                services[service_id].set_metric(float(arg))

        def resolve(client_index: int, name_index: int) -> None:
            reply = run["clients"][client_index].resolve_early(names[name_index])
            replies.append((domain.now, name_index, reply, _settle_time(domain, reply)))

        for t, kind, service_id, arg in inputs["changes"]:
            domain.sim.at(start + t, change, kind, service_id, arg)
        for t, client_index, name_index in inputs["resolves"]:
            domain.sim.at(start + t, resolve, client_index, name_index)
        domain.run(self.duration + self.DRAIN)

    def outcome(self, run: dict) -> Outcome:
        domain = run["domain"]
        inputs = run["inputs"]
        names = inputs["names"]
        keys = inputs["keys"]
        services = run["services"]
        endpoint = {
            sid: (service.address, service.port) for sid, service in services.items()
        }
        by_endpoint = {value: sid for sid, value in endpoint.items()}
        # Per service: the (time, name index) history of what it
        # advertised; None once it left.
        history: Dict[int, List[Tuple[float, Optional[int]]]] = {}
        for at, sid, name_index in run["log"]:
            history.setdefault(sid, []).append((at, name_index))

        def name_at(sid: int, at: float) -> Optional[int]:
            current = None
            for changed_at, name_index in history[sid]:
                if changed_at > at:
                    break
                current = name_index
            return current

        measured = PhaseCounts(attempted=len(run["replies"]))
        latencies = []
        stale = 0
        for sent_at, name_index, reply, settled in run["replies"]:
            if not reply.done:
                if reply.failed:
                    measured.failed += 1
                else:
                    measured.hung += 1
                continue
            got = {(ep.host, ep.port) for ep, _metric in reply.value}
            for host_port in got:
                sid = by_endpoint.get(host_port)
                if sid is None or not any(
                    had is not None and name_matches(names[name_index], names[had])
                    for _, had in history[sid]
                ):
                    raise CheckFailed(
                        f"resolve of name #{name_index} at t={sent_at:.6f} "
                        f"returned {host_port}, which never advertised a match"
                    )
            key = keys[name_index]
            truth = {
                endpoint[sid]
                for sid in history
                if name_at(sid, sent_at) is not None
                and keys[name_at(sid, sent_at)] == key
            }
            if got != truth:
                stale += 1
            measured.succeeded += 1
            latencies.append(settled[0] - sent_at)
        adverts = (
            sum(s.advertisements_sent for s in services.values())
            - run["adverts_before"]
        )
        changes = len(inputs["changes"])
        figures = domain_counters(run)
        figures.update(
            {
                "changes": changes,
                "refreshes": adverts,
                "stale_answers": stale,
                "stale_answer_ratio": stale / measured.succeeded
                if measured.succeeded
                else 0.0,
            }
        )
        return Outcome(
            ops=changes + adverts,
            setup=run["setup_counts"],
            measured=measured,
            latencies=latencies,
            figures=figures,
        )


# ----------------------------------------------------------------------
# anycast-faults
# ----------------------------------------------------------------------
@dataclass
class AnycastFaults:
    """Late-binding anycast/multicast under one composed fault plan.

    The fields are the sizes the benchmark's tests shrink; the upper-case
    constants are the same for every run.
    """

    #: late-binding sends per simulated second, Poisson arrivals
    rate: float = 100.0
    duration: float = 30.0
    #: custody retries and client failover need time to settle
    drain: float = 15.0

    name = "anycast-faults"
    INRS = 6
    NAMES = 20
    DEPTH = 2
    #: services advertising each name
    REPLICAS = 2
    #: one client per INR: a crash then cuts off one client's sends,
    #: whichever INR the plan picks
    CLIENTS = INRS
    MULTICAST_SHARE = 0.2
    PAYLOAD_BYTES = 64
    #: soft-state refresh; the chaos clocks scale with it
    REFRESH_INTERVAL = 1.0
    #: INR CPU speed relative to the paper's Pentium II: keeps the hub
    #: INR of the overlay tree out of saturation at this send rate
    CPU_SPEED = 4.0

    def config(self) -> InrConfig:
        base = fast_chaos_config(refresh_interval=self.REFRESH_INTERVAL)
        return replace(
            base,
            enable_custody=True,
            custody_capacity=256,
            custody_ttl=20.0,
            custody_retry_interval=0.5,
            custody_suspect_silence=2.5,
            partition_grace=2.0 * base.record_lifetime,
        )

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        names = make_names(rng, self.NAMES, self.DEPTH)
        sends = []
        for t in poisson_times(rng, self.rate, self.duration):
            multicast = rng.random() < self.MULTICAST_SHARE
            sends.append((t, rng.randrange(self.CLIENTS), rng.randrange(self.NAMES), multicast))
        inr_addresses = [f"inr-{index + 1}" for index in range(self.INRS)]
        links = [
            (a, b) for i, a in enumerate(inr_addresses) for b in inr_addresses[i + 1:]
        ]
        plan = FaultPlan.random(
            seed=rng.randrange(2**31),
            inr_addresses=inr_addresses,
            link_pairs=links,
            duration=self.duration,
            crash_fraction=0.2,
            flap_fraction=0.15,
            restart_after=6.0,
            flap_length=5.0,
            link_fault_fraction=0.3,
            duplicate_rate=0.1,
            reorder_rate=0.1,
            loss_rate=0.05,
        )
        return {
            "seed": seed,
            "names": names,
            "keys": [name.canonical_key() for name in names],
            "sends": sends,
            "plan": plan,
        }

    def setup(self, inputs: dict):
        config = self.config()
        domain = InsDomain(
            seed=inputs["seed"],
            config=config,
            dsr_registration_lifetime=3.0 * config.heartbeat_interval,
            dsr_sweep_interval=max(0.5, config.heartbeat_interval / 2.0),
        )
        inrs = [domain.add_inr(cpu_speed=self.CPU_SPEED) for _ in range(self.INRS)]
        services = []
        service_names = []
        for index in range(self.NAMES * self.REPLICAS):
            name_index = index % self.NAMES
            services.append(
                domain.add_service(
                    inputs["names"][name_index].copy(),
                    resolver=inrs[index % self.INRS],
                    refresh_interval=config.refresh_interval,
                    lifetime=config.record_lifetime,
                )
            )
            service_names.append(name_index)
        clients = [
            domain.add_client(resolver=inrs[index % self.INRS])
            for index in range(self.CLIENTS)
        ]
        domain.run(config.refresh_interval * 3)
        deliveries: Dict[Tuple[int, int], List[float]] = {}
        for service_index, service in enumerate(services):
            service.on_message(_delivery_recorder(domain, deliveries, service_index))
        return {
            "domain": domain,
            "inputs": inputs,
            "services": services,
            "initial": services,
            "service_names": service_names,
            "clients": clients,
            "deliveries": deliveries,
            "controller": None,
        }

    def measure(self, run: dict) -> None:
        domain = run["domain"]
        inputs = run["inputs"]
        names = inputs["names"]
        clients = run["clients"]
        controller = ChaosController(domain)
        run["controller"] = controller
        open_window(run)
        controller.execute(inputs["plan"])
        start = domain.now
        pad = self.PAYLOAD_BYTES - 12

        def send(sequence: int, client_index: int, name_index: int, multicast: bool) -> None:
            data = struct.pack(">Id", sequence, domain.now) + bytes(pad)
            client = clients[client_index]
            if client.resolver is None:
                return  # mid-failover: the send is lost, counted undelivered
            if multicast:
                client.send_multicast(names[name_index], data=data)
            else:
                client.send_anycast(names[name_index], data=data)

        for sequence, (t, client_index, name_index, multicast) in enumerate(inputs["sends"]):
            domain.sim.at(start + t, send, sequence, client_index, name_index, multicast)
        domain.run(self.duration + self.drain)

    def outcome(self, run: dict) -> Outcome:
        domain = run["domain"]
        inputs = run["inputs"]
        names = inputs["names"]
        service_names = run["service_names"]
        deliveries = run["deliveries"]
        sends = inputs["sends"]
        for (sequence, service_index), _times in deliveries.items():
            if sequence >= len(sends):
                raise CheckFailed(f"service #{service_index} got unknown message {sequence}")
            wanted = names[sends[sequence][2]]
            have = names[service_names[service_index]]
            if not name_matches(wanted, have):
                raise CheckFailed(
                    f"message {sequence} for {wanted} delivered to service "
                    f"#{service_index} named {have}"
                )
        first: Dict[int, float] = {}
        copies = 0
        max_copies = 0
        for (sequence, _service_index), times in deliveries.items():
            first[sequence] = min(first.get(sequence, math.inf), times[0])
            copies += len(times) - 1
            max_copies = max(max_copies, len(times))
        measured = PhaseCounts(attempted=len(sends))
        latencies = []
        for sequence in range(len(sends)):
            if sequence in first:
                measured.succeeded += 1
                latencies.append(first[sequence])
            else:
                measured.failed += 1
        figures = domain_counters(run)
        figures.update(
            {
                "unique_deliveries": len(deliveries),
                "duplicate_deliveries": copies,
                "dup_delivery_ratio": copies / len(deliveries) if deliveries else 0.0,
                "max_copies": max_copies,
                "faults_applied": len(run["controller"].applied),
            }
        )
        return Outcome(
            ops=measured.succeeded,
            setup=run["setup_counts"],
            measured=measured,
            latencies=latencies,
            figures=figures,
            latency_kind="delivery",
        )


def _delivery_recorder(domain: InsDomain, deliveries: dict, service_index: int):
    """A service message handler logging the latency of every copy."""

    def on_message(message, _source) -> None:
        sequence, sent_at = struct.unpack_from(">Id", message.data)
        deliveries.setdefault((sequence, service_index), []).append(
            domain.now - sent_at
        )

    return on_message


WORKLOADS = {
    workload.name: workload
    for workload in (QuerySteady(), UpdateChurn(), AnycastFaults())
}
