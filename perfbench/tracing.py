"""The traced run: host time per layer, measured from outside.

:class:`LayerTracer` patches the public entry points of each layer (and
wraps every simulator event callback, attributed to the module that
owns it) for the duration of a ``with`` block, then restores the
originals. Each call records a span (name, start, end, parent) in
compact in-memory arrays; self time per span name is accumulated as
the run goes, so the per-layer split needs no second pass. Nothing in
the program changes: the same seed gives the same simulated results
traced or untraced, which the runner checks.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.client import InsClient
from repro.dtn import CustodyStore
from repro.experiments import InsDomain
from repro.message import InsMessage
from repro.nametree import NameTree
from repro.naming import NameSpecifier
from repro.netsim import Network, Simulator
from repro.netsim.process import PeriodicTimer
from repro.obs import Tracer
from repro.overlay import DomainSpaceResolver
from repro.resolver import INR

#: The layers a span name can start with, in report order. "bench" is
#: the benchmark's own scheduled callbacks.
LAYERS = (
    "netsim",
    "naming",
    "nametree",
    "message",
    "resolver",
    "client",
    "overlay",
    "dtn",
    "obs",
    "experiments",
    "chaos",
    "bench",
)

#: (owner, attribute, span name) of every wrapped public entry point.
ENTRY_POINTS: Tuple[Tuple[type, str, str], ...] = (
    (Simulator, "run", "netsim.run"),
    (Network, "send", "netsim.send"),
    (NameSpecifier, "to_wire", "naming.to_wire"),
    (NameSpecifier, "parse", "naming.parse"),
    (NameSpecifier, "canonical_key", "naming.canonical_key"),
    (NameTree, "lookup", "nametree.lookup"),
    (NameTree, "insert", "nametree.insert"),
    (NameTree, "get_name", "nametree.get_name"),
    (NameTree, "expire", "nametree.expire"),
    (InsMessage, "encode", "message.encode"),
    (InsMessage, "decode", "message.decode"),
    (INR, "handle_message", "resolver.handle"),
    (InsClient, "handle_message", "client.handle"),
    (InsClient, "resolve_early", "client.resolve_early"),
    (InsClient, "send_anycast", "client.send_anycast"),
    (InsClient, "send_multicast", "client.send_multicast"),
    (DomainSpaceResolver, "handle_message", "overlay.handle"),
    (CustodyStore, "accept", "dtn.custody"),
    (CustodyStore, "expire", "dtn.custody"),
    (CustodyStore, "release", "dtn.custody"),
    (CustodyStore, "entries", "dtn.custody"),
    (CustodyStore, "drain", "dtn.custody"),
    (CustodyStore, "adopt", "dtn.custody"),
    (Tracer, "start_span", "obs.start_span"),
    (Tracer, "end_span", "obs.end_span"),
    (Tracer, "annotate", "obs.annotate"),
    (InsDomain, "__init__", "experiments.build"),
    (InsDomain, "add_inr", "experiments.build"),
    (InsDomain, "add_service", "experiments.build"),
    (InsDomain, "add_client", "experiments.build"),
    (InsDomain, "run", "experiments.run"),
)


class MissingEntryPoint(LookupError):
    """An entry point in :data:`ENTRY_POINTS` is gone from its class."""


def find_entry_point(owner: type, attribute: str):
    """The raw class attribute (function, classmethod, ...) ``owner``
    resolves ``attribute`` to along its MRO, so inherited methods are
    wrapped too. A missing one raises: silently skipping it would read
    as that layer getting faster."""
    for klass in owner.__mro__:
        if attribute in klass.__dict__:
            return klass.__dict__[attribute]
    raise MissingEntryPoint(
        f"{owner.__module__}.{owner.__qualname__}.{attribute} no longer exists; "
        "update ENTRY_POINTS in perfbench/tracing.py"
    )


def layer_of_module(module: str) -> str:
    """``repro.resolver.inr`` -> ``resolver``; anything else is the
    benchmark's own code."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "bench"


def callback_function(callback: Callable):
    """The function that decides who owns an event callback: a periodic
    timer belongs to whoever handed it its callback, a partial or a
    bound method to its function."""
    while True:
        holder = getattr(callback, "__self__", None)
        if isinstance(holder, PeriodicTimer):
            callback = holder._callback
        elif isinstance(callback, functools.partial):
            callback = callback.func
        else:
            return getattr(callback, "__func__", callback)


class LayerTracer:
    """Span recorder and the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.kinds = array("l")
        #: [span index, child seconds, name id] per open span
        self._stack: List[list] = []
        #: phase -> name id -> [calls, inclusive s, self s]
        self.totals: Dict[str, Dict[int, List[float]]] = {}
        self._phase: Dict[int, List[float]] = {}
        #: phase -> [most events pending right after a push in it]
        self.heap_peaks: Dict[str, List[int]] = {}
        self._peak = [0]
        #: (owner, attribute, its own attribute or None if inherited)
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def phase(self, label: str) -> None:
        """Start accumulating totals and the heap peak under ``label``."""
        self._phase = self.totals.setdefault(label, defaultdict(lambda: [0, 0.0, 0.0]))
        self._peak = self.heap_peaks.setdefault(label, [0])

    def enter(self, kind: int) -> None:
        index = len(self.starts)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.kinds.append(kind)
        self.ends.append(0.0)
        self._stack.append([index, 0.0, kind])
        self.starts.append(perf_counter())

    def leave(self) -> None:
        end = perf_counter()
        index, children, kind = self._stack.pop()
        self.ends[index] = end
        duration = end - self.starts[index]
        total = self._phase[kind]
        total[0] += 1
        total[1] += duration
        total[2] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def traced(self, name: str, function: Callable) -> Callable:
        kind = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            enter(kind)
            try:
                return function(*args, **kwargs)
            finally:
                leave()

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        # Find every entry point before patching any, so a missing one
        # leaves the classes untouched.
        found = [
            (owner, attribute, name, find_entry_point(owner, attribute))
            for owner, attribute, name in ENTRY_POINTS
        ]
        for owner, attribute, name, raw in found:
            self._saved.append((owner, attribute, owner.__dict__.get(attribute)))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.traced(name, raw.__func__))
            else:
                wrapped = self.traced(name, raw)
            setattr(owner, attribute, wrapped)
        self._patch_scheduler()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, own in reversed(self._saved):
            if own is None:
                delattr(owner, attribute)  # inherited: unshadow the base's
            else:
                setattr(owner, attribute, own)
        self._saved = []

    def _patch_scheduler(self) -> None:
        """Wrap every callback at scheduling time in an event span named
        after the layer that owns it."""
        original = Simulator.__dict__["at"]
        self._saved.append((Simulator, "at", original))
        event_kinds = {layer: self.name_id(layer + ".event") for layer in LAYERS}
        owners: Dict[object, int] = {}
        enter, leave = self.enter, self.leave

        def at(sim, time, callback, *args):
            function = callback_function(callback)
            # Keyed by code object: closures made per event share one.
            key = getattr(function, "__code__", function)
            kind = owners.get(key)
            if kind is None:
                module = getattr(function, "__module__", None) or ""
                kind = owners[key] = event_kinds[layer_of_module(module)]

            def event(*event_args):
                enter(kind)
                try:
                    callback(*event_args)
                finally:
                    leave()

            scheduled = original(sim, time, event, *args)
            peak = self._peak
            if sim.pending_events > peak[0]:
                peak[0] = sim.pending_events
            return scheduled

        Simulator.at = at

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def heap_peak(self, phase: str) -> int:
        return self.heap_peaks.get(phase, [0])[0]

    def calls(self, phase: str, name: str) -> int:
        return int(self._total(phase, name)[0])

    def inclusive_s(self, phase: str, name: str) -> float:
        return self._total(phase, name)[1]

    def self_s(self, phase: str, name: str) -> float:
        return self._total(phase, name)[2]

    def _total(self, phase: str, name: str) -> List[float]:
        kind = self._ids.get(name)
        totals = self.totals.get(phase, {})
        if kind is None or kind not in totals:
            return [0, 0.0, 0.0]
        return totals[kind]

    def layer_self_s(self, phase: str) -> Dict[str, float]:
        """Self seconds per layer in ``phase``."""
        per_layer = {layer: 0.0 for layer in LAYERS}
        for kind, (_calls, _inclusive, own) in self.totals.get(phase, {}).items():
            per_layer[self.names[kind].split(".")[0]] += own
        return per_layer

    def write(self, path) -> int:
        """Write every span as ``name,start,end,parent`` CSV (gzip),
        times in seconds from the first span. Returns the span count."""
        origin = self.starts[0] if self.starts else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start,end,parent\n")
            for index in range(len(self.starts)):
                handle.write(
                    f"{names[self.kinds[index]]},{self.starts[index] - origin:.9f},"
                    f"{self.ends[index] - origin:.9f},{self.parents[index]}\n"
                )
        return len(self.starts)
