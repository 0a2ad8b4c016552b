"""The repo's benchmark: one INS workload, end to end, from one process.

Usage::

    python3 perfbench/run.py --workload query-steady --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats set-up plus the measured phase until ``--seconds``
of host time have passed (at least :data:`MIN_REPS` times) and prints
the end-to-end metrics: the median set-up time, the median of completed
ops per host second of the measured phase, both at the reference host's
speed (see :class:`HostClock`), and the peak resident memory.
``--trace 1`` runs the workload once untraced and once under
:class:`tracing.LayerTracer` and prints the per-layer metrics in raw
host seconds; it also writes every span to ``perfbench/out/``.

Every line but the last is a human-readable report: the simulated
metrics (latency percentiles, failed, stale and duplicate ratios), each
with its sample count, and failure accounting per phase. They are exact
for a seed, and every repetition must reproduce them. The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed correctness check prints ``"correct": false`` and
exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import random
import resource
import signal
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Repetitions per untraced run, whatever ``--seconds`` says, so every
#: host-time median has at least this many samples.
MIN_REPS = 3

#: Seconds :func:`reference_work` takes on the reference host.
REFERENCE_S = 0.004

#: Host seconds between two samples of :class:`HostClock`.
SAMPLE_PERIOD = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no INS sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.trace:
            report, result = traced_run(workload, args.seed)
        else:
            report, result = untraced_run(workload, args.seed, args.seconds)
    except workloads.CheckFailed as failure:
        print(f"correctness check failed: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}, indent=1))
    print(json.dumps(result))
    return 0


_RNG = random.Random(7)
_ITEMS = tuple((_RNG.random(), i) for i in range(3000))


def reference_work(heap: list) -> int:
    """Fixed pure-Python heap work in the caller's ``heap`` list,
    independent of the program under test."""
    heap[:] = _ITEMS
    heapq.heapify(heap)
    total = 0
    while heap:
        _t, i = heapq.heappop(heap)
        total += i * i % 7
    return total


class HostClock:
    """Host seconds of a block of code at the reference host's speed.

    On a shared two-vCPU VM the speed of pure-Python code changed by 2x
    or more within a second, which no run length averages out. So while
    the block runs, a timer signal runs :func:`reference_work` every
    :data:`SAMPLE_PERIOD` seconds. The time between two samples is
    scaled by ``REFERENCE_S`` over their mean duration, and the samples'
    own time is left out. The samples touch no program state; the
    repetitions of a run, which sample at different moments, must agree
    on every simulated figure.
    """

    def __init__(self) -> None:
        #: (start, end) host time of every sample
        self.samples: list = []
        self._sampling = False
        self._heap: list = []

    def sample(self, *_signal) -> None:
        if self._sampling:
            return  # the timer fired inside a sample
        self._sampling = True
        started = perf_counter()
        reference_work(self._heap)
        self.samples.append((started, perf_counter()))
        self._sampling = False

    def __enter__(self) -> "HostClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def seconds(self):
        """(raw, scaled) host seconds of the block, samples left out."""
        raw = scaled = 0.0
        for (start0, end0), (start1, end1) in zip(self.samples, self.samples[1:]):
            gap = start1 - end0
            raw += gap
            scaled += gap * 2.0 * REFERENCE_S / ((end0 - start0) + (end1 - start1))
        return raw, scaled


def one_rep(workload, seed: int):
    """Set up and measure once on freshly generated inputs; returns
    (setup clock, measured clock, run, outcome)."""
    from workloads import setup_counts

    inputs = workload.generate(seed)
    gc.collect()
    with HostClock() as setup_clock:
        run = workload.setup(inputs)
    run["setup_counts"] = setup_counts(run)
    gc.collect()
    with HostClock() as measure_clock:
        workload.measure(run)
    return setup_clock, measure_clock, run, workload.outcome(run)


def untraced_run(workload, seed: int, seconds: float):
    from workloads import CheckFailed

    reps = []
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        setup_clock, measure_clock, run, outcome = one_rep(workload, seed)
        reps.append((setup_clock.seconds(), measure_clock.seconds(), outcome))
        del run
    first = reps[0][2]
    for *_times, outcome in reps[1:]:
        if outcome.fingerprint() != first.fingerprint():
            raise CheckFailed("two repetitions of one seed diverged in simulated time")
    setup_s = statistics.median(setup[1] for setup, _measure, _outcome in reps)
    ops_per_s = statistics.median(first.ops / measure[1] for _setup, measure, _outcome in reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report = sim_report(first)
    report["host"] = {
        "repetitions": len(reps),
        "raw_setup_s": [round(setup[0], 6) for setup, _m, _o in reps],
        "raw_measured_s": [round(measure[0], 6) for _s, measure, _o in reps],
        "setup_s": [round(setup[1], 6) for setup, _m, _o in reps],
        "measured_s": [round(measure[1], 6) for _s, measure, _o in reps],
        "ops": first.ops,
        "ops_per_s": round(ops_per_s, 3),
        "peak_rss_mb": round(peak_rss_mb, 3),
    }
    return report, result_line(first, metrics)


def quantile_ms(latencies, fraction: float) -> float:
    from workloads import quantile

    return quantile(latencies, fraction) * 1000.0


def sim_report(outcome) -> dict:
    """The simulated metrics of one outcome (latency percentiles, failed
    ratio, per-workload figures) with their sample counts, plus failure
    accounting per phase."""
    kind = outcome.latency_kind
    samples = len(outcome.latencies)
    measured = outcome.measured
    report = {
        f"{kind}_p50_ms": [round(quantile_ms(outcome.latencies, 0.50), 6), samples],
        f"{kind}_p99_ms": [round(quantile_ms(outcome.latencies, 0.99), 6), samples],
        "failed_ratio": [
            (measured.failed + measured.hung) / measured.attempted
            if measured.attempted
            else 0.0,
            measured.attempted,
        ],
        "phases": {
            "setup": asdict(outcome.setup),
            "measured": asdict(measured),
        },
        "figures": outcome.figures,
    }
    return report


def result_line(outcome, metrics: dict) -> dict:
    measured = outcome.measured
    return {
        "correct": True,
        "attempted": measured.attempted,
        "failed": measured.failed + measured.hung,
        "metrics": metrics,
    }


def traced_run(workload, seed: int):
    from tracing import LayerTracer
    from workloads import CheckFailed

    setup_clock, measure_clock, _run, plain = one_rep(workload, seed)
    del _run
    inputs = workload.generate(seed)
    gc.collect()
    with LayerTracer() as tracer:
        traced_setup_s, traced_measure_s, run = trace_phases(workload, inputs, tracer)
    outcome = workload.outcome(run)
    if outcome.fingerprint() != plain.fingerprint():
        raise CheckFailed("the traced run diverged from the untraced one in simulated time")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.csv.gz"
    span_count = tracer.write(spans_path)
    metrics = layer_metrics(tracer, run, outcome, traced_measure_s)
    # Raw host seconds, traced over untraced: a sampling clock would
    # land inside the spans it times.
    metrics["trace.overhead_ratio"] = (
        (traced_setup_s + traced_measure_s)
        / (setup_clock.seconds()[0] + measure_clock.seconds()[0]),
        "ratio",
    )
    report = sim_report(outcome)
    report["layers_measured_self_s"] = {
        layer: round(value, 6)
        for layer, value in sorted(
            tracer.layer_self_s("measured").items(), key=lambda item: -item[1]
        )
    }
    report["spans_written"] = [str(spans_path.relative_to(ROOT)), span_count]
    result = result_line(
        outcome, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    )
    return report, result


def trace_phases(workload, inputs: dict, tracer):
    """Set up and measure once with ``tracer`` patched in, each phase
    under its own label; returns (setup s, measured s, run)."""
    from workloads import setup_counts

    tracer.phase("setup")
    started = perf_counter()
    run = workload.setup(inputs)
    set_up = perf_counter()
    run["setup_counts"] = setup_counts(run)
    gc.collect()
    tracer.phase("measured")
    measuring = perf_counter()
    workload.measure(run)
    return set_up - started, perf_counter() - measuring, run


def layer_metrics(tracer, run: dict, outcome, measured_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit). Host times are
    self or inclusive seconds of the measured phase unless the name says
    setup; counts and the heap peak cover the measured phase too, taken
    from the program's public stats, except ``nametree.records``, the
    records held when it ends."""
    from repro.obs import merge_counts

    domain = run["domain"]
    inr_now = merge_counts(inr.stats.snapshot() for inr in domain.inrs)
    inr_then = run["window_inr"]
    clients = list(domain.clients) + list(domain.services)
    client_now = merge_counts(client.stats.snapshot() for client in clients)
    client_then = run["window_client"]

    def inr(field: str) -> float:
        return inr_now.get(field, 0) - inr_then.get(field, 0)

    def client(field: str) -> float:
        return client_now.get(field, 0) - client_then.get(field, 0)

    m = "measured"
    layer_self = tracer.layer_self_s(m)
    figures = outcome.figures
    events = figures["sim_events"]
    hits, misses = inr("lookup_memo_hits"), inr("lookup_memo_misses")
    requests = client("requests_sent")
    metrics = {
        "netsim.events": (events, "count"),
        "netsim.events_per_op": (events / outcome.ops, "count"),
        "netsim.self_s": (layer_self["netsim"], "s"),
        "netsim.send_calls": (tracer.calls(m, "netsim.send"), "count"),
        "netsim.send_s": (tracer.inclusive_s(m, "netsim.send"), "s"),
        "netsim.heap_peak": (tracer.heap_peak(m), "count"),
        "netsim.wire_bytes": (figures["wire_bytes"], "bytes"),
        "netsim.link_drops": (figures["link_drops"], "count"),
        "naming.to_wire_calls": (tracer.calls(m, "naming.to_wire"), "count"),
        "naming.to_wire_s": (tracer.inclusive_s(m, "naming.to_wire"), "s"),
        "naming.parse_calls": (tracer.calls(m, "naming.parse"), "count"),
        "naming.parse_s": (tracer.inclusive_s(m, "naming.parse"), "s"),
        "naming.canonical_key_s": (tracer.inclusive_s(m, "naming.canonical_key"), "s"),
        "naming.self_s": (layer_self["naming"], "s"),
        "nametree.lookup_calls": (tracer.calls(m, "nametree.lookup"), "count"),
        "nametree.lookup_s": (tracer.inclusive_s(m, "nametree.lookup"), "s"),
        "nametree.memo_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "nametree.insert_calls": (tracer.calls(m, "nametree.insert"), "count"),
        "nametree.insert_s": (tracer.inclusive_s(m, "nametree.insert"), "s"),
        "nametree.get_name_calls": (tracer.calls(m, "nametree.get_name"), "count"),
        "nametree.get_name_s": (tracer.inclusive_s(m, "nametree.get_name"), "s"),
        "nametree.expire_s": (tracer.inclusive_s(m, "nametree.expire"), "s"),
        "nametree.records": (
            sum(len(tree) for one in domain.inrs for tree in one.trees.values()),
            "count",
        ),
        "nametree.self_s": (layer_self["nametree"], "s"),
        "message.encode_calls": (tracer.calls(m, "message.encode"), "count"),
        "message.encode_s": (tracer.inclusive_s(m, "message.encode"), "s"),
        "message.decode_calls": (tracer.calls(m, "message.decode"), "count"),
        "message.decode_s": (tracer.inclusive_s(m, "message.decode"), "s"),
        "message.self_s": (layer_self["message"], "s"),
        "resolver.handle_calls": (tracer.calls(m, "resolver.handle"), "count"),
        "resolver.handle_self_s": (tracer.self_s(m, "resolver.handle"), "s"),
        "resolver.timer_self_s": (tracer.self_s(m, "resolver.event"), "s"),
        "resolver.self_s": (layer_self["resolver"], "s"),
        "resolver.update_names_processed": (inr("update_names_processed"), "count"),
        "resolver.queries_served": (inr("queries_served"), "count"),
        "resolver.packets_forwarded": (inr("packets_forwarded"), "count"),
        "resolver.drops": (inr("packets_dropped"), "count"),
        "resolver.cpu_busy_ratio": (figures["cpu_busy_ratio"], "ratio"),
        "client.self_s": (layer_self["client"], "s"),
        "client.attempts_per_request": (
            client("attempts_sent") / requests if requests else 0.0,
            "ratio",
        ),
        "client.retries": (client("retries"), "count"),
        "client.failovers": (client("failovers"), "count"),
        "dtn.custody_accepted": (inr("custody_accepted"), "count"),
        "dtn.custody_released": (inr("custody_released"), "count"),
        "dtn.custody_dropped": (
            inr("drops_custody_expired")
            + inr("drops_custody_evicted")
            + inr("drops_custody_transfer_failed"),
            "count",
        ),
        "dtn.self_s": (layer_self["dtn"], "s"),
        "obs.spans": (figures["spans"], "count"),
        "obs.self_s": (layer_self["obs"], "s"),
        "overlay.self_s": (layer_self["overlay"], "s"),
        "overlay.setup_self_s": (tracer.layer_self_s("setup")["overlay"], "s"),
        "overlay.messages": (tracer.calls(m, "overlay.handle"), "count"),
        "experiments.build_s": (tracer.inclusive_s("setup", "experiments.build"), "s"),
        "experiments.settle_s": (tracer.inclusive_s("setup", "experiments.run"), "s"),
        "experiments.self_s": (layer_self["experiments"], "s"),
        "chaos.faults_applied": (figures.get("faults_applied", 0), "count"),
        "bench.self_s": (layer_self["bench"], "s"),
        "trace.measured_s": (measured_s, "s"),
        "trace.unattributed_s": (measured_s - sum(layer_self.values()), "s"),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
