"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use shrunken workload sizes so they finish in about a minute; the
subprocess tests run ``run.py`` itself at full size on the cheapest
workload.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree  # noqa: E402
from workloads import (  # noqa: E402
    AnycastFaults,
    CheckFailed,
    QuerySteady,
    UpdateChurn,
    setup_counts,
)

SMALL = {
    "query-steady": QuerySteady(names=300, hot=16, rate=200.0, duration=2.0, drain=2.0),
    "update-churn": UpdateChurn(services=150, change_rate=20.0, resolve_rate=20.0, duration=4.0),
    "anycast-faults": AnycastFaults(rate=30.0, duration=10.0, drain=8.0),
}


def run_once(workload, seed: int = 3):
    inputs = workload.generate(seed)
    run = workload.setup(inputs)
    run["setup_counts"] = setup_counts(run)
    workload.measure(run)
    return run


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_simulated_metrics(name):
    workload = SMALL[name]
    first = workload.outcome(run_once(workload))
    second = workload.outcome(run_once(workload))
    assert first.fingerprint() == second.fingerprint()
    assert first.measured.attempted > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced(name):
    workload = SMALL[name]
    report, result = runner.traced_run(workload, seed=3)
    assert result["correct"] is True
    # traced_run raises CheckFailed when the fingerprints differ; the
    # per-layer split must also account for the measured phase.
    metrics = result["metrics"]
    assert metrics["netsim.events"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


#: Entry points each workload's measured phase must call. Every set-up
#: calls the ``SETUP_USES`` ones.
MEASURED_USES = {
    "query-steady": {
        "netsim.run", "netsim.send", "naming.to_wire", "naming.canonical_key",
        "nametree.lookup", "resolver.handle", "client.handle",
        "client.resolve_early", "obs.start_span", "obs.end_span", "obs.annotate",
        "experiments.run",
    },
    "update-churn": {
        "netsim.send", "naming.to_wire", "naming.canonical_key", "nametree.insert",
        "nametree.get_name", "nametree.expire", "resolver.handle",
        "client.resolve_early", "experiments.build", "experiments.run",
    },
    "anycast-faults": {
        "netsim.send", "naming.parse", "message.encode", "message.decode",
        "resolver.handle", "client.handle", "client.send_anycast",
        "client.send_multicast", "dtn.custody", "overlay.handle",
    },
}
SETUP_USES = {"experiments.build", "experiments.run", "overlay.handle"}


def test_every_entry_point_is_expected_somewhere():
    expected = SETUP_USES.union(*MEASURED_USES.values())
    assert expected == {name for *_owner, name in tracing.ENTRY_POINTS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_entry_points_are_called_where_expected(name):
    workload = SMALL[name]
    inputs = workload.generate(3)
    with tracing.LayerTracer() as tracer:
        runner.trace_phases(workload, inputs, tracer)
    for phase, uses in (("setup", SETUP_USES), ("measured", MEASURED_USES[name])):
        idle = sorted(span for span in uses if tracer.calls(phase, span) == 0)
        assert idle == [], f"{phase} phase never called {idle}"
        assert tracer.heap_peak(phase) > 0


def test_missing_entry_point_fails_and_patches_nothing(monkeypatch):
    lookup = NameTree.__dict__["lookup"]
    monkeypatch.setattr(
        tracing, "ENTRY_POINTS",
        ((NameTree, "lookup", "nametree.lookup"), (NameTree, "gone", "nametree.gone")),
    )
    with pytest.raises(tracing.MissingEntryPoint):
        with tracing.LayerTracer():
            pass
    assert NameTree.__dict__["lookup"] is lookup


def test_inherited_entry_point_is_wrapped_then_unshadowed(monkeypatch):
    class Base:
        def work(self):
            return 7

    class Child(Base):
        pass

    monkeypatch.setattr(tracing, "ENTRY_POINTS", ((Child, "work", "bench.work"),))
    with tracing.LayerTracer() as tracer:
        tracer.phase("measured")
        assert Child().work() == 7
    assert tracer.calls("measured", "bench.work") == 1
    assert "work" not in Child.__dict__
    assert Child().work() == 7


def _record(index: int) -> NameRecord:
    host = f"10.0.0.{index}"
    return NameRecord(announcer=AnnouncerID.generate(host), endpoints=[Endpoint(host, 9)])


def test_name_matches_is_lookup_on_a_tree_holding_only_that_name():
    names = workloads.make_names(random.Random(5), 40, 3)
    records = [_record(index) for index in range(len(names))]
    full = NameTree()
    for name, record in zip(names, records):
        full.insert(name.copy(), record)
    looser = 0
    for query in names:
        found = full.lookup(query)
        for index, (name, record) in enumerate(zip(names, records)):
            alone, only = NameTree(), _record(index)
            alone.insert(name.copy(), only)
            matches = workloads.name_matches(query, name)
            assert (only in alone.lookup(query)) == matches
            # More records only add attributes, which only narrows.
            assert matches or record not in found
            looser += matches and record not in found
    assert looser > 0  # the full tree is stricter on these names


def test_host_clock_leaves_its_samples_out_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with runner.HostClock() as clock:
        while time.perf_counter() - started < 0.3:
            pass
    elapsed = time.perf_counter() - started
    raw, scaled = clock.seconds()
    sampled = sum(end - start for start, end in clock.samples)
    assert len(clock.samples) >= 4
    assert raw + sampled == pytest.approx(elapsed, abs=0.01)
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = SMALL["anycast-faults"]
    _report, plain = runner.untraced_run(workload, seed=3, seconds=0.0)
    _report, traced = runner.traced_run(workload, seed=3)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for section, result in (("end_to_end", plain), ("per_layer", traced)):
        for metric in spec[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_wrong_resolve_answer_is_caught():
    workload = SMALL["query-steady"]
    run = run_once(workload)
    _sent, _index, reply, _settled = run["replies"][0]
    endpoint, metric = reply.value[0]
    reply._value = list(reply.value) + [(replace(endpoint, port=endpoint.port + 9999), metric)]
    with pytest.raises(CheckFailed):
        workload.outcome(run)


def test_answer_from_a_service_that_never_matched_is_caught():
    workload = SMALL["update-churn"]
    run = run_once(workload)
    answered = next(r for r in run["replies"] if r[2].done and r[2].value)
    reply = answered[2]
    endpoint, metric = reply.value[0]
    stranger = next(
        s for s in run["services"].values()
        if (s.address, s.port) != (endpoint.host, endpoint.port)
        and not workloads.name_matches(run["inputs"]["names"][answered[1]], s.name)
    )
    reply._value = [(replace(endpoint, host=stranger.address, port=stranger.port), metric)]
    with pytest.raises(CheckFailed):
        workload.outcome(run)


def test_delivery_to_a_non_matching_service_is_caught():
    workload = SMALL["anycast-faults"]
    run = run_once(workload)
    names = run["inputs"]["names"]
    sequence = 0
    wanted = names[run["inputs"]["sends"][sequence][2]]
    stranger = next(
        index
        for index, name_index in enumerate(run["service_names"])
        if not workloads.name_matches(wanted, names[name_index])
    )
    run["deliveries"][(sequence, stranger)] = [0.001]
    with pytest.raises(CheckFailed):
        workload.outcome(run)


def test_failed_check_prints_incorrect_and_exits_nonzero(monkeypatch, capsys):
    def broken(run):
        raise CheckFailed("injected")

    monkeypatch.setattr(SMALL["anycast-faults"], "outcome", broken)
    monkeypatch.setitem(workloads.WORKLOADS, "anycast-faults", SMALL["anycast-faults"])
    code = runner.main(
        ["--workload", "anycast-faults", "--seed", "1", "--seconds", "0", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_two_processes_agree_on_simulated_metrics():
    def report(seed: int) -> dict:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "anycast-faults",
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        lines = out.strip().splitlines()
        body = json.loads("\n".join(lines[:-1]))
        body.pop("host")
        return body

    assert report(2) == report(2)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
