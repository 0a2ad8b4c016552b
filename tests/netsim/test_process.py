"""Tests for the Process base class and timers."""

import gc
import weakref

import pytest

from repro.netsim import Network, PeriodicTimer, Process, Simulator


def build():
    sim = Simulator(seed=0)
    network = Network(sim, default_latency=0.0)
    node = network.add_node("host")
    return sim, network, node


class TestProcessBasics:
    def test_binding_and_rebinding(self):
        sim, network, node = build()
        process = Process(node, 10)
        assert node.process_on(10) is process
        with pytest.raises(ValueError):
            Process(node, 10)
        process.stop()
        assert node.process_on(10) is None
        Process(node, 10)  # port is free again

    def test_address_tracks_node(self):
        sim, network, node = build()
        process = Process(node, 10)
        assert process.address == "host"
        network.rename_node("host", "roaming")
        assert process.address == "roaming"

    def test_send_uses_payload_wire_size(self):
        class Sized:
            def wire_size(self):
                return 123

        sim, network, node = build()
        network.add_node("peer")
        process = Process(node, 10)
        process.send("peer", 99, Sized())
        assert network.link("host", "peer").stats.bytes == 123

    def test_send_defaults_to_zero_size(self):
        sim, network, node = build()
        network.add_node("peer")
        Process(node, 10).send("peer", 99, object())
        assert network.link("host", "peer").stats.bytes == 0

    def test_stop_cancels_timers(self):
        """Hundreds of timers fire or are cancelled (and released) first;
        stop() still reaches every pending one-shot and live periodic
        timer."""
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        for index in range(300):
            event = process.set_timer(0.01 * (index + 1), fired.append, index)
            if index % 3 == 0:
                event.cancel()
        stopped_early = process.every(0.5, lambda: fired.append("early"))
        periodic = [process.every(0.7, lambda: fired.append("periodic"))
                    for _ in range(3)]
        sim.run_for(1.5)
        stopped_early.stop()
        sim.run_for(0.5)  # up to t=2.0: indices 0..199 are due
        assert [f for f in fired if isinstance(f, int)] == [
            index for index in range(200) if index % 3
        ]
        fired.clear()
        process.stop()
        sim.run_for(10.0)
        assert fired == []
        assert all(timer.stopped for timer in periodic)

    def test_fired_and_cancelled_timers_are_released(self):
        """A long-lived process must not keep its dead timers (and what
        their arguments reference) alive."""

        class Token:
            pass

        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        tokens = [Token() for _ in range(40)]
        alive = [weakref.ref(token) for token in tokens]
        events = [
            process.set_timer(1.0 + index, lambda token: fired.append(1), token)
            for index, token in enumerate(tokens)
        ]
        del tokens
        sim.run(until=20.5)
        assert len(fired) == 20
        for event in events[20:]:
            event.cancel()
        del events
        stopped = process.every(1.0, lambda: None)
        stopped.stop()
        alive.append(weakref.ref(stopped))
        del stopped
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []


class TestTimers:
    def test_one_shot_timer(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.set_timer(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_periodic_timer_repeats(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        timer = process.every(1.0, lambda: fired.append(sim.now))
        sim.run_for(3.5)
        assert fired == [1.0, 2.0, 3.0]
        timer.stop()
        sim.run_for(5.0)
        assert len(fired) == 3

    def test_fire_immediately(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.every(1.0, lambda: fired.append(sim.now), fire_immediately=True)
        sim.run_for(2.5)
        assert fired == [0.0, 1.0, 2.0]

    def test_jitter_spreads_firings(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.every(1.0, lambda: fired.append(sim.now), jitter_fraction=0.2)
        sim.run_for(10.0)
        intervals = [b - a for a, b in zip(fired, fired[1:])]
        assert all(0.8 <= i <= 1.2 for i in intervals)
        assert len(set(intervals)) > 1  # actually jittered

    def test_invalid_timer_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter_fraction=1.0)

    def test_stop_mid_period(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        timer = process.every(1.0, lambda: fired.append(sim.now))
        sim.run_for(1.5)
        timer.stop()
        assert timer.stopped
        sim.run_for(5.0)
        assert fired == [1.0]
