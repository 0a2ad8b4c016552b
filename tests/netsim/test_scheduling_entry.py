"""Every event enters the queue through ``Simulator.at``.

Per-layer profiling wraps ``Simulator.at`` to attribute each event to
the layer that scheduled it, and reads ``Simulator.pending_events`` for
the heap's peak size. A fast path that pushed onto the heap directly
would silently drop events from that attribution, so this drives every
scheduling site in ``repro.netsim`` through a counting ``at`` and checks
that the events the heap delivered are exactly the ones ``at`` made.
"""

from repro.netsim import Cpu, Network, Process, Simulator


class Sink(Process):
    def __init__(self, node, port):
        super().__init__(node, port)
        self.received = []

    def processing_cost(self, payload, size_bytes):
        return 0.001

    def handle_message(self, payload, source):
        self.received.append(payload)


def test_every_scheduling_site_goes_through_at(monkeypatch):
    made = []
    original = Simulator.at

    def counting_at(sim, time, callback, *args):
        event = original(sim, time, callback, *args)
        made.append(event)
        return event

    monkeypatch.setattr(Simulator, "at", counting_at)

    sim = Simulator(seed=3)
    fired = []
    sim.event_hook = fired.append
    network = Network(sim, default_latency=0.01)
    for address in ("a", "b", "c"):
        network.add_node(address)
    network.configure_link("a", "b", reorder_rate=0.9, reorder_delay=0.05)
    network.configure_link("a", "c", duplicate_rate=0.9)
    sink_a = Sink(network.node("a"), 7)
    sink_b = Sink(network.node("b"), 7)
    sink_c = Sink(network.node("c"), 7)

    sim.schedule(0.5, lambda: None)
    Cpu(sim).execute(0.2, lambda: None)
    for index in range(20):
        network.send("a", "a", 7, ("local", index), 10)
        network.send("a", "b", 7, ("reordered", index), 100)
        network.send("a", "c", 7, ("duplicated", index), 100)
    sink_a.set_timer(1.0, lambda: None)
    sink_a.set_timer(2.0, lambda: None).cancel()
    periodic = sink_b.every(0.3, lambda: None, jitter_fraction=0.1)
    sink_c.every(0.4, lambda: None, fire_immediately=True)

    sim.run(until=5.0)
    periodic.stop()
    sink_c.stop()
    sim.run()

    assert network.link("a", "b").stats.reorders > 0
    assert network.link("a", "c").stats.duplicates > 0
    assert len(sink_a.received) == 20
    assert len(sink_b.received) == 20
    assert len(sink_c.received) > 20
    assert sim.pending_events == 0
    # Every event the heap delivered was made by at(), and every event
    # at() made was either delivered or cancelled: nothing else entered.
    made_ids = {id(event) for event in made}
    assert all(id(event) in made_ids for event in fired)
    cancelled = sum(1 for event in made if event.cancelled)
    assert len(fired) + cancelled == len(made)
    assert len(fired) == sim.events_processed
