"""Property-based tests for the simulator's core invariants."""

from hypothesis import given, settings, strategies as st

from repro.netsim import Cpu, Simulator


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_time_never_goes_backwards(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(costs=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_cpu_serialization_invariants(costs):
    """Total busy time equals the sum of costs; completions are ordered;
    the makespan equals the sum when all work arrives at t=0."""
    sim = Simulator()
    cpu = Cpu(sim)
    completions = []
    for cost in costs:
        cpu.execute(cost, lambda: completions.append(sim.now))
    sim.run()
    assert completions == sorted(completions)
    assert cpu.busy_seconds == sum(costs) or abs(
        cpu.busy_seconds - sum(costs)
    ) < 1e-9
    assert abs(completions[-1] - sum(costs)) < 1e-9


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    until=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_bounded_runs_compose(seed, until):
    """run(until=a) then run(until=b) equals one run(until=b)."""
    def build():
        sim = Simulator(seed=seed)
        fired = []
        for i in range(20):
            sim.schedule(i * 3.7 % 49.9, fired.append, i)
        return sim, fired

    one_shot_sim, one_shot = build()
    one_shot_sim.run(until=50.0)

    split_sim, split = build()
    split_sim.run(until=until)
    split_sim.run(until=50.0)
    assert split == one_shot


class _ReferenceEvent:
    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceSimulator:
    """The plain model the event heap must match: pending events in a
    list, the next one found by ``min`` over (time, scheduling order),
    cancelled ones skipped when they come up."""

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._order = 0

    def at(self, time, callback, *args):
        event = _ReferenceEvent(callback, args)
        self._pending.append((time, self._order, event))
        self._order += 1
        return event

    def schedule(self, delay, callback, *args):
        return self.at(self.now + delay, callback, *args)

    def run(self):
        while self._pending:
            entry = min(self._pending, key=lambda pending: pending[:2])
            self._pending.remove(entry)
            time, _order, event = entry
            if not event.cancelled:
                self.now = time
                event.callback(*event.args)


#: Cap on the events one program creates, so spawning chains end.
_MAX_EVENTS = 60

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_ACTIONS = st.one_of(
    st.just(("none",)),
    # Schedule another event from inside the callback; offset 0.0 lands
    # at the current time, inside the batch that is firing.
    st.tuples(
        st.just("spawn"),
        st.sampled_from(["at", "schedule"]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    ),
    # Cancel some event (pending, fired, or the one firing) by index.
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
)
_PROGRAMS = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(["at", "schedule"]), _TIMES, _ACTIONS),
        min_size=1,
        max_size=25,
    ),
    st.lists(st.integers(min_value=0, max_value=200), max_size=5),
    st.lists(_ACTIONS, min_size=1, max_size=10),
)


def _drive(engine, program, runner):
    """Load ``program`` into ``engine``, hand it to ``runner`` and return
    the (time, label) of every callback fired, in firing order."""
    initial, cancels, spawned_actions = program
    events = []
    fired = []

    def add(how, offset, action):
        label = len(events)
        if how == "at":
            events.append(engine.at(engine.now + offset, fire, label, action))
        else:
            events.append(engine.schedule(offset, fire, label, action))

    def fire(label, action):
        fired.append((engine.now, label))
        if action[0] == "spawn" and len(events) < _MAX_EVENTS:
            _kind, how, offset = action
            add(how, offset, spawned_actions[len(events) % len(spawned_actions)])
        elif action[0] == "cancel":
            events[action[1] % len(events)].cancel()

    for how, time, action in initial:
        add(how, time, action)
    for index in cancels:
        events[index % len(events)].cancel()
    runner(engine, fired)
    return fired


@given(
    program=_PROGRAMS,
    until=st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.0, 9.0]),
    budget=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_event_order_matches_reference_model(program, until, budget):
    """The heap fires exactly what a sorted list of pending events does,
    however the run is driven: run(), step() by step(), or run(until=)
    then run(max_events=) then run()."""
    expected = _drive(_ReferenceSimulator(), program, lambda ref, _fired: ref.run())

    assert _drive(Simulator(), program, lambda sim, _fired: sim.run()) == expected

    def stepped(sim, _fired):
        while sim.step():
            pass

    assert _drive(Simulator(), program, stepped) == expected

    def split(sim, fired):
        sim.run(until=until)
        due = [entry for entry in expected if entry[0] <= until]
        assert fired == due
        assert sim.now == until
        sim.run(max_events=budget)
        assert fired == expected[: len(due) + budget]
        assert sim.now == (fired[-1][0] if len(fired) > len(due) else until)
        sim.run()

    assert _drive(Simulator(), program, split) == expected
