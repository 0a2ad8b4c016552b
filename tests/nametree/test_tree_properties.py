"""Property-based tests for name-tree invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import InsDomain, UniformWorkload
from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree

from ..naming.test_naming_properties import name_specifiers


def _workload(seed: int, depth: int = 2) -> UniformWorkload:
    return UniformWorkload(
        rng=random.Random(seed),
        depth=depth,
        attribute_range=3,
        value_range=3,
        attributes_per_level=2,
    )


def _record(tag: str) -> NameRecord:
    return NameRecord(
        announcer=AnnouncerID.generate(tag),
        endpoints=[Endpoint(host=tag, port=1)],
    )


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_every_inserted_name_is_found_by_itself(seed, count):
    """lookup(n) contains n's record for every advertised n."""
    workload = _workload(seed)
    tree = NameTree()
    pairs = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"p-{index}")
        tree.insert(name, record)
        pairs.append((name, record))
    for name, record in pairs:
        assert record in tree.lookup(name)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=25))
@settings(max_examples=50, deadline=None)
def test_get_name_inverts_insert(seed, count):
    """GET-NAME returns exactly the advertised name-specifier."""
    workload = _workload(seed, depth=3)
    tree = NameTree()
    pairs = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"g-{index}")
        tree.insert(name, record)
        pairs.append((name, record))
    for name, record in pairs:
        assert tree.get_name(record) == name


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=25))
@settings(max_examples=50, deadline=None)
def test_remove_then_empty_tree_is_pristine(seed, count):
    """Inserting then removing everything leaves zero nodes (pruning
    never strands branches)."""
    workload = _workload(seed, depth=3)
    tree = NameTree()
    records = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"r-{index}")
        tree.insert(name, record)
        records.append(record)
    order = random.Random(seed)
    order.shuffle(records)
    for record in records:
        tree.remove(record)
    assert len(tree) == 0
    assert tree.node_counts() == (0, 0)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_empty_query_returns_all_records(seed, count):
    workload = _workload(seed)
    tree = NameTree()
    expected = set()
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"e-{index}")
        tree.insert(name, record)
        expected.add(record)
    assert tree.lookup(NameSpecifier()) == expected


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_lookup_results_subset_of_wildcard_union(seed, count):
    """Any constrained lookup returns a subset of what the top-level
    wild-card over the same attribute returns."""
    workload = _workload(seed)
    tree = NameTree()
    names = workload.distinct_names(count)
    for index, name in enumerate(names):
        tree.insert(name, _record(f"s-{index}"))
    probe = names[0]
    attribute = probe.roots[0].attribute
    wild = NameSpecifier.parse(f"[{attribute}=*]")
    exact = NameSpecifier.parse(
        f"[{attribute}={probe.roots[0].value}]"
    )
    assert tree.lookup(exact) <= tree.lookup(wild)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_hash_and_linear_search_agree(seed, count):
    """Search strategy never changes lookup results."""
    workload_a = _workload(seed)
    workload_b = _workload(seed)
    hash_tree = NameTree(search="hash")
    linear_tree = NameTree(search="linear")
    names_a = workload_a.distinct_names(count)
    names_b = workload_b.distinct_names(count)
    hash_records, linear_records = {}, {}
    for index, (na, nb) in enumerate(zip(names_a, names_b)):
        ra, rb = _record(f"h-{index}"), _record(f"l-{index}")
        hash_tree.insert(na, ra)
        linear_tree.insert(nb, rb)
        hash_records[index] = ra
        linear_records[index] = rb
    query = _workload(seed + 1).random_query(wildcard_probability=0.3)
    found_hash = {i for i, r in hash_records.items() if r in hash_tree.lookup(query)}
    found_linear = {
        i for i, r in linear_records.items() if r in linear_tree.lookup(query)
    }
    assert found_hash == found_linear


def _refresh_of(record: NameRecord, expires_at: float = float("inf")) -> NameRecord:
    return NameRecord(
        announcer=record.announcer,
        endpoints=list(record.endpoints),
        expires_at=expires_at,
    )


@given(first=name_specifiers(), second=name_specifiers())
@settings(max_examples=100, deadline=None)
def test_get_name_reproduces_wire_text_and_memo_never_goes_stale(first, second):
    """GET-NAME(graft(n)) has n's exact wire text (what adopting a
    neighbor's read-only name relies on), and after a re-graft, a
    removal or an expiry the memo never serves the old name."""
    tree = NameTree()
    record = _record("memo")
    tree.insert(first, record)
    assert tree.get_name(record).to_wire() == first.to_wire()

    # A rename re-grafts; an equal key is a refresh and keeps the name.
    renamed = _refresh_of(record)
    tree.insert(second, renamed)
    current = tree.record_for(record.announcer)
    expected = first if first == second else second
    assert tree.get_name(current).to_wire() == expected.to_wire()

    tree.remove(current)
    assert current.advertised_name is None
    assert tree.get_name(current).is_empty  # no attachments left

    again = _refresh_of(record, expires_at=10.0)
    tree.insert(first, again)
    assert tree.get_name(again).to_wire() == first.to_wire()
    assert tree.expire(now=10.0) == [again]
    assert again.advertised_name is None
    tree.insert(second, again)
    assert tree.get_name(again).to_wire() == second.to_wire()


def test_get_name_traces_at_most_once_per_graft(monkeypatch):
    """Over two periodic rounds of a 3-INR domain, GET-NAME's upward
    trace runs at most once per graft, however many updates carry the
    name."""
    grafts = builds = 0
    graft, reconstruct = NameTree._graft, NameTree._reconstruct

    def counting_graft(self, *args):
        nonlocal grafts
        grafts += 1
        return graft(self, *args)

    def counting_reconstruct(self, record):
        nonlocal builds
        builds += 1
        return reconstruct(self, record)

    monkeypatch.setattr(NameTree, "_graft", counting_graft)
    monkeypatch.setattr(NameTree, "_reconstruct", counting_reconstruct)
    domain = InsDomain(seed=5)
    inrs = [domain.add_inr(address=f"inr-{index}") for index in range(3)]
    for index in range(6):
        domain.add_service(f"[service=s{index}[id={index}]][room=r{index % 2}]",
                           resolver=inrs[index % 3])
    domain.run(2 * domain.config.refresh_interval)
    # Two rounds, each to at least one neighbor, every name everywhere.
    assert all(inr.stats.periodic_updates_sent >= 2 for inr in inrs)
    assert all(inr.name_count() == 6 for inr in inrs)
    assert 0 < builds <= grafts
