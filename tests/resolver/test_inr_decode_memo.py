"""The INR's decoded-name memo (PROTOCOL.md §2): one frozen name per
distinct wire text, per resolver, bounded, never storing an error and
gone with the process on a crash."""

import pytest

from repro.experiments import InsDomain
from repro.message import InsMessage
from repro.naming import AVPair, FrozenNameError
from repro.resolver import DataPacket
from repro.resolver.inr import DECODED_NAME_MEMO_SIZE

from ..conftest import parse


def frame(destination: str, source: str = "[service=sender[id=me]]") -> bytes:
    return InsMessage(destination=parse(destination), source=parse(source)).encode()


def handled(inr, raw: bytes) -> DataPacket:
    """Feed ``raw`` to ``inr`` as a data packet; returns the packet,
    which caches the message the INR decoded."""
    packet = DataPacket(raw=raw)
    inr.handle_message(packet, "elsewhere")
    return packet


@pytest.fixture
def pair():
    domain = InsDomain(seed=31)
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    return domain, a, b


def test_one_inr_shares_one_frozen_name_per_text(pair):
    _domain, a, b = pair
    raw = frame("[service=printer[id=x]][room=510]")
    first = handled(a, raw).message
    second = handled(a, raw).message
    assert first is not second
    assert first.destination is second.destination
    assert first.source is second.source
    assert first.destination.frozen and first.source.frozen
    other = handled(b, raw).message
    assert other.destination is not first.destination
    assert other.destination == first.destination


def test_decoded_names_are_read_only_and_copies_are_not(pair):
    _domain, a, _b = pair
    name = handled(a, frame("[service=printer[id=x]]")).message.destination
    with pytest.raises(FrozenNameError):
        name.add_pair(AVPair("room", "510"))
    with pytest.raises(FrozenNameError):
        name.root("service").add_child(AVPair("color", "yes"))
    copy = name.copy()
    copy.add_pair(AVPair("room", "510"))
    copy.root("service").add_child(AVPair("color", "yes"))
    assert copy == parse("[service=printer[id=x][color=yes]][room=510]")
    assert name == parse("[service=printer[id=x]]")


def test_malformed_frame_is_dropped_every_time(pair):
    """A parse error is not memoized: the second arrival parses again
    and is counted again."""
    _domain, a, _b = pair
    good = frame("[a=b]")
    raw = good[:-1] + b"["  # destination text becomes "[a=b["
    with pytest.raises(ValueError):
        InsMessage.decode(raw)
    handled(a, raw)
    handled(a, raw)
    assert a.stats.drops_malformed == 2
    info = a._name_memo.cache_info()
    assert info.misses == 2 and info.hits == 0
    assert info.currsize == 0


def test_memo_is_bounded_and_stays_correct(pair):
    _domain, a, _b = pair
    texts = [f"[service=s{i}[id=x]]" for i in range(DECODED_NAME_MEMO_SIZE + 100)]
    for text in texts:
        assert handled(a, frame(text)).message.destination == parse(text)
    assert a._name_memo.cache_info().currsize <= DECODED_NAME_MEMO_SIZE
    # The oldest texts were evicted: decoding them again is still right.
    for text in texts[:5] + texts[-5:]:
        message = handled(a, frame(text)).message
        assert message.destination == parse(text)
        assert message.destination.to_wire() == text
    assert a._name_memo.cache_info().currsize <= DECODED_NAME_MEMO_SIZE


def test_restart_starts_an_empty_memo(pair):
    domain, a, _b = pair
    raw = frame("[service=printer]")
    before = handled(a, raw).message.destination
    assert a._name_memo.cache_info().currsize > 0
    domain.crash_inr(a)
    domain.restart_inr(a)
    assert a._name_memo.cache_info().currsize == 0
    after = handled(a, raw).message.destination
    assert after is not before and after == before


def test_client_decode_keeps_mutable_names():
    """Outside an INR a packet decodes with the plain parser."""
    packet = DataPacket(raw=frame("[service=printer]"))
    name = packet.message.destination
    assert not name.frozen
    name.add_pair(AVPair("room", "510"))
