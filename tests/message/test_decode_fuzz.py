"""Fuzz tests: arbitrary bytes must never crash the packet decoder with
anything other than a controlled error type, and decoding through an
INR's decoded-name memo must agree with the plain decoder."""

from hypothesis import given, settings, strategies as st

from repro.message import (
    HEADER_SIZE,
    INS_VERSION,
    Binding,
    Delivery,
    Header,
    HeaderError,
    InsMessage,
)
from repro.naming import NameSpecifier, NamingError
from repro.resolver.inr import _decoded_name_memo

from ..naming.test_naming_properties import name_specifiers


@given(data=st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decode_raises_only_controlled_errors(data):
    """A resolver feeds received datagrams straight into decode; a
    malformed packet must surface as ValueError-family, never as an
    IndexError/KeyError/UnicodeDecodeError escaping to the event loop."""
    try:
        InsMessage.decode(data)
    # lint: disable=no-silent-except -- fuzz oracle: these error families ARE the pass condition
    except (HeaderError, NamingError, ValueError):
        pass  # includes UnicodeDecodeError (a ValueError subclass)


@given(data=st.binary(min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_valid_prefix_with_garbage_data_section_decodes(data):
    """The data section is opaque: any bytes there must decode fine."""
    message = InsMessage(destination=NameSpecifier.parse("[a=b]"), data=data)
    decoded = InsMessage.decode(message.encode())
    assert decoded.data == data


@given(flip_position=st.integers(min_value=0, max_value=HEADER_SIZE - 1),
       flip_bits=st.integers(min_value=1, max_value=255))
@settings(max_examples=200, deadline=None)
def test_corrupted_headers_never_crash(flip_position, flip_bits):
    message = InsMessage(destination=NameSpecifier.parse("[a=b[c=d]]"),
                         data=b"payload")
    encoded = bytearray(message.encode())
    encoded[flip_position] ^= flip_bits
    try:
        InsMessage.decode(bytes(encoded))
    # lint: disable=no-silent-except -- fuzz oracle: these error families ARE the pass condition
    except (HeaderError, NamingError, ValueError):
        pass


def _outcome(decode, data, **kwargs):
    """The decoded message, or the class of the error decoding raised."""
    try:
        return decode(data, **kwargs)
    except ValueError as error:  # includes HeaderError and NamingError
        return type(error)


#: Shared across examples on purpose: later frames hit names that
#: earlier ones left in the memo.
_FUZZ_MEMO = _decoded_name_memo()


#: Well-formed, near-miss and arbitrary name sections, so the memo sees
#: hits as well as errors.
_name_sections = st.one_of(
    name_specifiers().map(lambda name: name.to_wire().encode()),
    st.text(alphabet="[]=ab ", max_size=30).map(str.encode),
    st.binary(max_size=30),
)


@st.composite
def frames_with_arbitrary_names(draw):
    """A well-formed header whose two name sections are arbitrary."""
    source = draw(_name_sections)
    destination = draw(_name_sections)
    header = Header(
        version=INS_VERSION,
        binding=Binding.LATE,
        delivery=Delivery.ANYCAST,
        source_offset=HEADER_SIZE,
        destination_offset=HEADER_SIZE + len(source),
        data_offset=HEADER_SIZE + len(source) + len(destination),
        hop_limit=8,
        cache_lifetime=0,
    )
    return header.pack() + source + destination + draw(st.binary(max_size=8))


@given(data=st.one_of(st.binary(max_size=200), frames_with_arbitrary_names()))
@settings(max_examples=300, deadline=None)
def test_memoized_decode_matches_plain_decode_on_arbitrary_bytes(data):
    """Twice through the memo (the second time served from it when the
    first succeeded), the outcome equals the plain decoder's: an equal
    message, or the same exception class. Errors are never stored."""
    plain = _outcome(InsMessage.decode, data)
    for _ in range(2):
        memoized = _outcome(InsMessage.decode, data, parse_name=_FUZZ_MEMO)
        if isinstance(plain, type):
            assert memoized is plain
        else:
            assert memoized == plain


@given(
    destination=name_specifiers(),
    source=st.one_of(st.just(NameSpecifier()), name_specifiers()),
    data=st.binary(max_size=100),
    binding=st.sampled_from(list(Binding)),
    delivery=st.sampled_from(list(Delivery)),
    hop_limit=st.integers(min_value=0, max_value=65535),
    cache_lifetime=st.integers(min_value=0, max_value=65535),
    accept_cached=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_memoized_decode_equals_plain_decode(
    destination, source, data, binding, delivery, hop_limit, cache_lifetime,
    accept_cached,
):
    raw = InsMessage(
        destination=destination,
        source=source,
        data=data,
        binding=binding,
        delivery=delivery,
        hop_limit=hop_limit,
        cache_lifetime=cache_lifetime,
        accept_cached=accept_cached,
    ).encode()
    memo = _decoded_name_memo()
    plain = InsMessage.decode(raw)
    for _ in range(2):
        memoized = InsMessage.decode(raw, parse_name=memo)
        assert memoized == plain
        for name, reference in (
            (memoized.destination, plain.destination),
            (memoized.source, plain.source),
        ):
            assert name.frozen
            assert name.to_wire() == reference.to_wire()
            assert name.canonical_key() == reference.canonical_key()
        assert memoized.encode() == raw
