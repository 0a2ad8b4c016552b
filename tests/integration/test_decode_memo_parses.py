"""Late-binding traffic parses each distinct name text at most once per
INR: the decoded-name memo (PROTOCOL.md §2) serves every later packet.

Without the memo every hop of every packet parses both of its names
again, so the repeated sends below would parse hundreds of times.
"""

from collections import Counter

from repro.experiments import InsDomain
from repro.naming import NameSpecifier

from ..conftest import parse

DESTINATIONS = ("[service=printer]", "[service=camera]", "[service=display]")
ROUNDS = 15


def test_repeated_sends_parse_each_text_once_per_inr(monkeypatch):
    domain = InsDomain(seed=17)
    inrs = [domain.add_inr(address=f"inr-{i}") for i in range(3)]
    delivered = []
    for i, text in enumerate(DESTINATIONS):
        for j, inr in enumerate(inrs):
            if (i + j) % 3 == 2:
                continue  # not every name on every INR: packets must hop
            service = domain.add_service(
                text[:-1] + f"[id=s{j}]]", resolver=inr, metric=float(j)
            )
            service.on_message(lambda message, _source: delivered.append(message))
    clients = [domain.add_client(resolver=inr) for inr in inrs]
    domain.run(3.0)

    destinations = [parse(text) for text in DESTINATIONS]
    sources = [parse(f"[service=client[id={c.address}]]") for c in clients]
    texts = Counter()
    plain_parse = NameSpecifier.__dict__["parse"].__func__

    def counting_parse(cls, text):
        texts[text] += 1
        return plain_parse(cls, text)

    monkeypatch.setattr(NameSpecifier, "parse", classmethod(counting_parse))
    sends = 0
    for _round in range(ROUNDS):
        for client, source in zip(clients, sources):
            for destination in destinations:
                client.send_anycast(destination, b"job", source=source)
                client.send_multicast(destination, b"all", source=source)
                sends += 2
        domain.run(0.5)
    domain.run(2.0)

    assert len(delivered) >= sends  # multicast copies come on top
    forwarded = sum(inr.stats.packets_forwarded for inr in inrs)
    assert forwarded > sends // 2  # the data path really hopped
    # Destination texts plus one source text per client.
    assert set(texts) <= set(DESTINATIONS) | {s.to_wire() for s in sources}
    assert texts  # the INRs did parse: the counter sits on their path
    assert sum(texts.values()) <= len(texts) * len(inrs)
