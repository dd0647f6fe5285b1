"""Seeded-loss referee for the reliable endpoint.

Two and three endpoints at the default breaker threshold (the one
``FormatServer`` and bare endpoints run with) exchange bursts of sends
over a link with 10 % loss and jitter, under 20 seeds.  Every stream
must arrive exactly once and in order, every ticket must be acked, no
breaker may open, and duplicate drops stay near zero.

A lost cumulative ack times out every send it covered at one expiry of
the peer's timer: a breaker that counted one failure per ticket instead
would open on a single lost ack of a burst of five and reject sends.
"""

import random

import pytest

from repro.net.link import LinkSpec
from repro.net.reliable import ReliableEndpoint
from repro.net.transport import Network

SEEDS = range(20)
BURSTS = 25
BURST_SPACING = 0.02


def exchange(seed, members):
    """Every endpoint sends every other one *BURSTS* bursts of 1-12
    messages, a burst every ~*BURST_SPACING* virtual seconds; returns
    the endpoints, the tickets, and per (source, destination) what was
    sent and what was delivered."""
    net = Network(
        default_link=LinkSpec(latency=0.001, loss_rate=0.1, jitter=0.002),
        seed=seed,
    )
    names = [f"e{index}" for index in range(members)]
    endpoints = {name: ReliableEndpoint(net, name, seed=seed)
                 for name in names}
    streams = [(source, destination) for source in names
               for destination in names if source != destination]
    sent = {stream: [] for stream in streams}
    got = {stream: [] for stream in streams}
    for name in names:
        endpoints[name].set_handler(
            lambda source, data, name=name: got[source, name].append(data))
    tickets = []
    rng = random.Random(seed)

    def burst(source, destination, number, size):
        for index in range(size):
            payload = f"{number}:{index}".encode()
            sent[source, destination].append(payload)
            tickets.append(endpoints[source].send(destination, payload))

    for number in range(BURSTS):
        for source, destination in streams:
            size = rng.randint(1, 12)
            net.call_at(
                number * BURST_SPACING + rng.uniform(0, BURST_SPACING / 2),
                lambda s=source, d=destination, n=number, k=size:
                    burst(s, d, n, k),
            )
    net.run()
    return endpoints, tickets, sent, got


@pytest.mark.parametrize("members", [2, 3])
def test_exactly_once_in_order_with_the_default_breaker(members):
    sends = dups = 0
    for seed in SEEDS:
        endpoints, tickets, sent, got = exchange(seed, members)
        assert got == sent, f"seed {seed}: a stream lost, doubled or reordered"
        assert [t for t in tickets if t.state != "acked"] == [], f"seed {seed}"
        for endpoint in endpoints.values():
            assert endpoint.breaker_threshold == 5
            assert endpoint.breaker_opens == 0, f"seed {seed}"
            assert endpoint.rejected == endpoint.failed == 0
            assert endpoint.in_flight == 0
        sends += len(tickets)
        dups += sum(endpoint.dup_drops for endpoint in endpoints.values())
    # A retransmission of what arrived: the last ack of a stream lost, or
    # ranges behind a hole lost.  Per-send acks and timers dropped ~11 %
    # of sends as duplicates here; cumulative acks drop under 1 %.
    assert dups <= 0.02 * sends, (dups, sends)
