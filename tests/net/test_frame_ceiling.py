"""One frame ceiling for every sender.

A batch of large events leaves a publisher as several BATCH1 frames,
each within :data:`repro.net.batch.MAX_FRAME_BYTES`, so every frame
fits a UDP datagram: ``FabricClient.publish_batch`` and
``EChoProcess.submit_batch`` of 8 events of about 10.8 KB each (one
unsplit frame would be about 87 KB) deliver every event exactly once,
in order, on both transports.  What each sender hands its reliable
endpoint is recorded; every frame among it is checked against the
ceiling.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.echo.process import EChoProcess
from repro.echo.protocol import RESPONSE_V2
from repro.fabric import EventFabric
from repro.net.batch import (
    MAX_FRAME_BYTES,
    is_batch,
    split_batch,
    unpack_batch,
)
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_recovery import make_registry
from tests.integration.test_hold import settle, transport

EVENTS = 8


def big_record(n: int):
    """The 270-member record of the worker's bounded-frames test,
    numbered by its first member's ID: about 10.8 KB on the wire."""
    members = [
        {"info": f"host-{i:04d}.cc.gatech.edu:{5000 + i}", "ID": n + i,
         "is_Source": True, "is_Sink": False}
        for i in range(270)
    ]
    return RESPONSE_V2.make_record(
        channel_id="ch", member_count=len(members), member_list=members,
    )


def recorded_sends(endpoint) -> List[bytes]:
    """Every datagram *endpoint*'s owner hands its reliable endpoint
    from now on (retransmits are the endpoint's own and not included)."""
    sent: List[bytes] = []
    send = endpoint.send
    endpoint.send = lambda to, data, **kw: sent.append(data) or send(
        to, data, **kw)
    return sent


def assert_bounded(sent: List[bytes]) -> None:
    frames = [data for data in sent if is_batch(data)]
    assert len(frames) > 1
    assert all(len(frame) <= MAX_FRAME_BYTES for frame in frames)
    assert sum(unpack_batch(frame).count for frame in frames) == EVENTS


@pytest.mark.parametrize("kind", ["sim", "socket"])
def test_fabric_publish_batch_of_large_events_fits_the_ceiling(kind):
    with transport(kind) as net:
        fabric = EventFabric(net, registry=make_registry())
        fabric.add_worker("w0")
        pub = fabric.client("pub")
        got = []
        fabric.client("sub").subscribe(
            "ch", RESPONSE_V2,
            lambda c, p, s, r: got.append((s, r["member_list"][0]["ID"])),
        )
        settle(net)
        sent = recorded_sends(pub.reliable)
        seqs = pub.publish_batch(
            "ch", RESPONSE_V2, [big_record(n) for n in range(EVENTS)]
        )
        settle(net)
        assert got == [(seq, n) for n, seq in enumerate(seqs)]
        assert_bounded(sent)
        assert pub.reliable.failed == 0
        assert net.handler_errors == 0


@pytest.mark.parametrize("local", [False, True], ids=["remote", "local"])
@pytest.mark.parametrize("kind", ["sim", "socket"])
def test_echo_submit_batch_of_large_events_fits_the_ceiling(kind, local):
    """With *local* the source is a sink of its own channel too, and
    delivers the whole batch to itself in-line as well."""
    with transport(kind) as net:
        registry = FormatRegistry()
        creator, source, sink = (
            EChoProcess(net, name, registry, version="2.0")
            for name in ("creator", "source", "sink")
        )
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True, as_sink=local)
        sink.open_channel("ch", "creator", as_sink=True)
        settle(net)
        got, mine = [], []
        sink.subscribe("ch", RESPONSE_V2,
                       lambda r: got.append(r["member_list"][0]["ID"]))
        if local:
            source.subscribe("ch", RESPONSE_V2,
                             lambda r: mine.append(r["member_list"][0]["ID"]))
        sent = recorded_sends(source.reliable)
        source.submit_batch(
            "ch", RESPONSE_V2, [big_record(n) for n in range(EVENTS)]
        )
        settle(net)
        assert got == list(range(EVENTS))
        assert mine == (list(range(EVENTS)) if local else [])
        assert_bounded(sent)
        assert source.reliable.failed == 0
        assert net.handler_errors == 0


def test_split_keeps_order_and_puts_an_oversized_message_alone():
    small, large = b"s" * 20_000, b"L" * (MAX_FRAME_BYTES + 1)
    messages = [small, small, small, large, small]
    groups = split_batch(messages)
    assert [list(group) for group in groups] == [
        [small, small], [small], [large], [small],
    ]
    assert split_batch([small]) == [[small]]
