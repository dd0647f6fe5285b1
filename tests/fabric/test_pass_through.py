"""Identity pass-through at the owner.

A subscriber group in the publisher's own format gets the publisher's
payload bytes instead of a re-encode of the record decoded from them —
Algorithm 2's perfect match — when the wire is in native (little-endian)
order, its reserved header bytes are zero and it ends where its header
says.  For every wire a repro encoder wrote, the forwarded bytes are the
ones the re-encode wrote, trace block included; every other wire is
re-encoded; a byte the decoder maps to another value (a boolean 0x02) is
forwarded as it came, and every subscriber decodes the record the
re-encode would have given.  Counted, never timed."""

from __future__ import annotations

import itertools
import random

import pytest

from repro import obs
from repro.check import gen
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_CODE,
)
from repro.errors import DecodeError
from repro.fabric import EventFabric
from repro.fabric.protocol import FABRIC_DELIVER, FABRIC_PUBLISH
from repro.morph.fusion import WireRoute
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.reliable import ReliableEndpoint
from repro.net.transport import Network
from repro.pbio.buffer import attach_trace, strip_trace, unpack_header
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

from tests.fabric.test_run_pipeline import READERS, Fleet, seeded_record


@pytest.fixture
def sent(monkeypatch):
    """Every ``(destination, wire)`` an endpoint sends."""
    wires = []
    send = ReliableEndpoint.send
    monkeypatch.setattr(
        ReliableEndpoint, "send",
        lambda self, to, data, on_result=None: wires.append(
            (to, bytes(data))) or send(self, to, data, on_result),
    )
    return wires


@pytest.fixture
def encodes(monkeypatch):
    """Every ``(context, format)`` encoded, in order, and every wire
    routine that writes a message (``(WireRoute, its target)``): only
    an owner runs those."""
    calls = []
    encode = PBIOContext.encode
    monkeypatch.setattr(
        PBIOContext, "encode",
        lambda ctx, fmt, rec: calls.append((ctx, fmt)) or encode(ctx, fmt, rec),
    )
    fn_for = WireRoute.fn_for

    def counted(route, order):
        fn = fn_for(route, order)
        if fn is None or route.target is None:
            return fn
        return lambda *args: calls.append((route, route.target)) or fn(*args)

    monkeypatch.setattr(WireRoute, "fn_for", counted)
    return calls


def payload_encodes(encodes, worker):
    """The payloads (not envelopes) *worker* wrote: encoded through its
    own or a group receiver's context, or by a wire routine."""
    writers = [worker.pbio] + [
        group.receiver.context
        for channel in worker._channels.values()
        for group in channel.groups.values()]
    return sum((ctx.__class__ is WireRoute or any(ctx is w for w in writers))
               and fmt is not FABRIC_DELIVER for ctx, fmt in encodes)


def delivered(sent, contact):
    """The payload of every FABRIC_DELIVER sent to *contact*, in order."""
    payloads = []
    for destination, wire in sent:
        if destination != contact:
            continue
        messages = [
            wire[offset:offset + size]
            for offset, size in unpack_batch(wire).segments
        ] if is_batch(wire) else [wire]
        for message in messages:
            header = unpack_header(message)
            payloads.append(message[header.body_offset + header.payload_length:])
    return payloads


def reencoded(registry, fmt, payload):
    """What the owner wrote for *payload* before it could forward it:
    the record decoded from it, encoded in native order, behind the same
    trace block."""
    bare, ctx = strip_trace(payload)
    pbio = PBIOContext(registry)
    wire = pbio.encode(fmt, pbio.decode_as(fmt, bare))
    return wire if ctx is None else attach_trace(wire, ctx)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("batched", [False, True], ids=["publish", "batch"])
@pytest.mark.parametrize("order", ["little", "big"])
def test_forwarded_bytes_are_the_reencoded_bytes(
    order, batched, traced, sent, encodes
):
    """Generated formats: a native publisher's payload is forwarded (no
    owner encode) and a big-endian one's re-encoded (one per event);
    either way the subscriber gets the bytes the re-encode writes."""
    if traced:
        obs.enable(sample_every=1)
    for seed in range(6):
        rng = random.Random(seed)
        fmt = gen.random_format(rng, name=f"Gen{seed}")
        records = [gen.random_record(rng, fmt) for _ in range(4)]
        registry = FormatRegistry()
        registry.register(fmt)
        net = Network(seed=seed)
        fabric = EventFabric(net, registry=registry)
        for index in range(2):
            fabric.add_worker(f"w{index}")
        got = []
        fabric.client("sub").subscribe(
            "gen", fmt, lambda c, p, s, r: got.append(r))
        pub = fabric.client("pub")
        pub.pbio.byte_order = order
        net.run()
        owner = fabric.directory.worker(fabric.directory.owner("gen"))
        sent.clear()
        before = payload_encodes(encodes, owner)
        if batched:
            pub.publish_batch("gen", fmt, records[:1])  # a run of one
            pub.publish_batch("gen", fmt, records[1:])
        else:
            for record in records:
                pub.publish("gen", fmt, record)
        net.run()
        assert len(got) == len(records)
        payloads = delivered(sent, "sub")
        assert len(payloads) == len(records)
        for payload in payloads:
            assert payload == reencoded(registry, fmt, payload)
        # a frame's context rides on the outbound frame, a lone message's
        # on its payload: the run of one gets the frame's attached
        blocks = sum(unpack_header(p).trace is not None for p in payloads)
        assert blocks == (0 if not traced else 1 if batched else len(records))
        assert payload_encodes(encodes, owner) - before == (
            0 if order == "little" else len(records)
        )


@pytest.fixture
def fleet(tmp_path):
    return Fleet(str(tmp_path / "j.jsonl"))


def publish_payload(fleet, channel_id, payload):
    """Send one FABRIC_PUBLISH carrying *payload* as ``pub0`` would."""
    pub = fleet.pubs[0]
    channel = pub._routed(channel_id)
    seq = channel.seq = channel.seq + 1
    envelope = FABRIC_PUBLISH.make_record(
        channel_id=channel_id, publisher=pub.address, seq=seq,
        epoch=fleet.fabric.directory.epoch,
    )
    pub.reliable.send(
        fleet.fabric.directory.owner(channel_id),
        pub.pbio.encode(FABRIC_PUBLISH, envelope) + payload,
    )
    fleet.net.run()
    return seq


def test_a_payload_shorter_than_a_header_poisons_only_itself(fleet):
    """The owner parses each payload header at admission, inside the
    segment's containment: a payload too short to hold one is refused
    there — one error, never admitted, journaled or fanned out — while
    its neighbours in the frame still reach every reader."""
    channel_id = fleet.channels[0]
    pub = fleet.pubs[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    channel = pub._routed(channel_id)
    first = channel.seq + 1
    channel.seq = first + 2
    envelope = FABRIC_PUBLISH.make_record(
        channel_id=channel_id, publisher=pub.address, seq=first + 1,
        epoch=fleet.fabric.directory.epoch,
    )
    before = owner.errors
    pub.reliable.send(owner.address, pack_batch([
        fleet.publish_wire(pub, channel_id, first),
        pub.pbio.encode(FABRIC_PUBLISH, envelope) + b"\x00\x01",
        fleet.publish_wire(pub, channel_id, first + 2),
    ]))
    fleet.net.run()
    assert owner.errors == before + 1
    for name, _fmt in READERS:
        assert [s for c, _p, s, _r in fleet.logs[name] if c == channel_id][
            -2:] == [first, first + 2]
    assert fleet.net.handler_errors == 0


# bytes past the declared end never reach a group: admission cuts them
# (test_bytes_past_the_declared_payload_are_not_journaled_or_forwarded)
@pytest.mark.parametrize("damage", ["reserved"])
def test_a_wire_the_owner_would_not_write_is_reencoded(
    fleet, damage, sent, encodes
):
    channel_id = fleet.channels[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    payload = bytearray(fleet.pubs[0].pbio.encode(
        RESPONSE_V2, seeded_record(random.Random(5), channel_id)))
    payload[7] = 0x80
    sent.clear()
    before = payload_encodes(encodes, owner)
    publish_payload(fleet, channel_id, bytes(payload))
    # v2.0 and v1.0; v0.0 is cut from the v1.0 wire
    assert payload_encodes(encodes, owner) - before == 2
    (out,) = delivered(sent, "sub-v2")
    assert out != payload
    assert out == reencoded(fleet.fabric.registry, RESPONSE_V2, payload)


def test_bytes_past_the_declared_payload_are_not_journaled_or_forwarded(
    fleet, sent, encodes
):
    """A publish whose payload is followed by junk is cut to the payload's
    declared length at admission: the journal stores the bytes a clean
    publish of the same record stores, every reader decodes the same
    record, and the v2.0 group is forwarded the declared bytes — no
    re-encode, since they are what the owner would write."""
    channel_id = fleet.channels[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    clean = fleet.pubs[0].pbio.encode(
        RESPONSE_V2, seeded_record(random.Random(5), channel_id))
    sent.clear()
    before = payload_encodes(encodes, owner)
    first = publish_payload(fleet, channel_id, clean)
    second = publish_payload(fleet, channel_id, clean + bytes(range(256)) * 2)
    assert owner.errors == 0
    assert payload_encodes(encodes, owner) - before == 2  # v1.0 each
    assert delivered(sent, "sub-v2") == [clean, clean]
    journaled = {
        seq: payload
        for _state, tail in fleet.recovered().values()
        for c, _p, seq, payload in tail if c == channel_id
    }
    assert journaled[first] == journaled[second] == clean
    for name, _fmt in READERS:
        records = {s: r for c, _p, s, r in fleet.logs[name] if c == channel_id}
        assert records[first] == records[second]


def test_a_mapped_boolean_byte_is_forwarded_and_decodes_alike(
    fleet, sent, encodes
):
    """``0x02`` in a boolean decodes as True, which the re-encode writes
    as ``0x01``: the forwarded bytes differ, the records do not."""
    channel_id = fleet.channels[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    pbio = fleet.pubs[0].pbio
    record = seeded_record(random.Random(5), channel_id)
    record["member_list"][0]["is_Source"] = True
    canonical = pbio.encode(RESPONSE_V2, record)
    record["member_list"][0]["is_Source"] = False
    (offset,) = [
        index for index, (a, b) in enumerate(
            zip(canonical, pbio.encode(RESPONSE_V2, record)))
        if a != b
    ]
    hostile = bytearray(canonical)
    hostile[offset] = 0x02
    sent.clear()
    before = payload_encodes(encodes, owner)
    first = publish_payload(fleet, channel_id, canonical)
    second = publish_payload(fleet, channel_id, bytes(hostile))
    assert payload_encodes(encodes, owner) - before == 2  # v1.0 each
    assert delivered(sent, "sub-v2") == [canonical, hostile]
    for name, _fmt in READERS:
        records = {s: r for c, _p, s, r in fleet.logs[name] if c == channel_id}
        assert records[first] == records[second]


@pytest.mark.parametrize("readers, order, owner_encodes", [
    # v1.0; v2.0 forwards and v0.0 is cut from the v1.0 wire
    (READERS, "little", 1),
    (READERS[:1], "little", 0),  # a v2.0-only channel encodes nothing
    # a big-endian publisher: v2.0 and v1.0 re-encode, v0.0 still cuts
    (READERS, "big", 2),
], ids=["three-groups", "v2-only", "big-endian"])
def test_payload_encodes_per_event_at_the_owner(
    tmp_path, readers, order, owner_encodes, encodes
):
    fleet = Fleet(str(tmp_path / "j.jsonl"), readers=readers)
    for pub in fleet.pubs:
        pub.pbio.byte_order = order
    channel_id = fleet.channels[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    records = [seeded_record(random.Random(n), channel_id) for n in range(66)]
    for record in records[64:]:  # each route's first event runs staged
        fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
    fleet.net.run()
    before = payload_encodes(encodes, owner)
    for record in records[:32]:
        fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
    fleet.pubs[1].publish_batch(channel_id, RESPONSE_V2, records[32:64])
    fleet.net.run()
    assert payload_encodes(encodes, owner) - before == 64 * owner_encodes
    assert [len(log) for log in fleet.logs.values()] == [66] * len(readers)



def hostile_payloads(pbio, channel_id):
    """A v2.0 payload with invalid UTF-8 in ``member_list[3].info`` and
    one whose member array is cut short (its count claims one member
    more than it holds): both have a header the owner would write, so
    only a full decode refuses them."""
    members = [{"info": f"host-{n:04d}", "ID": n, "is_Source": True,
                "is_Sink": n % 2 == 0} for n in range(5)]
    record = RESPONSE_V2.make_record(
        channel_id=channel_id, member_count=5, member_list=members)
    wire = pbio.encode(RESPONSE_V2, record)
    utf8 = bytearray(wire)
    at = wire.index(b"host-0003")
    utf8[at:at + 4] = b"\xff\xfe\xfd\xfc"
    short = bytearray(pbio.encode(
        RESPONSE_V2, RESPONSE_V2.make_record(
            channel_id=channel_id, member_count=4, member_list=members[:4])))
    at = short.index(b"host-0000") - 8  # the count, then info's length
    short[at:at + 4] = (5).to_bytes(4, "little")
    return {"utf-8": bytes(utf8), "truncated": bytes(short)}


@pytest.mark.parametrize("order", ["v2-last", "v2-first"])
@pytest.mark.parametrize("warm", [False, True], ids=["first", "warm"])
@pytest.mark.parametrize("damage", ["utf-8", "truncated"])
def test_the_owner_forwards_no_unchecked_bytes(
    tmp_path, damage, warm, order, sent
):
    """A payload the owner would write byte for byte but that does not
    decode reaches no contact — the group in its own format included —
    and each group dead-letters it under ``decode``, as when every group
    decoded it into records; the worker's ``errors`` / ``last_error``
    name the :class:`DecodeError`.  On a route's first event (staged)
    and warm (wire to wire), with the v2.0 group sorting after the
    groups that transform and before them."""
    registry, v2 = None, RESPONSE_V2
    if order == "v2-first":
        for n in itertools.count():
            v2 = IOFormat(RESPONSE_V2.name, list(RESPONSE_V2.fields),
                          version=f"2.{n + 1}")
            if v2.format_id < min(RESPONSE_V1.format_id,
                                  RESPONSE_V0.format_id):
                break
        registry = FormatRegistry()
        registry.register_transform(TransformSpec(v2, RESPONSE_V1, V2_TO_V1_CODE))
        registry.register_transform(V1_TO_V0_TRANSFORM)
    fleet = Fleet(str(tmp_path / "j.jsonl"), registry=registry,
                  readers=(("v2", v2), ("v1", RESPONSE_V1), ("v0", RESPONSE_V0)))
    channel_id = fleet.channels[0]
    owner = fleet.fabric.directory.worker(
        fleet.fabric.directory.owner(channel_id))
    if warm:  # each route's first event runs staged
        for n in range(2):
            fleet.pubs[0].publish(
                channel_id, v2, seeded_record(random.Random(n), channel_id))
        fleet.net.run()
    payload = hostile_payloads(fleet.pubs[0].pbio, channel_id)[damage]
    if v2 is not RESPONSE_V2:
        payload = payload[:8] + v2.format_id.to_bytes(8, "little") + payload[16:]
    assert unpack_header(payload).format_id == v2.format_id
    errors = owner.errors
    sent.clear()
    publish_payload(fleet, channel_id, payload)
    assert [destination for destination, _wire in sent
            if destination.startswith("sub-")] == []
    assert owner.errors == errors + 3
    assert isinstance(owner.last_error, DecodeError)
    for group in owner._channels[channel_id].groups.values():
        assert group.receiver.dead_letters[-1].stage == "decode"
        assert isinstance(group.receiver.last_error, DecodeError)
