"""The run-oriented data plane: batched ≡ single through the fabric.

A worker turns whatever arrives — a bare publish or a BATCH1 frame —
into admitted runs, journals each run write-ahead with one file append,
and sends each subscriber one outbound frame per run.  These tests pin
that nothing observable but the framing differs from publishing the
same events one at a time, and that what ends a run (another channel, a
subscribe, a shard we do not own, a poisoned segment) keeps its
per-message grain.

The format groups of a channel are readers of one wire: an event is
decoded once and each retro-transform runs once at the owner, however
many groups need it (counted, never timed), and what a group's receiver
could not convert is counted in the worker's ``errors``.
"""

from __future__ import annotations

import random

import pytest

from repro.echo.protocol import RESPONSE_V0, RESPONSE_V1, RESPONSE_V2
from repro.errors import DecodeError, ReproError
from repro.fabric import EventFabric, JournalStore, shard_of
from repro.fabric import worker as worker_module
from repro.fabric.protocol import (
    FABRIC_DELIVER, FABRIC_PUBLISH, FABRIC_SUBSCRIBE,
)
from repro.morph.transform import Transformation
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.reliable import HEADER_SIZE as RELIABLE_HEADER_SIZE
from repro.net.transport import Network
from repro.pbio.buffer import pack_header
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import TransformSpec

from tests.fabric.test_fabric import v2_record
from tests.fabric.test_recovery import make_registry

READERS = (("v2", RESPONSE_V2), ("v1", RESPONSE_V1), ("v0", RESPONSE_V0))


def seeded_record(rng, channel_id):
    count = rng.randrange(1, 5)
    return RESPONSE_V2.make_record(
        channel_id=channel_id,
        member_count=count,
        member_list=[
            {"info": f"host-{rng.randrange(10**6)}", "ID": rng.randrange(2**31),
             "is_Source": rng.random() < 0.6, "is_Sink": rng.random() < 0.5}
            for _ in range(count)
        ],
    )


class Fleet:
    """2 reliable workers on a file-backed journal, 2 publishers and one
    subscriber per reader format on 8 channels."""

    def __init__(self, journal_path=None, workers=2, readers=READERS,
                 registry=None, net=None):
        self.net = net if net is not None else Network(seed=3)
        self.journal = JournalStore(path=journal_path)
        self.fabric = EventFabric(
            self.net, registry=registry or make_registry(),
            journal=self.journal,
        )
        self.workers = [self.fabric.add_worker(f"w{i}") for i in range(workers)]
        self.pubs = [self.fabric.client(f"pub{i}") for i in range(2)]
        self.channels = [f"run/{i}" for i in range(8)]
        self.logs = {}
        self.subs = {}
        for name, fmt in readers:
            log = self.logs[name] = []
            sub = self.subs[name] = self.fabric.client(f"sub-{name}")
            for channel_id in self.channels:
                sub.subscribe(
                    channel_id, fmt,
                    lambda c, p, s, r, log=log: log.append((c, p, s, dict(r))),
                )
        self.net.run()

    def worker_counters(self):
        return [
            (w.processed, w.deliveries, w.duplicates, w.errors)
            for w in self.workers
        ]

    def recovered(self):
        """Every shard's ``recover()`` view of the journal *file*."""
        reloaded = JournalStore(path=self.journal.path)
        state = {}
        for channel_id in self.channels:
            shard = shard_of(channel_id, self.fabric.directory.num_shards)
            recovery = reloaded.recover(shard)
            state[shard] = (recovery.state, recovery.tail)
        return state

    def publish_wire(self, pub, channel_id, seq, record=None):
        """One FABRIC_PUBLISH wire as ``pub.publish`` would build it."""
        envelope = FABRIC_PUBLISH.make_record(
            channel_id=channel_id, publisher=pub.address, seq=seq,
            epoch=self.fabric.directory.epoch,
        )
        return pub.pbio.encode(FABRIC_PUBLISH, envelope) + pub.pbio.encode(
            RESPONSE_V2, record or v2_record(channel_id)
        )


def drive(fleet, batch, events=512, seed=11):
    """The same seeded events, *batch* per publish call; every call goes
    to one channel from one publisher."""
    rng = random.Random(seed)
    for call in range(events // 64):
        channel_id = fleet.channels[rng.randrange(len(fleet.channels))]
        pub = fleet.pubs[call % 2]
        records = [seeded_record(rng, channel_id) for _ in range(64)]
        if batch == 1:
            for record in records:
                pub.publish(channel_id, RESPONSE_V2, record)
        else:
            for start in range(0, 64, batch):
                pub.publish_batch(
                    channel_id, RESPONSE_V2, records[start:start + batch]
                )
        fleet.net.run()


class TestBatchedEqualsSingle:
    def test_same_logs_counters_and_journal(self, tmp_path):
        single = Fleet(str(tmp_path / "single.jsonl"))
        batched = Fleet(str(tmp_path / "batched.jsonl"))
        drive(single, 1)
        drive(batched, 64)
        for name, _fmt in READERS:
            assert len(single.logs[name]) == 512
            assert batched.logs[name] == single.logs[name], name
        assert batched.worker_counters() == single.worker_counters()
        assert sum(w.processed for w in batched.workers) == 512
        assert sum(w.deliveries for w in batched.workers) == 512 * 3
        assert batched.recovered() == single.recovered()
        # the journal files hold the same records, whatever the grouping
        assert (tmp_path / "batched.jsonl").read_bytes() == (
            tmp_path / "single.jsonl"
        ).read_bytes()

    def test_one_frame_in_is_one_frame_out_per_subscriber(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        fleet.net.trace.clear()
        sent = fleet.net.messages_sent
        fleet.pubs[0].publish_batch(
            fleet.channels[0], RESPONSE_V2,
            [v2_record(fleet.channels[0]) for _ in range(64)],
        )
        fleet.net.run()
        # 1 frame in + 3 frames out, each acked: 8 datagrams for 64 events
        assert fleet.net.messages_sent - sent == 8
        assert [len(log) for log in fleet.logs.values()] == [64, 64, 64]

    def test_a_single_publish_leaves_unframed(self, tmp_path, monkeypatch):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        calls = []
        monkeypatch.setattr(
            worker_module, "pack_batch",
            lambda *a, **k: calls.append(a) or pack_batch(*a, **k),
        )
        fleet.pubs[0].publish(
            fleet.channels[0], RESPONSE_V2, v2_record(fleet.channels[0])
        )
        fleet.net.run()
        assert calls == []
        assert [len(log) for log in fleet.logs.values()] == [1, 1, 1]


class TestWhatEndsARun:
    def test_frame_racing_a_handoff_delivers_each_seq_once(self, tmp_path):
        """First half of the frame is for a shard the worker still owns,
        second half for one that has moved: the first is admitted here,
        the second forwarded segment by segment."""
        fleet = Fleet(str(tmp_path / "j.jsonl"), workers=1)
        (w0,) = fleet.workers
        pub = fleet.pubs[0]
        w1 = fleet.fabric.add_worker("w1")  # moves about half the shards
        owner = fleet.fabric.directory.owner
        stays = next(c for c in fleet.channels if owner(c) == "w0")
        moved = next(c for c in fleet.channels if owner(c) == "w1")
        frame = pack_batch(
            [fleet.publish_wire(pub, stays, seq) for seq in range(1, 9)]
            + [fleet.publish_wire(pub, moved, seq) for seq in range(1, 9)]
        )
        pub.reliable.send("w0", frame)  # the handoff snapshot is still in flight
        fleet.net.run()
        assert w0.processed == 8 and w0.forwarded == 8
        assert w1.processed == 8
        for name, _fmt in READERS:
            log = fleet.logs[name]
            assert sorted((c, s) for c, _p, s, _r in log) == sorted(
                [(stays, seq) for seq in range(1, 9)]
                + [(moved, seq) for seq in range(1, 9)]
            )
            assert fleet.subs[name].duplicates == 0

    def test_subscribe_between_publishes_sees_the_second_run(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        pub = fleet.pubs[0]
        channel_id = fleet.channels[0]
        late = fleet.fabric.client("late")
        got = []
        late._routed(channel_id).subscription = (
            RESPONSE_V0, lambda c, p, s, r: got.append(s),
        )
        subscribe = late.pbio.encode(FABRIC_SUBSCRIBE, FABRIC_SUBSCRIBE.make_record(
            channel_id=channel_id, contact="late",
            format_id=RESPONSE_V0.format_id,
            epoch=fleet.fabric.directory.epoch,
        ))
        frame = pack_batch(
            [fleet.publish_wire(pub, channel_id, seq) for seq in (1, 2)]
            + [subscribe]
            + [fleet.publish_wire(pub, channel_id, seq) for seq in (3, 4)]
        )
        pub.reliable.send(fleet.fabric.directory.owner(channel_id), frame)
        fleet.net.run()
        assert got == [3, 4]
        assert [s for _c, _p, s, _r in fleet.logs["v0"]] == [1, 2, 3, 4]

    def test_large_run_leaves_as_several_bounded_frames_in_order(
        self, tmp_path
    ):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        channel_id = fleet.channels[0]
        members = [
            {"info": f"host-{i:04d}.cc.gatech.edu:{5000 + i}", "ID": i,
             "is_Source": True, "is_Sink": False}
            for i in range(270)
        ]
        record = RESPONSE_V2.make_record(
            channel_id=channel_id, member_count=len(members),
            member_list=members,
        )
        assert len(fleet.pubs[0].pbio.encode(RESPONSE_V2, record)) > 10_000
        outbound = []
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        send = owner.reliable.send
        owner.reliable.send = lambda to, data: outbound.append(
            (to, data)) or send(to, data)
        fleet.pubs[0].publish_batch(channel_id, RESPONSE_V2, [record] * 64)
        fleet.net.run()
        for name, _fmt in READERS:
            frames = [d for to, d in outbound if to == f"sub-{name}"]
            assert len(frames) > 1
            assert all(is_batch(f) for f in frames)
            assert all(
                len(f) <= worker_module.MAX_FRAME_BYTES for f in frames
            )
            assert sum(unpack_batch(f).count for f in frames) == 64
            assert [s for _c, _p, s, _r in fleet.logs[name]] == list(
                range(1, 65)
            )
        assert worker_module.MAX_FRAME_BYTES + RELIABLE_HEADER_SIZE < 65_507

    def test_duplicate_frame_journals_and_delivers_nothing(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        pub = fleet.pubs[0]
        channel_id = fleet.channels[0]
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        frame = pack_batch(
            [fleet.publish_wire(pub, channel_id, seq) for seq in range(1, 17)]
        )
        pub.reliable.send(owner.address, frame)
        fleet.net.run()
        journaled = (tmp_path / "j.jsonl").read_bytes()
        appends, deliveries = fleet.journal.appends, owner.deliveries
        pub.reliable.send(owner.address, frame)  # a retransmit the ack outran
        fleet.net.run()
        assert owner.duplicates == 16
        assert fleet.journal.appends == appends
        assert (tmp_path / "j.jsonl").read_bytes() == journaled
        assert owner.deliveries == deliveries
        assert [len(log) for log in fleet.logs.values()] == [16, 16, 16]


class TestPoisonedSegments:
    """A reliable frame is acked as a whole: a segment that cannot be
    processed must not take its neighbours with it."""

    def corrupted(self, wire):
        broken = bytearray(wire)
        broken[20] ^= 0xFF  # inside the envelope body
        return bytes(broken)

    def test_worker_contains_a_poisoned_segment(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        pub = fleet.pubs[0]
        channel_id = fleet.channels[0]
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        for poison in (
            self.corrupted(fleet.publish_wire(pub, channel_id, 99)),
            b"\x00\x01",
            pack_batch([fleet.publish_wire(pub, channel_id, 98)]),  # nested
        ):
            before = owner.errors
            channel = pub._routed(channel_id)
            first = channel.seq + 1
            channel.seq = first + 1
            frame = pack_batch([
                fleet.publish_wire(pub, channel_id, first),
                poison,
                fleet.publish_wire(pub, channel_id, first + 1),
            ])
            pub.reliable.send(owner.address, frame)
            fleet.net.run()
            assert owner.errors == before + 1
            assert [s for _c, _p, s, _r in fleet.logs["v0"]][-2:] == [
                first, first + 1,
            ]
        assert fleet.net.handler_errors == 0

    def test_worker_counts_a_malformed_bare_datagram(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        (w0, _w1) = fleet.workers
        fleet.pubs[0].reliable.send("w0", b"\x00\x01")
        fleet.net.run()
        assert w0.errors == 1
        pub = fleet.pubs[0]
        truncated = pack_batch([fleet.publish_wire(pub, "ch", 1)])[:-3]
        pub.reliable.send("w0", truncated)
        fleet.net.run()
        assert w0.errors == 2
        assert fleet.net.handler_errors == 0

    def test_client_contains_a_poisoned_segment(self, tmp_path):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        channel_id = fleet.channels[0]
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        send = owner.reliable.send

        def poison_v0(to, data):
            if to == "sub-v0" and is_batch(data):
                view = memoryview(data)
                parts = [
                    bytes(view[off:off + n])
                    for off, n in unpack_batch(data).segments
                ]
                parts[1] = self.corrupted(parts[1])
                parts.insert(2, b"\x00\x01")
                parts.insert(3, pack_batch([parts[0]]))  # nested
                data = pack_batch(parts)
            send(to, data)

        owner.reliable.send = poison_v0
        fleet.pubs[0].publish_batch(
            channel_id, RESPONSE_V2, [v2_record(channel_id) for _ in range(4)]
        )
        fleet.net.run()
        sub = fleet.subs["v0"]
        assert sub.errors == 3
        assert [s for _c, _p, s, _r in fleet.logs["v0"]] == [1, 3, 4]
        assert [s for _c, _p, s, _r in fleet.logs["v1"]] == [1, 2, 3, 4]
        sub._on_message("w0", b"\x00\x01")  # bare garbage: counted, not raised
        assert sub.errors == 4
        sub._on_message("w0", pack_batch([b"\x00\x01"])[:-3])  # truncated
        assert sub.errors == 5
        assert fleet.net.handler_errors == 0

    @pytest.mark.parametrize("endpoint", ["worker", "client"])
    def test_a_refused_envelope_names_the_decode_as_cause(
            self, tmp_path, endpoint):
        """An envelope read from its values is refused, and contained,
        with the error ``decode_as`` gives the same bytes at that use."""
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        channel_id = fleet.channels[0]
        for _ in range(2):  # both ends generate their envelope coders
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        fleet.net.run()
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id))
        if endpoint == "worker":
            host, fmt = owner, FABRIC_PUBLISH
            wire = fleet.publish_wire(fleet.pubs[0], channel_id, 99)
            sender = fleet.pubs[0]
        else:
            host, fmt = fleet.subs["v0"], FABRIC_DELIVER
            wire = owner.pbio.encode_values(fmt, (channel_id, "pub0", 99))
            sender = owner
        poison = self.corrupted(wire)
        ctx = PBIOContext()
        for _use in range(2):  # the generated decoder's refusal
            with pytest.raises(DecodeError) as refused:
                ctx.decode_as(fmt, poison)
        before = host.errors
        sender.reliable.send(host.address, poison)
        fleet.net.run()
        assert host.errors == before + 1
        assert type(host.last_error) is DecodeError
        assert str(host.last_error) == str(refused.value)

    @pytest.mark.parametrize("endpoint", ["worker", "client"])
    def test_each_failure_names_its_format(self, tmp_path, endpoint):
        """An envelope of an unregistered id, and one of a registered
        format the endpoint has no use for, each count one error whose
        ``last_error`` names the format."""
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        host = fleet.workers[0] if endpoint == "worker" else fleet.subs["v0"]
        unknown = 0x7E57
        for wire, cause in (
            (pack_header(unknown, 4) + bytes(4), f"{unknown:#x}"),
            (host.pbio.encode(RESPONSE_V2, v2_record(fleet.channels[0])),
             RESPONSE_V2.name),
        ):
            before = host.errors
            fleet.pubs[0].reliable.send(host.address, wire)
            fleet.net.run()
            assert host.errors == before + 1
            assert isinstance(host.last_error, ReproError)
            assert cause in str(host.last_error)
        assert fleet.net.handler_errors == 0

    def test_unreachable_contact_does_not_starve_the_others(self, tmp_path):
        """A subscriber address nobody listens on makes its send raise;
        the contacts queued behind it still get the run."""
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        channel_id = fleet.channels[0]
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        ghost = fleet.pubs[0].pbio.encode(
            FABRIC_SUBSCRIBE, FABRIC_SUBSCRIBE.make_record(
                channel_id=channel_id, contact="nobody-home",
                format_id=min(f.format_id for _n, f in READERS),
                epoch=fleet.fabric.directory.epoch,
            ))
        fleet.pubs[0].reliable.send(owner.address, ghost)
        fleet.net.run()
        for batch in (1, 8):
            before = owner.errors
            fleet.pubs[0].publish_batch(
                channel_id, RESPONSE_V2,
                [v2_record(channel_id) for _ in range(batch)],
            )
            fleet.net.run()
            assert owner.errors == before + 1
            assert "nobody-home" in str(owner.last_error)
        assert [len(log) for log in fleet.logs.values()] == [9, 9, 9]
        assert fleet.net.handler_errors == 0


class TestReadersOfOneWire:
    """What events cost at the owner, in calls: no payload
    ``decode_as`` and no ``Transformation.apply`` once each group's
    route carried its first event (which runs staged: second sight).
    From then on the v1.0 group runs its one wire-to-wire routine, the
    v0.0 group cuts its wire from the v1.0 group's (V1→V0 is a wire
    projection) and the v2.0 group hands the payload on, checked by that
    routine; a channel with one group runs its own routine."""

    def count_at_the_owner(self, fleet, monkeypatch):
        """(payload decodes by group receivers, ``Transformation.apply``
        calls) while 64 events go through ``run/0``: 32 single publishes
        and one frame of 32."""
        decodes, applies = [], []
        decode_as, apply = PBIOContext.decode_as, Transformation.apply
        monkeypatch.setattr(
            PBIOContext, "decode_as",
            lambda ctx, fmt, data, header=None: decodes.append(ctx)
            or decode_as(ctx, fmt, data, header),
        )
        monkeypatch.setattr(
            Transformation, "apply",
            lambda step, record: applies.append(step) or apply(step, record),
        )
        channel_id = fleet.channels[0]
        records = [seeded_record(random.Random(n), channel_id) for n in range(64)]
        for record in records[:32]:
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.pubs[1].publish_batch(channel_id, RESPONSE_V2, records[32:])
        fleet.net.run()
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id)
        )
        groups = owner._channels[channel_id].groups.values()
        contexts = {id(group.receiver.context) for group in groups}
        return sum(id(ctx) in contexts for ctx in decodes), len(applies)

    def test_three_groups_one_decode_and_each_transform_once(
        self, tmp_path, monkeypatch
    ):
        """The id is historical: the first event, staged, decodes once
        and applies V2→V1 once (the v1.0 group), the v0.0 group cuts its
        wire from the v1.0 wire and the v2.0 group takes the payload
        that decode checked; the other 63 events decode and apply
        nothing."""
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        assert self.count_at_the_owner(fleet, monkeypatch) == (1, 1)
        assert [len(log) for log in fleet.logs.values()] == [64, 64, 64]

    def test_a_lone_group_stays_fused(self, tmp_path, monkeypatch):
        # wire to wire from the route's second event: its first runs
        # staged — one payload decode and the ladder's two steps — so
        # that a format sent once never pays a compile()
        fleet = Fleet(str(tmp_path / "j.jsonl"), readers=READERS[2:])
        assert self.count_at_the_owner(fleet, monkeypatch) == (1, 2)
        assert [len(log) for log in fleet.logs.values()] == [64]


class TestEncodeRegistersByIdentity:
    """Every ``PBIOContext.encode`` registers its format; for the format
    already registered that is an identity test, not a structural
    comparison (two recursive ``signature()`` walks per encode, six
    encodes per event).  Counted, never timed."""

    def test_steady_state_events_walk_no_format(self, tmp_path, monkeypatch):
        fleet = Fleet(str(tmp_path / "j.jsonl"))
        channel_id = fleet.channels[0]
        records = [seeded_record(random.Random(n), channel_id) for n in range(72)]
        for record in records[:8]:  # codecs generated, routes planned
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        walks = []
        signature = IOField.signature
        monkeypatch.setattr(
            IOField, "signature",
            lambda field: walks.append(field) or signature(field),
        )
        for record in records[8:]:
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        assert [len(log) for log in fleet.logs.values()] == [72, 72, 72]
        assert len(walks) == 0


class TestGroupFailuresReachTheWorker:
    """An admitted, journaled event a group's receiver could not convert
    used to vanish into that receiver's dead-letter queue (which nothing
    in the fabric reads), and after three in a row the group's format was
    quarantined — with ``worker.errors`` still 0."""

    WIDE = IOFormat(
        "Reading", [IOField("x", "integer"), IOField("d", "integer")],
        version="2.0",
    )
    NARROW = IOFormat("Reading", [IOField("q", "integer")], version="1.0")

    def fleet(self, tmp_path, name):
        registry = make_registry()
        registry.register_transform(
            TransformSpec(self.WIDE, self.NARROW, "old.q = new.x / new.d;")
        )
        return Fleet(
            str(tmp_path / name), workers=1, registry=registry,
            readers=(("v2", self.WIDE), ("v1", self.NARROW)),
        )

    def check(self, fleet, publish):
        (worker,) = fleet.workers
        channel_id = fleet.channels[0]
        records = [{"x": 6, "d": d} for d in (1, 0, 0, 0, 1, 1, 1)]
        publish(fleet.pubs[0], channel_id, records)
        fleet.net.run()
        assert [r for _c, _p, _s, r in fleet.logs["v2"]] == records
        # one delivered, three dead-lettered in a row, and then the
        # quarantine drops three events the group *could* have converted
        assert [r for _c, _p, _s, r in fleet.logs["v1"]] == [{"q": 6}]
        assert worker.errors == len(records) - len(fleet.logs["v1"]) == 6
        assert worker.processed == 7

    def test_single_publishes(self, tmp_path):
        def publish(pub, channel_id, records):
            for record in records:
                pub.publish(channel_id, self.WIDE, record)

        self.check(self.fleet(tmp_path, "single.jsonl"), publish)

    def test_one_frame(self, tmp_path):
        self.check(
            self.fleet(tmp_path, "frame.jsonl"),
            lambda pub, channel_id, records: pub.publish_batch(
                channel_id, self.WIDE, records
            ),
        )
