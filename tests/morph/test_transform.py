"""Unit tests for compiled Transformations and TransformChains."""

import collections
import hashlib
import itertools
import random
import sys
import threading

import pytest

from repro import obs
from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.process import EChoProcess
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V1_TO_V2_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.ecode import analyze
from repro.ecode.runtime import AutoList
from repro.errors import FormatError, TransformError
from repro.fabric import JournalStore, shard_of
from repro.fabric.protocol import FABRIC_DELIVER
from repro.morph import transform as transform_mod
from repro.morph.fusion import FusedRoute
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import (
    TransformChain,
    Transformation,
    build_chain,
    growable_record,
)
from repro.net.batch import is_batch, unpack_batch
from repro.net.reliable import HEADER_SIZE as RELIABLE_HEADER_SIZE
from repro.net.reliable import MAGIC as RELIABLE_MAGIC
from repro.net.transport import Network
from repro.obs.metrics import Counter, Gauge
from repro.pbio import buffer as pbio_buffer
from repro.pbio import serialization
from repro.pbio.buffer import unpack_header
from repro.pbio.context import CODEC_CACHE_MAX, PBIOContext
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.serialization import format_from_dict, format_to_dict

from tests.fabric.test_run_pipeline import Fleet, seeded_record
from tests.integration.test_hold import fleet as format_service, v2_event
from tests.obs.parity_scenario import Scenario


class TestGrowableRecord:
    def test_defaults_match_format(self, v1):
        rec = growable_record(v1)
        assert rec["member_count"] == 0
        assert rec["member_list"] == []
        assert rec["channel_id"] == ""

    def test_arrays_autogrow_with_complex_elements(self, v1):
        rec = growable_record(v1)
        rec["member_list"][2]["info"] = "late"
        assert len(rec["member_list"]) == 3
        assert rec["member_list"][0] == {"info": "", "ID": 0}

    def test_grown_elements_are_fresh(self, v1):
        rec = growable_record(v1)
        rec["member_list"][0]["ID"] = 5
        assert rec["member_list"][1]["ID"] == 0

    def test_nested_growable(self):
        inner = IOFormat(
            "Inner",
            [IOField("m", "integer"),
             IOField("vals", "integer", array=ArraySpec(length_field="m"))],
        )
        outer = IOFormat(
            "Outer",
            [IOField("n", "integer"),
             IOField("rows", "complex", subformat=inner,
                     array=ArraySpec(length_field="n"))],
        )
        rec = growable_record(outer)
        rec["rows"][0]["vals"][1] = 7
        assert rec["rows"][0]["vals"] == [0, 7]

    def test_fixed_arrays_prefilled(self):
        fmt = IOFormat("F", [IOField("xs", "integer", array=ArraySpec(fixed_length=2))])
        assert growable_record(fmt)["xs"] == [0, 0]

    def test_declarations_that_share_a_wire_id_keep_their_own_defaults(self):
        """The fingerprint leaves declared defaults out, so two
        declarations of one id differ exactly where a default record is
        made: the memo is keyed by content, not by id."""
        def declared(default):
            return IOFormat(
                "T", [IOField("x", "integer", 4, default=default)], version="1.0"
            )

        assert declared(1).format_id == declared(7).format_id
        assert growable_record(declared(1)) == {"x": 1}
        assert growable_record(declared(7)) == {"x": 7}
        assert growable_record(declared(1)) == {"x": 1}


class TestTransformation:
    def test_figure5_paper_example(self, v2):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        incoming = response_v2(5)
        out = xform.apply(incoming)
        assert records_equal(out, response_v1_from_v2(incoming))

    def test_source_and_target_exposed(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform.source == RESPONSE_V2
        assert xform.target == RESPONSE_V1

    def test_interpreted_mode_agrees_with_compiled(self):
        compiled = Transformation(V2_TO_V1_TRANSFORM, use_codegen=True)
        interpreted = Transformation(V2_TO_V1_TRANSFORM, use_codegen=False)
        incoming = response_v2(4)
        assert records_equal(compiled.apply(incoming), interpreted.apply(incoming))

    def test_bad_ecode_raises_transform_error_at_compile(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "this is not C;")
        with pytest.raises(TransformError, match="compile"):
            Transformation(spec)

    def test_runtime_failure_wrapped(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "old.x = new.missing;")
        xform = Transformation(spec)
        with pytest.raises(TransformError, match="runtime"):
            xform.apply(response_v2(1))

    def test_validation_catches_inconsistent_output(self):
        # sets a count without populating the list: the transform hands
        # it on unchecked, and the target's validation refuses it
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        out = Transformation(spec).apply(response_v2(2))
        with pytest.raises(FormatError, match="member_list"):
            RESPONSE_V1.validate_record(out)

    def test_validation_off_delivers_anyway(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        out = Transformation(spec).apply(response_v2(2))
        assert out["member_count"] == 2 and out["member_list"] == []

    def test_unwritten_fields_keep_defaults(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V0, "old.channel_id = new.channel_id;"
        )
        out = Transformation(spec).apply(response_v2(1))
        assert out["member_count"] == 0
        assert out["member_list"] == []

    def test_callable_protocol(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform(response_v2(1)) == xform.apply(response_v2(1))


class TestAssignmentIsByValue:
    """A transform's ``new`` is the caller's record (one event's memo
    hands the same decode to every reader): whole-record and whole-array
    stores must copy, in both engines."""

    WHOLE_STORES = """
    old.channel_id = new.channel_id;
    old.member_count = new.member_count;
    old.member_list = new.member_list;
    old.member_list[0].ID = 99;
    old.src_count = 1;
    old.src_list[0] = new.member_list[1];
    old.src_list[0].info = "rewritten";
    """

    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_output_shares_nothing_with_the_input(self, use_codegen):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        xform = Transformation(spec, use_codegen=use_codegen)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(3))
        )
        before = incoming.deepcopy()
        out = xform.apply(incoming)
        assert incoming == before
        assert out["member_list"][0]["ID"] == 99
        assert out["src_list"] == [
            {"info": "rewritten", "ID": before["member_list"][1]["ID"]}
        ]
        assert type(out["member_list"]) is list and type(out["src_list"]) is list

    def test_compiled_agrees_with_interpreted(self):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(4))
        )
        compiled = Transformation(spec, use_codegen=True).apply(incoming)
        interpreted = Transformation(spec, use_codegen=False).apply(incoming)
        assert compiled == interpreted


class TestMorphPrice:
    """What one V2->V1 morph may cost, counted by wrapping (never timed):
    no Python-level ``Record.__setitem__`` (typed scalar stores go
    straight to ``dict``), no ``AutoList.__getitem__`` (output elements
    are built whole and appended: :class:`TestAppendFormPrice`), and a
    freeze that makes no call per element — so the Python frames a morph
    enters do not depend on its size."""

    MEMBERS = 64

    @pytest.fixture
    def census(self, monkeypatch):
        calls = {"setitem": 0, "getitem": 0}
        record_setitem = Record.__setitem__
        autolist_getitem = AutoList.__getitem__

        def counted_setitem(self, key, value):
            calls["setitem"] += 1
            record_setitem(self, key, value)

        def counted_getitem(self, index):
            calls["getitem"] += 1
            return autolist_getitem(self, index)

        monkeypatch.setattr(Record, "__setitem__", counted_setitem)
        monkeypatch.setattr(AutoList, "__getitem__", counted_getitem)
        return calls

    def _check(self, census, out, frames):
        elements = sum(
            len(out[name]) for name in ("member_list", "src_list", "sink_list")
        )
        assert elements > self.MEMBERS  # the role lists are populated
        assert census == {"setitem": 0, "getitem": 0}
        for name in ("member_list", "src_list", "sink_list"):
            assert type(out[name]) is list
        # every freeze closure is called `freeze`: the record's own call
        # is the only one, its flat elements get none
        assert frames.count("freeze") == 1

    @staticmethod
    def _frames(fn):
        """Run *fn*; the names of the Python functions entered meanwhile
        (with the collector off: its callbacks are nobody's price)."""
        import gc
        import sys

        names = []

        def profiler(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
            gc.enable()
        return result, names

    def _staged(self, members, census):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        incoming = response_v2(members)
        census.update(setitem=0, getitem=0)  # building the input is not the morph
        return self._frames(lambda: xform.apply(incoming))

    def _fused(self, members, census):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        got = []
        receiver = MorphReceiver(registry, use_fusion=True)
        receiver.register_handler(RESPONSE_V1, got.append)
        wire = PBIOContext(registry).encode(RESPONSE_V2, response_v2(members))
        receiver.process(wire)  # plans the route
        receiver.process(wire)  # compiles it: its second message
        assert receiver.route_for(RESPONSE_V2).fused.fn_for("<") is not None
        census.update(setitem=0, getitem=0)
        got.clear()
        _, frames = self._frames(lambda: receiver.process(wire))
        return got[0], frames

    def test_staged_morph(self, census):
        out, frames = self._staged(self.MEMBERS, census)
        self._check(census, out, frames)
        assert self._staged(2 * self.MEMBERS, census)[1] == frames

    def test_fused_morph(self, census):
        out, frames = self._fused(self.MEMBERS, census)
        self._check(census, out, frames)
        assert self._fused(2 * self.MEMBERS, census)[1] == frames


class TestAppendFormPrice:
    """What one Figure 5 morph asks of the generated code's helpers,
    counted by wrapping them in the generated function's globals (never
    timed): each output element is built with one ``_new`` and one
    ``_upd`` and appended — never grown and read back with ``_lget`` —
    and the ``_set`` stores are the record's own scalars, the same at
    any size.  Staged and fused alike."""

    MEMBERS = (64, 128)
    HELPERS = ("_set", "_lget", "_new", "_upd")

    @classmethod
    def _counting(cls, fn):
        tally = dict.fromkeys(cls.HELPERS, 0)
        names = fn.__globals__
        for name in cls.HELPERS:
            def counted(*args, name=name, helper=names[name]):
                tally[name] += 1
                return helper(*args)

            names[name] = counted
        return tally

    def _staged(self, members):
        """``(output, tally, records the decode built)``"""
        xform = Transformation(V2_TO_V1_TRANSFORM)
        tally = self._counting(xform.procedure._function)
        return xform.apply(response_v2(members)), tally, 0

    def _fused(self, members):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        got = []
        receiver = MorphReceiver(registry, use_fusion=True)
        receiver.register_handler(RESPONSE_V1, got.append)
        wire = PBIOContext(registry).encode(RESPONSE_V2, response_v2(members))
        receiver.process(wire)  # plans the route
        receiver.process(wire)  # compiles it: its second message
        tally = self._counting(receiver.route_for(RESPONSE_V2).fused.fn_for("<"))
        got.clear()
        receiver.process(wire)
        # the route's decode fragment builds the incoming record and its
        # members with the same two calls
        return got[0], tally, 1 + members

    @pytest.mark.parametrize("path", ["staged", "fused"])
    def test_each_output_element_is_built_once_and_appended(self, path):
        sets = []
        for members in self.MEMBERS:
            out, tally, decoded = getattr(self, f"_{path}")(members)
            elements = sum(
                len(out[name]) for name in ("member_list", "src_list", "sink_list")
            )
            assert elements > members  # the role lists are populated
            assert tally["_lget"] == 0
            assert tally["_new"] == tally["_upd"] == elements + decoded
            sets.append(tally["_set"])
        assert sets[0] == sets[1]


@pytest.mark.parametrize("buffer", [bytes, memoryview])
class TestDecodePrice:
    """What one decode may cost, counted by wrapping (never timed): a
    generated decoder builds each record with two C calls and no Python
    frame, so the frames a decode enters do not depend on how many
    records it builds — through ``PBIOContext.decode_as`` and through a
    fused route's decode fragment alike, on ``bytes`` and on a view."""

    MEMBERS = 64

    def _staged(self, members, buffer):
        ctx = PBIOContext()
        data = buffer(ctx.encode(RESPONSE_V2, response_v2(members)))
        ctx.decode_as(RESPONSE_V2, data)  # first use: interpretive
        ctx.decode_as(RESPONSE_V2, data)  # second: generates the decoder
        assert ctx.generated_decoder_count == 1
        return TestMorphPrice._frames(lambda: ctx.decode_as(RESPONSE_V2, data))

    def _fused(self, members, buffer):
        # a route with no chain and no reconcile: its decode fragment alone
        route = FusedRoute(RESPONSE_V2, None, "decode", [], None)
        assert route.fn_for("<") is None  # first message: staged
        fn = route.fn_for("<")
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(members))
        header = unpack_header(wire)
        end = header.body_offset + header.payload_length
        return TestMorphPrice._frames(
            lambda: fn(buffer(wire), header.body_offset, end)[0])

    @staticmethod
    def _check(rec, members):
        assert type(rec) is Record
        assert len(rec["member_list"]) == members
        assert all(type(m) is Record for m in rec["member_list"])

    def test_staged_decode(self, buffer):
        rec, frames = self._staged(self.MEMBERS, buffer)
        self._check(rec, self.MEMBERS)
        assert self._staged(2 * self.MEMBERS, buffer)[1] == frames

    def test_fused_decode(self, buffer):
        rec, frames = self._fused(self.MEMBERS, buffer)
        self._check(rec, self.MEMBERS)
        assert frames == ["<lambda>", "_fused_route"]
        assert self._fused(2 * self.MEMBERS, buffer)[1] == frames


class TestEnvelopePrice:
    """What a fabric event's envelopes cost, counted by wrapping module
    globals (never timed).  Through a three-group channel each event
    parses 8 headers — the owner's envelope and payload, then each of
    three subscribers' envelope and payload, every one once per hop —
    and builds no envelope record at all: ``FABRIC_PUBLISH`` and
    ``FABRIC_DELIVER`` are coded from and to their field values
    (``PBIOContext.encode_values`` / ``decode_values``), so neither
    ``IOFormat.make_record`` nor ``Record.__init__`` runs."""

    @staticmethod
    def parses(monkeypatch):
        """Every ``unpack_header`` call from here on, wherever made."""
        parses = []
        unpack_header = pbio_buffer.unpack_header
        for module in list(sys.modules.values()):  # ``from ... import`` copies
            if getattr(module, "unpack_header", None) is unpack_header:
                monkeypatch.setattr(
                    module, "unpack_header",
                    lambda *a: parses.append(1) or unpack_header(*a),
                )
        return parses

    def count(self, monkeypatch, send):
        fleet = Fleet()
        channel_id = fleet.channels[0]
        records = [seeded_record(random.Random(n), channel_id) for n in range(64)]
        for record in records[:2]:  # plan the routes, generate the coders
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        parses = self.parses(monkeypatch)
        inits, envelopes = [], []
        init, make_record = Record.__init__, IOFormat.make_record
        monkeypatch.setattr(
            Record, "__init__",
            lambda rec, *a, **k: inits.append(1) or init(rec, *a, **k),
        )
        monkeypatch.setattr(
            IOFormat, "make_record",
            lambda fmt, **k: envelopes.append(fmt.name) or make_record(fmt, **k),
        )
        events = send(fleet.pubs[0], channel_id, records)
        fleet.net.run()
        assert [len(log) for log in fleet.logs.values()] == [2 + events] * 3
        return len(parses) / events, len(inits), envelopes

    def test_one_publish(self, monkeypatch):
        def send(pub, channel_id, records):
            pub.publish(channel_id, RESPONSE_V2, records[2])
            return 1

        assert self.count(monkeypatch, send) == (8, 0, [])

    def test_a_batch_of_64(self, monkeypatch):
        def send(pub, channel_id, records):
            pub.publish_batch(channel_id, RESPONSE_V2, records)
            return 64

        assert self.count(monkeypatch, send) == (8, 0, [])

    def test_an_echo_sink_parses_each_message_once(self, monkeypatch):
        """Envelope and payload, once each, at a sink that resolves
        formats through the servers (its payload header also decides
        hold and interest announcement) — in a v2.0 and a v1.0 sink."""
        net = Network(seed=9)
        format_service(net)
        source = EChoProcess(net, "source", format_servers=["fs-a", "fs-b"])
        source.create_channel("ech")
        sinks = {}
        for fmt in (RESPONSE_V2, RESPONSE_V1):
            sink = sinks[fmt.version] = EChoProcess(
                net, f"sink-{fmt.version}", format_servers=["fs-a", "fs-b"])
            sink.open_channel("ech", "source", as_sink=True)
        net.run()
        got = []
        for fmt in (RESPONSE_V2, RESPONSE_V1):
            sinks[fmt.version].subscribe("ech", fmt, got.append)
        for index in range(2):  # fetch, plan, generate
            source.submit("ech", *v2_event(index))
        net.run()
        parses = self.parses(monkeypatch)
        for index in range(2, 18):
            source.submit("ech", *v2_event(index))
        net.run()
        assert len(got) == 2 * 18
        assert len(parses) == 16 * 2 * 2


#: The owner's three datagrams for a lone publish of
#: :class:`TestDeliveryFramePrice`, and the network timers it scheduled,
#: while each run was sent as it ended.
LONE_PUBLISH_SHA256 = (
    "b3ec2c8b445361d050f229ab4eaafd518f027a4a5d28e261edd5fde8dc4456c4")
LONE_PUBLISH_TIMERS = 8


class TestDeliveryFramePrice:
    """What a three-group owner sends for the publishes of one receive
    burst, counted by wrapping the network object (never timed): one
    BATCH1 frame per subscriber however many publishes reached it at
    that instant, and a lone publish exactly what it always was — three
    bare datagrams, on no more timers."""

    @staticmethod
    def deliveries(monkeypatch, publishes):
        """``(data datagrams the owner sent its subscribers, their
        payloads, network timers scheduled)`` for *publishes* single
        publishes of one record (one size: one arrival instant), after
        two events planned the routes and generated the coders."""
        fleet = Fleet()
        channel_id = fleet.channels[0]
        record = seeded_record(random.Random(0), channel_id)
        for _ in range(2):
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        owner = fleet.fabric.directory.owner(channel_id)
        sent, timers = [], []
        send = fleet.net.send

        def tap(source, destination, data):
            if (source == owner and destination.startswith("sub-")
                    and data[len(RELIABLE_MAGIC)] == 0):
                sent.append(data[RELIABLE_HEADER_SIZE:])
            return send(source, destination, data)

        monkeypatch.setattr(fleet.net, "send", tap)
        for name in ("call_at", "call_later"):
            schedule = getattr(fleet.net, name)
            monkeypatch.setattr(
                fleet.net, name,
                lambda *a, _schedule=schedule: timers.append(1)
                or _schedule(*a),
            )
        for _ in range(publishes):
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        assert [len(log) for log in fleet.logs.values()] == [
            2 + publishes] * 3
        return sent, len(timers)

    def test_sixteen_publishes_at_one_instant_are_one_frame_each(
            self, monkeypatch):
        sent, _timers = self.deliveries(monkeypatch, 16)
        assert len(sent) == 3  # one datagram per delivery: 48
        assert all(is_batch(wire) for wire in sent)
        assert [unpack_batch(wire).count for wire in sent] == [16] * 3

    def test_a_lone_publish_leaves_bare_and_unchanged(self, monkeypatch):
        sent, _timers = self.deliveries(monkeypatch, 1)
        assert len(sent) == 3
        assert not any(is_batch(wire) for wire in sent)
        # the owner's three datagrams while each run was sent as it ended
        assert hashlib.sha256(b"".join(sent)).hexdigest() == (
            LONE_PUBLISH_SHA256)

    def test_a_lone_publish_schedules_no_more_timers(self, monkeypatch):
        _sent, timers = self.deliveries(monkeypatch, 1)
        # the publisher's retransmission timer, the owner's ack flush
        # (which sends the deliveries too) and its three retransmission
        # timers, the three subscribers' ack flushes
        assert timers == LONE_PUBLISH_TIMERS


class TestBurstCommitPrice:
    """What a three-group owner on a file-backed journal pays per receive
    burst, counted by wrapping (never timed): however many single
    publishes of one channel reached it at one instant, their admits
    reach the journal file in **one** write and the channel's runs are
    fanned out by **one** ``_fan_out``, at the burst's flush (16 of each
    while each run was journaled and fanned out as it arrived)."""

    def test_sixteen_publishes_at_one_instant_commit_once(
            self, monkeypatch, tmp_path):
        import builtins

        path = str(tmp_path / "fabric.journal")
        fleet = Fleet(journal_path=path)
        channel_id = fleet.channels[0]
        record = seeded_record(random.Random(0), channel_id)
        for _ in range(2):  # plan the routes, generate the coders
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        owner = next(w for w in fleet.workers if w.owns(channel_id))
        writes, fan_outs = [], []
        real_open = builtins.open
        monkeypatch.setattr(
            builtins, "open", lambda *a, **k: (
                writes.append(a[0]) if a[0] == path else None
            ) or real_open(*a, **k))
        fan_out = owner._fan_out
        monkeypatch.setattr(owner, "_fan_out", lambda channel, run, *trace: (
            fan_outs.append((channel.channel_id, len(run)))
            or fan_out(channel, run, *trace)))
        for _ in range(16):
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        monkeypatch.undo()
        assert [len(log) for log in fleet.logs.values()] == [18] * 3
        assert writes == [path]  # 16 appends while each run wrote its own
        assert fan_outs == [(channel_id, 16)]  # 16 runs of one
        # the one write holds every admit: the file recovers all 18
        tail = JournalStore(path=path).recover(
            shard_of(channel_id, fleet.fabric.directory.num_shards)).tail
        assert [seq for _c, _p, seq, _r in tail] == list(range(1, 19))


#: Python calls into ``repro`` from one paced publish through the
#: three-group fabric of :class:`TestPacedPublishPrice` to its first
#: subscriber delivery, on the simulated network; named functions only,
#: so the count is one on every interpreter.  239 while the client
#: looked its route up through ``_route``, beside its other per-channel
#: tables; 249 while the reliable
#: endpoint looked its per-peer state up in nine tables (a ``breaker``
#: lookup per send and ack) and received each frame through
#: ``_on_data`` / ``_ack_later`` / ``_watch_stall``; 252 while the owner
#: journaled and fanned out each run as it arrived (a journal group and a
#: compaction check per run) and each group's receiver checked the
#: handed payload header out of line (``check_header``); 296 while each
#: codec use ran through ``PBIOContext._encode`` / ``_decode_as``,
#: registered the format per encode and wrapped the generated routine in
#: a closure with ``pack_header`` / ``check_header``, and the envelopes
#: were records.
PACED_PUBLISH_CALLS = 238

#: The same count on :class:`~repro.net.socket.SocketNetwork` (UDP
#: loopback), which is what a deployment pays instead of the sim's
#: scheduler and link model (232 before the client's per-channel
#: record, 241 before the per-peer record, 244 before
#: the burst commit and the inline header check, 288 with the codec
#: chain above).
PACED_PUBLISH_CALLS_SOCKET = 231


class TestPacedPublishPrice:
    """What one publish on an idle three-group fabric costs its first
    subscriber in Python calls (counted with ``sys.setprofile``, never
    timed): the paced latency row's price.  Counts ``call`` events whose
    code is in the ``repro`` package, from ``publish`` to the first
    ``FabricClient._on_deliver``, on the simulated network and on UDP
    loopback."""

    @staticmethod
    def calls(fleet):
        import gc
        import os

        import repro

        root = os.path.dirname(repro.__file__) + os.sep
        channel_id = fleet.channels[0]
        record = seeded_record(random.Random(0), channel_id)
        for _ in range(2):  # plan the routes, generate the coders
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        calls = []

        def profiler(frame, event, arg):
            code = frame.f_code
            # comprehensions are calls on 3.11 and inlined on 3.12
            # (PEP 709): count named functions only
            if (event == "call" and code.co_filename.startswith(root)
                    and not code.co_name.startswith("<")):
                calls.append(code.co_name)
                if code.co_name == "_on_deliver":
                    sys.setprofile(None)

        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
            fleet.net.run()
        finally:
            sys.setprofile(None)
            gc.enable()
        assert [len(log) for log in fleet.logs.values()] == [3] * 3
        assert calls[-1] == "_on_deliver"
        return calls

    def test_one_paced_publish(self):
        assert len(self.calls(Fleet())) == PACED_PUBLISH_CALLS

    def test_one_paced_publish_over_udp(self):
        from repro.net.socket import SocketNetwork

        with SocketNetwork(seed=3) as net:
            calls = self.calls(Fleet(net=net))
        assert len(calls) == PACED_PUBLISH_CALLS_SOCKET, calls


#: Named ``repro`` calls of one ECho ``submit`` on a warmed creator /
#: source / two-sink fleet, to the end of ``net.run()`` (a v1.0 event
#: to two v1.0 sinks).  182 while each submit asked ``_has_derived``
#: (a scan of every channel) and each sink delivery ran through
#: ``_process`` to reach its receiver, kept in a table of its own.
ECHO_SUBMIT_CALLS = 179


class TestEchoSubmitPrice:
    """What one ECho event costs in Python calls (``sys.setprofile``,
    never timed): from ``submit`` at the source through both sinks'
    handlers, counting ``call`` events of named functions in the
    ``repro`` package."""

    EVENT = IOFormat(
        "Telemetry", [IOField("t", "float"), IOField("load", "integer")],
        version="1.0",
    )

    def test_one_submit_to_two_sinks(self):
        import gc
        import os

        import repro

        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry)
        creator.create_channel("c")
        source = EChoProcess(net, "source", registry)
        source.open_channel("c", "creator", as_source=True)
        sinks = [EChoProcess(net, f"sink-{i}", registry) for i in range(2)]
        for sink in sinks:
            sink.open_channel("c", "creator", as_sink=True)
        net.run()
        got = []
        for sink in sinks:
            sink.subscribe("c", self.EVENT, got.append)
        record = self.EVENT.make_record(t=1.0, load=2)
        for _ in range(2):  # plan the routes, generate the coders
            source.submit("c", self.EVENT, record)
        net.run()
        root = os.path.dirname(repro.__file__) + os.sep
        calls = []

        def profiler(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename.startswith(root)
                    and not code.co_name.startswith("<")):
                calls.append(code.co_name)

        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            source.submit("c", self.EVENT, record)
            net.run()
        finally:
            sys.setprofile(None)
            gc.enable()
        assert len(got) == 6
        assert len(calls) == ECHO_SUBMIT_CALLS, calls


class TestCountGuard:
    """Every count is kept once, by its owner, and collected: on the
    observed fleet of ``tests/obs/parity_scenario.py`` no code of the
    package outside ``repro.obs.metrics`` updates an instrument, and the
    reliable layer's and the journal's families do not grow with the
    fleet.  Counted by wrapping, never timed."""

    UPDATES = ((Counter, "inc"), (Gauge, "set"), (Gauge, "inc"),
               (Gauge, "dec"))

    @staticmethod
    def observed(journal, **fleet):
        """The live registry's instruments after some traffic and one
        scrape on a *fleet*-shaped scenario journaling to *journal*."""
        obs.enable()
        try:
            scenario = Scenario(str(journal), **fleet)
            scenario.publish(32)
            scenario.publish_batches(1)
            scenario.scrape()
            return obs.OBS.metrics.instruments()
        finally:
            obs.disable(reset=True)

    def test_no_count_is_pushed(self, monkeypatch, tmp_path):
        pushed = collections.Counter()
        for cls, name in self.UPDATES:
            update = getattr(cls, name)

            def counted(instrument, *args, _update=update,
                        _name=f"{cls.__name__}.{name}", **kwargs):
                module = sys._getframe(1).f_globals.get("__name__", "")
                if (module.startswith("repro.")
                        and module != "repro.obs.metrics"):
                    pushed[_name, module] += 1
                return _update(instrument, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        instruments = self.observed(tmp_path / "journal.jsonl")
        assert len(instruments) > 100
        assert pushed == {}

    @classmethod
    def families(cls, journal, **fleet):
        """``(net.reliable.* instruments per endpoint, as a set of
        counts; fabric.journal.entries_since_snapshot instruments)``."""
        instruments = cls.observed(journal, **fleet)
        per_endpoint = collections.Counter(
            dict(i.labels)["endpoint"] for i in instruments
            if i.name.startswith("net.reliable.")
        )
        journal = sum(i.name == "fabric.journal.entries_since_snapshot"
                      for i in instruments)
        return set(per_endpoint.values()), journal

    def test_families_do_not_grow_with_workers(self, tmp_path):
        assert self.families(tmp_path / "2.jsonl", workers=2) == (
            self.families(tmp_path / "3.jsonl", workers=3))

    def test_families_do_not_grow_with_subscribers(self, tmp_path):
        assert self.families(tmp_path / "3.jsonl", subscribers=3) == (
            self.families(tmp_path / "5.jsonl", subscribers=5))


class TestProjectionCutPrice:
    """What a three-group fabric event costs in transforms and encodes,
    counted by wrapping globals (never timed).  V1→V0 is a wire
    projection: the owner's v0.0 group cuts its payload out of the v1.0
    wire the v1.0 group needs anyway, so the owner never applies V1→V0
    and never encodes a v0.0 payload.  An event is then encoded 4 times
    — publish envelope and payload, deliver envelope, the v1.0 payload
    — and still parses 8 headers (:class:`TestEnvelopePrice`)."""

    @staticmethod
    def count(monkeypatch, fleet, send, formats=(RESPONSE_V2,) * 2):
        """``(V1→V0 applies, the owner's payload encodes by format
        version, encodes, header parses)`` per event of *send*, after two
        events planned the routes and generated the coders."""
        channel_id = fleet.channels[0]
        records = [seeded_record(random.Random(n), channel_id) for n in range(66)]
        for record in records[:2]:
            fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id))
        parses = TestEnvelopePrice.parses(monkeypatch)
        applies, encodes = [], []
        apply = Transformation.apply
        monkeypatch.setattr(
            Transformation, "apply",
            lambda step, record: applies.append(step) or apply(step, record),
        )
        # an envelope coded from its values is an encode like any other
        for name in ("encode", "encode_values"):
            monkeypatch.setattr(
                PBIOContext, name,
                lambda ctx, fmt, rec, _encode=getattr(PBIOContext, name):
                encodes.append((ctx, fmt)) or _encode(ctx, fmt, rec),
            )
        events = send(fleet.pubs[0], channel_id, records[2:])
        fleet.net.run()
        assert [len(log) for log in fleet.logs.values()] == (
            [2 + events] * len(fleet.logs))
        projections = [step for step in applies
                       if step.source == formats[0] and step.target == formats[1]]
        owned = sorted(fmt.version for ctx, fmt in encodes
                       if ctx is owner.pbio and fmt is not FABRIC_DELIVER)
        return (len(projections) / events, owned[::events] if owned else [],
                len(owned) / events, len(encodes) / events,
                len(parses) / events)

    @staticmethod
    def one(pub, channel_id, records):
        pub.publish(channel_id, RESPONSE_V2, records[0])
        return 1

    @staticmethod
    def batch(pub, channel_id, records):
        pub.publish_batch(channel_id, RESPONSE_V2, records)
        return 64

    @pytest.mark.parametrize("send", ["one", "batch"])
    def test_v0_is_cut_from_the_v1_wire(self, monkeypatch, send):
        fleet = Fleet()
        assert self.count(
            monkeypatch, fleet, getattr(self, send),
            (RESPONSE_V1, RESPONSE_V0),
        ) == (0, ["1.0"], 1, 4, 8)

    def test_a_projection_group_that_sorts_first_still_cuts(self, monkeypatch):
        # v0.0 under a version tag whose wire id sorts before v1.0's: its
        # group asks for the v1.0 wire first, which is then encoded once
        for n in itertools.count():
            early = IOFormat(RESPONSE_V0.name, list(RESPONSE_V0.fields),
                             version=f"0.{n}")
            if early.format_id < RESPONSE_V1.format_id:
                break
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(
            TransformSpec(RESPONSE_V1, early, V1_TO_V0_TRANSFORM.code))
        fleet = Fleet(readers=(("v1", RESPONSE_V1), ("v0", early)),
                      registry=registry)
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(fleet.channels[0]))
        assert self.count(
            monkeypatch, fleet, self.one, (RESPONSE_V1, early)
        ) == (0, ["1.0"], 1, 4, 6)
        groups = owner._channels[fleet.channels[0]].groups
        assert [g.fmt for _id, g in sorted(groups.items())] == [early, RESPONSE_V1]
        v1_log, v0_log = fleet.logs.values()
        assert v0_log[-1][3] == {
            key: v1_log[-1][3][key]
            for key in ("channel_id", "member_count", "member_list")}

    def test_a_source_that_does_not_encode_runs_the_step(self, monkeypatch):
        # Figure 5 that leaves a count the v1.0 format cannot hold in a
        # field V1→V0 drops: the v1.0 group dead-letters, the v0.0 group
        # cannot cut and delivers what the step and an encode write
        registry = FormatRegistry()
        registry.register_transform(TransformSpec(
            RESPONSE_V2, RESPONSE_V1, V2_TO_V1_TRANSFORM.code.replace(
                "old.sink_count = sink_count;", "old.sink_count = 1 << 40;")))
        registry.register_transform(V1_TO_V0_TRANSFORM)
        fleet = Fleet(readers=(("v1", RESPONSE_V1), ("v0", RESPONSE_V0)),
                      registry=registry)
        channel_id = fleet.channels[0]
        owner = fleet.fabric.directory.worker(
            fleet.fabric.directory.owner(channel_id))
        record = seeded_record(random.Random(1), channel_id)
        fleet.pubs[0].publish(channel_id, RESPONSE_V2, record)
        fleet.net.run()
        assert [len(log) for log in fleet.logs.values()] == [0, 1]
        assert owner.errors == 1
        v0 = Transformation(V1_TO_V0_TRANSFORM).apply(
            Transformation(V2_TO_V1_TRANSFORM).apply(record))
        assert fleet.logs["v0"][0][3] == v0

    def test_without_a_v1_group_the_step_runs_and_encodes(self, monkeypatch):
        fleet = Fleet(readers=(("v2", RESPONSE_V2), ("v0", RESPONSE_V0)))
        assert self.count(
            monkeypatch, fleet, self.one, (RESPONSE_V1, RESPONSE_V0)
        ) == (1, ["0.0"], 1, 4, 6)


def _ext_revision(k):
    """v2.0 plus one trailing integer ("attribute added"), with the
    writer's one-hop retro-transform back to v2.0."""
    fmt = IOFormat(
        "ChannelOpenResponse",
        list(RESPONSE_V2.fields) + [IOField(f"ext_{k}", "integer")],
        version=f"2.{k}",
    )
    return fmt, TransformSpec(fmt, RESPONSE_V2, """
        int i;
        old.channel_id = new.channel_id;
        old.member_count = new.member_count;
        for (i = 0; i < new.member_count; i++) {
            old.member_list[i].info = new.member_list[i].info;
            old.member_list[i].ID = new.member_list[i].ID;
            old.member_list[i].is_Source = new.member_list[i].is_Source;
            old.member_list[i].is_Sink = new.member_list[i].is_Sink;
        }
    """)


def _own_copy(spec):
    """*spec* as another endpoint holds it: equal formats, rebuilt from
    their descriptions, that share no object with anyone else's (built
    past the intern table ``format_from_dict`` keeps)."""
    def fetched(fmt):
        return serialization._build_format(format_to_dict(fmt))

    return TransformSpec(fetched(spec.source), fetched(spec.target), spec.code)


NARROW = IOFormat(
    "ChannelOpenResponse",
    [IOField("channel_id", "string"), IOField("member_count", "integer")],
    version="0.1",
)


class TestCompilePrice:
    """What planning may cost, counted by wrapping (never timed): one
    ECode compile per distinct spec *per process* and each fusion
    analysis once per (program, live-set), however many receivers and
    routes ask — ``build_chain`` draws every step from one memo."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Calls of ``transform.compile_procedure`` and of the four
        analyses fusion runs (outermost calls: ``fields_used`` asks
        ``declared_names`` itself), from empty memos."""
        transform_mod._transformations.clear()
        transform_mod._record_factories.clear()
        calls = {"compile": [], "has_return": [], "declared_names": [],
                 "fields_used": [], "prune_dead_stores": []}
        compile_procedure = transform_mod.compile_procedure

        def counted_compile(source, *args, **kwargs):
            calls["compile"].append(source)
            return compile_procedure(source, *args, **kwargs)

        monkeypatch.setattr(transform_mod, "compile_procedure", counted_compile)
        depth = [0]

        def counted(name, live_at=None):
            analysis = getattr(analyze, name)

            def wrapper(program, *args):
                if not depth[0]:
                    live = frozenset(args[live_at]) if live_at is not None else None
                    calls[name].append((id(program), live))
                depth[0] += 1
                try:
                    return analysis(program, *args)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(analyze, name, wrapper)

        for name in ("has_return", "declared_names", "fields_used"):
            counted(name)
        counted("prune_dead_stores", live_at=1)
        return calls

    @staticmethod
    def _analyses(census):
        return {name: seen for name, seen in census.items() if name != "compile"}

    @staticmethod
    def _reader(registry, fmt, **kwargs):
        got = []
        receiver = MorphReceiver(registry, use_fusion=True, **kwargs)
        receiver.register_handler(fmt, got.append)
        return receiver, got

    @staticmethod
    def _registry(*specs):
        registry = FormatRegistry()
        for spec in specs:
            registry.register_transform(_own_copy(spec))
        return registry

    def test_eight_receivers_compile_a_chain_once(self, census):
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        delivered = []
        for _ in range(8):
            receiver, got = self._reader(
                self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM),
                RESPONSE_V0,
            )
            receiver.process(wire)
            assert receiver.stats.compiled_chains == 1  # per receiver, as ever
            assert receiver.route_for(RESPONSE_V2).fused is not None
            delivered.extend(got)
        assert sorted(census["compile"]) == sorted(
            [V2_TO_V1_TRANSFORM.code, V1_TO_V0_TRANSFORM.code]
        )
        assert len(transform_mod._transformations) == 2
        for name, seen in self._analyses(census).items():
            assert seen and len(seen) == len(set(seen)), name
        assert len(delivered) == 8
        assert all(record == delivered[0] for record in delivered)

    def test_a_never_seen_revision_costs_one_compile(self, census):
        specs = (V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM)
        readers = [
            self._reader(self._registry(*specs), fmt)
            for fmt in (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0, NARROW)
        ]
        sender = PBIOContext()
        wire = sender.encode(RESPONSE_V2, response_v2(3))
        for receiver, _got in readers:
            receiver.process(wire)
        for k in (1, 2):
            fmt, spec = _ext_revision(k)
            record = response_v2(3)
            record[f"ext_{k}"] = k
            wire = sender.encode(fmt, record)
            before = len(census["compile"])
            for receiver, got in readers:
                receiver.registry.register_transform(_own_copy(spec))
                got.clear()
                receiver.process(wire)
                assert got[0]["member_count"] == 3 and f"ext_{k}" not in got[0]
                assert receiver.route_for(fmt).chain.steps[0].spec.code == spec.code
            assert census["compile"][before:] == [spec.code]

    def test_a_second_plan_of_a_known_chain_walks_nothing(self, census):
        receiver, got = self._reader(
            self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM), RESPONSE_V0
        )
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        receiver.process(wire)
        first = receiver.route_for(RESPONSE_V2)
        text = first.fused.source("<")
        for seen in census.values():
            seen.clear()
        assert receiver.invalidate_route(RESPONSE_V2.format_id)
        receiver.process(wire)
        second = receiver.route_for(RESPONSE_V2)
        assert second is not first and second.chain.steps == first.chain.steps
        assert census == {name: [] for name in census}
        assert got[0] == got[1] and receiver.stats.compiled_chains == 2
        # the generated text is emitted on request, not kept by the route
        assert second.fused.source("<") == text
        assert not hasattr(second.fused, "_sources")

    def test_each_engine_and_each_validation_has_its_own_entry(self, census):
        registry = self._registry(V2_TO_V1_TRANSFORM)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        steps, delivered = [], []
        # the engine is the one setting a step has
        for kwargs in ({}, {}, {"use_codegen": False}):
            receiver, got = self._reader(registry, RESPONSE_V1, **kwargs)
            receiver.process(wire)
            route = receiver.route_for(RESPONSE_V2)
            assert (route.fused is not None) == (not kwargs)
            steps.append(route.chain.steps[0])
            delivered.append(got[0])
        assert steps[0] is steps[1]
        assert len({id(step) for step in steps}) == 2
        assert len(transform_mod._transformations) == 2
        assert len(census["compile"]) == 1  # the interpreted one compiles nothing
        assert steps[2].use_codegen is False
        assert all(record == delivered[0] for record in delivered)

    def test_a_spec_that_does_not_compile_is_not_remembered(self, census):
        broken = TransformSpec(RESPONSE_V2, RESPONSE_V1, "not a transform ;;;")
        for _ in range(2):
            with pytest.raises(TransformError, match="failed to compile"):
                build_chain([broken])
        assert transform_mod._transformations == {}
        registry = self._registry(broken)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(2))
        for _ in range(2):
            receiver, got = self._reader(registry, RESPONSE_V1)
            receiver.process(wire)  # reconciled from the raw v2.0 instead
            assert receiver.stats.broken_transforms == 1
            assert receiver.invalidate_route(RESPONSE_V2.format_id)
            receiver.process(wire)
            assert receiver.stats.broken_transforms == 2
            assert got[0]["src_list"] == [] and got[0] == got[1]
        assert transform_mod._transformations == {}

    def test_the_memo_is_bounded_and_an_evicted_spec_compiles_again(
        self, census, monkeypatch
    ):
        monkeypatch.setattr(transform_mod, "TRANSFORMATION_CACHE_MAX", 4)
        specs = [_ext_revision(k)[1] for k in range(10)]
        for spec in specs:
            build_chain([spec])
            assert len(transform_mod._transformations) <= 4
        assert len(census["compile"]) == 10
        assert build_chain([specs[-1]]).steps == build_chain([specs[-1]]).steps
        assert len(census["compile"]) == 10
        record = response_v2(2)
        record["ext_0"] = 5
        assert build_chain([specs[0]]).apply(record)["member_count"] == 2
        assert len(census["compile"]) == 11
        assert len(transform_mod._transformations) == 4

    def test_threads_planning_one_route_share_one_entry(self, census):
        registry = self._registry(V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM)
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        readers = [self._reader(registry, RESPONSE_V0) for _ in range(8)]
        barrier = threading.Barrier(len(readers))
        failures = []

        def plan(receiver):
            try:
                barrier.wait(timeout=10)
                receiver.process(wire)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=plan, args=(receiver,))
            for receiver, _got in readers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert len(transform_mod._transformations) == 2
        assert len(census["compile"]) == 2
        chains = {
            tuple(map(id, receiver.route_for(RESPONSE_V2).chain.steps))
            for receiver, _got in readers
        }
        assert len(chains) == 1
        records = [got[0] for _receiver, got in readers]
        assert all(record == records[0] for record in records)
        for name, seen in self._analyses(census).items():
            assert len(seen) == len(set(seen)), name

    def test_a_refreshed_default_reaches_the_next_plan(self):
        """``FormatRegistry.replace`` ships new defaults under a cached
        id: after ``invalidate_route`` a field the transform does not
        assign is filled with the new one."""
        def reading(default):
            return IOFormat(
                "Reading",
                [IOField("x", "integer", 4),
                 IOField("unit", "integer", 4, default=default)],
                version="1",
            )

        wide = IOFormat(
            "Reading",
            [IOField("x", "integer", 4), IOField("junk", "float")],
            version="2",
        )
        registry = FormatRegistry()
        registry.add_transform(wide, reading(1), "old.x = new.x;")
        got = []
        receiver = MorphReceiver(registry)  # fused and staged: see conftest
        receiver.register_handler(reading(1), got.append)
        wire = PBIOContext(registry).encode(wide, {"x": 3, "junk": 0.5})
        receiver.process(wire)
        assert got == [{"x": 3, "unit": 1}]
        assert registry.replace(reading(7)) is True
        registry.add_transform(wide, reading(7), "old.x = new.x;")
        assert receiver.invalidate_route(wide.format_id)
        receiver.process(wire)
        assert got[1] == {"x": 3, "unit": 7}


class TestSecondSightPrice:
    """What a format seen once may cost, counted by wrapping (never
    timed): no generated coder, no fused ``compile()`` and no rebuild of
    meta-data already fetched — a routine is generated the second time
    it is needed, and fetched descriptions are interned by content."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Calls of ``codegen.make_decoder``, ``FusedRoute._compile`` and
        the two meta-data builders (outermost: a format builds its
        subformats itself), from an empty intern table."""
        from repro.morph.fusion import FusedRoute
        from repro.pbio import codegen

        monkeypatch.setattr(serialization, "_declarations", {})
        calls = {"make_decoder": [], "compile": [], "format": [],
                 "transform": []}
        depth = [0]

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(first, *args, **kwargs):
                if not depth[0]:
                    calls[key].append(first)
                depth[0] += key == "format"
                try:
                    return original(first, *args, **kwargs)
                finally:
                    depth[0] -= key == "format"

            monkeypatch.setattr(owner, name, wrapper)

        counted(codegen, "make_decoder", "make_decoder")
        counted(FusedRoute, "_compile", "compile")
        counted(serialization, "_build_format", "format")
        counted(serialization, "_build_transform", "transform")
        return calls

    @staticmethod
    def _fetched(registry, spec):
        """*spec* as a resolver ingests a lookup reply."""
        reply = serialization.transform_to_dict(spec)
        registry.register(format_from_dict(reply["source"]))
        registry.register_transform(serialization.transform_from_dict(reply))

    def _readers(self):
        """Four sinks in fresh contexts — the paper's V2 / V1 / V0
        readers and a narrow one, each fused — plus one registered for
        the revision itself (a plain decode, nothing to fuse), warmed
        on v2.0 traffic until their steady routines exist."""
        readers = []
        for fmt in (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0, NARROW, None):
            registry = FormatRegistry()
            for spec in (V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM):
                self._fetched(registry, spec)
            got = []
            receiver = MorphReceiver(registry, use_fusion=True)
            if fmt is not None:
                receiver.register_handler(fmt, got.append)
            readers.append((receiver, got))
        wire = PBIOContext().encode(RESPONSE_V2, response_v2(3))
        for receiver, _got in readers[:4]:
            for _ in range(2):
                receiver.process(wire)
        return readers

    def _revision(self, readers, k):
        """Revision *k*, fetched by every reader (the last registers it
        as its own format), and one wire of it."""
        fmt, spec = _ext_revision(k)
        for receiver, _got in readers:
            self._fetched(receiver.registry, spec)
        readers[4][0].register_handler(fmt, readers[4][1].append)
        record = response_v2(3)
        record[f"ext_{k}"] = k
        return fmt, PBIOContext().encode(fmt, record)

    @staticmethod
    def _cleared(census):
        for calls in census.values():
            calls.clear()

    def test_a_never_seen_revision_generates_nothing(self, census):
        readers = self._readers()
        self._cleared(census)
        fmt, wire = self._revision(readers, 7)
        for receiver, got in readers:
            receiver.process(wire)
            assert got[-1]["member_count"] == 3
        assert census["make_decoder"] == [] and census["compile"] == []
        # the revision is built once for the process; v2.0 never again
        assert [f["version"] for f in census["format"]] == [fmt.version]
        assert len(census["transform"]) == 1
        held = {id(r.registry.lookup_id(fmt.format_id)) for r, _got in readers}
        assert len(held) == 1

    def test_its_second_message_generates_one_routine_per_reader(
        self, census
    ):
        readers = self._readers()
        fmt, wire = self._revision(readers, 8)
        for receiver, _got in readers:
            receiver.process(wire)
        self._cleared(census)
        for receiver, got in readers:
            receiver.process(wire)
            assert got[-1] == got[-2]
        # one fused compile per fused route, one decoder for the context
        # that decodes the revision plainly
        fused = [r.route_for(fmt).fused for r, _got in readers[:4]]
        assert census["compile"] == fused and None not in fused
        assert census["make_decoder"] == [fmt]
        assert readers[4][0].route_for(fmt).fused is None

    def test_one_shot_formats_keep_the_codec_tables_bounded(self):
        ctx = PBIOContext()
        for k in range(5000):
            fmt = IOFormat("OneShot", [IOField("x", "integer")],
                           version=str(k))
            ctx.decode(ctx.encode(fmt, {"x": k}))
        assert len(ctx._encoders) <= CODEC_CACHE_MAX
        assert len(ctx._decoders) <= CODEC_CACHE_MAX
        assert ctx.generated_encoder_count == ctx.generated_decoder_count == 0

    def test_the_meta_data_memo_is_bounded(self, census, monkeypatch):
        monkeypatch.setattr(serialization, "DECLARATION_CACHE_MAX", 4)
        for k in range(10):
            format_from_dict(format_to_dict(_ext_revision(k)[0]))
            assert len(serialization._declarations) <= 4
        description = format_to_dict(_ext_revision(9)[0])
        assert format_from_dict(description) is format_from_dict(description)
        assert len(census["format"]) == 10
        format_from_dict(format_to_dict(_ext_revision(0)[0]))  # evicted
        assert len(census["format"]) == 11

    def test_a_default_or_an_importance_is_content(self, census):
        def reading(**extras):
            return format_to_dict(IOFormat("Reading", [
                IOField("x", "integer"), IOField("unit", "integer", **extras),
            ]))

        built = [format_from_dict(reading(**extras)) for extras in (
            {}, {"default": 7}, {"importance": 2.0},
        )]
        assert built[0] == built[1] == built[2]  # one wire id ...
        assert len({id(fmt) for fmt in built}) == 3  # ... three contents
        assert [f.field("unit")._default for f in built] == [None, 7, None]
        assert built[2].field("unit").importance == 2.0

    def test_a_malformed_description_raises_every_time(self, census):
        bad = {"name": "F", "fields": [
            {"name": "xs", "kind": "integer", "array": {"length_field": "n"}},
        ]}
        for _ in range(3):
            with pytest.raises(FormatError, match="missing field"):
                format_from_dict(bad)
        assert len(census["format"]) == 3
        assert serialization._declarations == {}

    def test_threads_deserialising_one_reply_share_one_entry(self, census):
        reply = format_to_dict(_ext_revision(11)[0])
        barrier = threading.Barrier(8)
        built, failures = [], []

        def fetch():
            try:
                barrier.wait(timeout=10)
                built.append(format_from_dict(reply))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and len(built) == 8
        assert len(serialization._declarations) == 1
        assert len({id(fmt) for fmt in built}) == 1


class TestTransformChain:
    def test_two_hop_chain(self):
        chain = build_chain([V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM])
        assert chain.source == RESPONSE_V2
        assert chain.target == RESPONSE_V0
        assert len(chain) == 2
        incoming = response_v2(3)
        out = chain.apply(incoming)
        assert out["member_count"] == 3
        assert set(out.keys()) == {"channel_id", "member_count", "member_list"}
        assert out["member_list"][0]["info"] == incoming["member_list"][0]["info"]

    def test_roundtrip_v1_v2_v1_preserves_information(self):
        v1_rec = response_v1_from_v2(response_v2(4))
        forward = Transformation(V1_TO_V2_TRANSFORM)
        backward = Transformation(V2_TO_V1_TRANSFORM)
        assert records_equal(backward.apply(forward.apply(v1_rec)), v1_rec)

    def test_empty_chain_rejected(self):
        with pytest.raises(TransformError):
            TransformChain([])

    def test_non_contiguous_chain_rejected(self):
        with pytest.raises(TransformError, match="contiguous"):
            TransformChain(
                [Transformation(V2_TO_V1_TRANSFORM),
                 Transformation(V2_TO_V1_TRANSFORM)]
            )
