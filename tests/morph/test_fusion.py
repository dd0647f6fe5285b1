"""Whole-route fusion: generated-source audits, fused/staged parity and
cache bounds.

The source audits pin the properties fusion exists for: one function per
route (no per-step dispatch), the DCG scalar-run struct fusion preserved
inside it, and dead wire fields skipped arithmetically instead of
decoded.
"""

from __future__ import annotations

from repro.bench.workloads import response_v2
from repro.errors import DecodeError
from repro.morph import transform as transform_mod
from repro.morph.receiver import MorphReceiver
from repro.pbio import context as context_mod
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.pbio.registry import FormatRegistry


def _fused_receiver(registry, handler_fmt, sink):
    receiver = MorphReceiver(registry, use_fusion=True)
    receiver.register_handler(handler_fmt, sink.append)
    return receiver


def _staged_receiver(registry, handler_fmt, sink):
    receiver = MorphReceiver(registry, use_fusion=False)
    receiver.register_handler(handler_fmt, sink.append)
    return receiver


# ---------------------------------------------------------------------------
# Generated-source audits
# ---------------------------------------------------------------------------


class TestFusedSource:
    def test_chain_route_is_one_function_without_step_dispatch(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(3)))
        route = receiver.route_for(v2)
        assert route.fused is not None
        source = route.fused.source("<")
        # a single generated function; the staged path's per-step
        # TransformChain.apply dispatch is gone
        assert source.count("def ") == 1
        assert ".apply(" not in source
        assert "TransformChain" not in source

    def test_scalar_run_struct_fusion_survives_inlining(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(2)))
        source = receiver.route_for(v2).fused.source("<")
        # the decode fragment still unpacks scalar runs through the
        # cached struct table, exactly like the standalone DCG decoder
        assert "_S[" in source and ".unpack_from(" in source

    def test_inlined_transforms_are_compiled_against_their_formats(
        self, echo_registry, v0, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v0, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(3)))
        source = receiver.route_for(v2).fused.source("<")
        # each hop loads its input and output list once, ahead of its
        # loop, stores typed scalars straight into the dict, and freezes
        # its output (the next hop then reads a plain list)
        # (_r1 is hop 1's output and hop 2's input)
        for record, loads in (("_r0", 1), ("_r1", 2), ("_r2", 1)):
            assert source.count(f"= {record}['member_list']") == loads
        assert "_set(_r2, 'channel_id', _r1['channel_id'])" in source
        assert "['info'] = " not in source
        assert "_frz0(_r1)" in source and "_frz1(_r2)" in source

    def test_chain2_prunes_stores_into_dead_v0_fields(
        self, echo_registry, v0, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v0, got)
        sender = PBIOContext(echo_registry)
        incoming = response_v2(3)
        receiver.process(sender.encode(v2, incoming))
        route = receiver.route_for(v2)
        assert route.chain is not None and len(route.chain) == 2
        source = route.fused.source("<")
        # v0 has no src/sink lists: the v2->v1 step's stores into them
        # (and the counters feeding only them) are dead and pruned
        assert "src_list" not in source
        assert "sink_list" not in source
        assert set(got[0].keys()) == {"channel_id", "member_count", "member_list"}

    def test_dead_top_level_field_is_skipped_not_decoded(self):
        writer = IOFormat(
            "Evo",
            [
                IOField("x", "integer", 4),
                IOField("junk", "integer", 8),
                IOField("tag", "string"),
            ],
            version="2",
        )
        reader = IOFormat(
            "Evo",
            [IOField("x", "integer", 4), IOField("tag", "string")],
            version="1",
        )
        registry = FormatRegistry()
        got = []
        receiver = _fused_receiver(registry, reader, got)
        sender = PBIOContext(registry)
        receiver.process(sender.encode(writer, {"x": 7, "junk": 99, "tag": "t"}))
        route = receiver.route_for(writer)
        assert route.fused is not None
        assert route.fused.wire_live == {"x", "tag"}
        source = route.fused.source("<")
        # `junk` is never materialized: no dict entry, just an offset bump
        assert "'junk'" not in source
        assert "off += " in source
        assert got == [{"x": 7, "tag": "t"}]

    def test_fusion_knob_requires_codegen_and_no_validation(self, echo_registry, v1, v2):
        sender = PBIOContext(echo_registry)
        for kwargs in ({"use_fusion": False}, {"use_codegen": False}):
            got = []
            receiver = MorphReceiver(echo_registry, **kwargs)
            receiver.register_handler(v1, got.append)
            receiver.process(sender.encode(v2, response_v2(2)))
            assert receiver.route_for(v2).fused is None
            assert len(got) == 1


# ---------------------------------------------------------------------------
# Fused vs staged parity
# ---------------------------------------------------------------------------


class TestFusedStagedParity:
    def test_records_and_counters_match_over_a_stream(
        self, echo_registry, v0, v2
    ):
        fused_got, staged_got = [], []
        fused_rx = _fused_receiver(echo_registry, v0, fused_got)
        staged_rx = _staged_receiver(echo_registry, v0, staged_got)
        sender = PBIOContext(echo_registry)
        for i in range(4):
            wire = sender.encode(v2, response_v2(i))
            fused_rx.process(wire)
            staged_rx.process(wire)
        assert len(fused_got) == len(staged_got) == 4
        for fused_rec, staged_rec in zip(fused_got, staged_got):
            assert records_equal(fused_rec, staged_rec)
        assert fused_rx.stats.snapshot() == staged_rx.stats.snapshot()

    def test_big_endian_wire_parity(self, echo_registry, v1, v2):
        fused_got, staged_got = [], []
        fused_rx = _fused_receiver(echo_registry, v1, fused_got)
        staged_rx = _staged_receiver(echo_registry, v1, staged_got)
        sender = PBIOContext(echo_registry, byte_order="big")
        wire = sender.encode(v2, response_v2(3))
        fused_rx.process(wire)
        staged_rx.process(wire)
        assert records_equal(fused_got[0], staged_got[0])

    def test_truncated_payload_rejected_identically(self, echo_registry, v1, v2):
        import struct

        from repro.pbio.buffer import HEADER_SIZE

        sender = PBIOContext(echo_registry)
        wire = sender.encode(v2, response_v2(3))
        # chop the payload mid-field and re-declare the shorter length so
        # the header check passes and the fused decode bounds must catch it
        truncated = bytearray(wire[: HEADER_SIZE + 6])
        truncated[16:20] = struct.pack("<I", 6)
        for receiver in (
            _fused_receiver(echo_registry, v1, []),
            _staged_receiver(echo_registry, v1, []),
        ):
            assert receiver.process(bytes(truncated)) is None
            assert receiver.dead_letters[-1].stage == "decode"
            assert isinstance(receiver.last_error, DecodeError)

    def test_reading_past_an_intermediate_array_fails_in_both(self):
        # every hop's output is frozen on both paths: hop 2 indexing one
        # past what hop 1 wrote must not quietly grow a default element
        # on one of them
        from repro.errors import TransformError
        from repro.pbio.field import ArraySpec
        from repro.pbio.registry import TransformSpec

        xs = IOField("xs", "integer", array=ArraySpec(length_field="n"))
        a = IOFormat("R", [IOField("n", "integer"), xs], version="2")
        b = IOFormat(
            "R", [IOField("n", "integer"), xs, IOField("pad", "integer")],
            version="1",
        )
        c = IOFormat("R", [IOField("last", "integer")], version="0")
        registry = FormatRegistry()
        registry.register_transform(TransformSpec(
            a, b,
            "int i; old.n = new.n;"
            " for (i = 0; i < new.n; i++) old.xs[i] = new.xs[i];",
        ))
        registry.register_transform(
            TransformSpec(b, c, "old.last = new.xs[new.n];")
        )
        wire = PBIOContext(registry).encode(a, {"n": 2, "xs": [4, 5]})
        for receiver in (
            _fused_receiver(registry, c, []),
            _staged_receiver(registry, c, []),
        ):
            assert receiver.process(wire) is None
            assert receiver.dead_letters[-1].stage == "transform"
            assert isinstance(receiver.last_error, TransformError)

    def test_fused_route_survives_record_factory_eviction(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(2)))
        # simulate satellite cache churn evicting every memoized factory
        transform_mod._record_factories.clear()
        receiver.process(sender.encode(v2, response_v2(3)))
        assert len(got) == 2 and got[1]["member_count"] == 3


# ---------------------------------------------------------------------------
# Cache bounds
# ---------------------------------------------------------------------------


class TestCacheBounds:
    def test_route_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(MorphReceiver, "MAX_ROUTES", 4)
        registry = FormatRegistry()
        receiver = MorphReceiver(registry)
        receiver.register_default_handler(lambda fmt, rec: None)
        sender = PBIOContext(registry)
        for i in range(10):
            fmt = IOFormat(f"Churn{i}", [IOField("x", "integer", 4)])
            receiver.process(sender.encode(fmt, {"x": i}))
        assert len(receiver._routes) <= 4
        # the newest formats won the FIFO eviction
        assert receiver.route_for(fmt) is not None

    def test_codec_caches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(context_mod, "CODEC_CACHE_MAX", 3)
        ctx = PBIOContext()
        for i in range(8):
            fmt = IOFormat(f"Codec{i}", [IOField("x", "integer", 4)])
            ctx.decode(ctx.encode(fmt, {"x": 1}))
        assert ctx.generated_encoder_count <= 3
        assert ctx.generated_decoder_count <= 3

    def test_record_factory_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transform_mod, "RECORD_FACTORY_CACHE_MAX", 4)
        for i in range(10):
            fmt = IOFormat(f"Factory{i}", [IOField("x", "integer", 4)])
            transform_mod.growable_record(fmt)
        assert len(transform_mod._record_factories) <= 4
