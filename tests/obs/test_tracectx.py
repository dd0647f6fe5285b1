"""Unit tests for the trace-context primitive (repro.obs.tracectx)."""

import threading

import pytest

from repro import obs
from repro.errors import DecodeError, ObsError
from repro.obs import tracectx
from repro.obs.tracectx import (
    TRACE_BLOCK_SIZE,
    TraceContext,
    activate,
    current,
    decode_block,
    encode_block,
    isolate,
    make_context,
    mint,
    recording,
    seed_ids,
)


class TestCodec:
    def test_roundtrip(self):
        ctx = TraceContext(trace_id=0xABCDEF0123456789FEDCBA, span_id=0x1234,
                           sampled=True)
        block = encode_block(ctx)
        assert len(block) == TRACE_BLOCK_SIZE == 26
        back = decode_block(block)
        assert back == ctx
        assert back.origin is False

    def test_unsampled_roundtrip(self):
        ctx = TraceContext(1, 2, sampled=False)
        assert decode_block(encode_block(ctx)).sampled is False

    def test_decode_at_offset(self):
        ctx = TraceContext(7, 9)
        data = b"\xff" * 5 + encode_block(ctx)
        assert decode_block(data, 5) == ctx

    def test_truncated_block_raises(self):
        block = encode_block(TraceContext(1, 2))
        with pytest.raises(DecodeError, match="truncated trace-context"):
            decode_block(block[:-1])

    def test_unknown_version_raises(self):
        block = bytearray(encode_block(TraceContext(1, 2)))
        block[0] = 99
        with pytest.raises(DecodeError, match="version"):
            decode_block(bytes(block))

    def test_traceparent_format(self):
        ctx = TraceContext(trace_id=0x0AF7651916CD43DD8448EB211C80319C,
                           span_id=0x00F067AA0BA902B7)
        assert ctx.traceparent() == (
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
        )
        ctx.sampled = False
        assert ctx.traceparent().endswith("-00")


class TestIds:
    def test_seeded_ids_are_deterministic(self):
        seed_ids(123)
        first = (tracectx.new_trace_id(), tracectx.new_span_id())
        seed_ids(123)
        assert (tracectx.new_trace_id(), tracectx.new_span_id()) == first

    def test_make_context_is_origin_and_sampled(self):
        ctx = make_context()
        assert ctx.origin is True
        assert ctx.sampled is True
        assert ctx.trace_id != 0
        assert ctx.span_id != 0

    def test_child_keeps_trace_id(self):
        ctx = make_context()
        child = ctx.child(span_id=42)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == 42
        assert child.origin is True


class TestActivation:
    def test_current_defaults_to_none(self):
        assert current() is None

    def test_activate_installs_and_restores(self):
        ctx = make_context()
        with activate(ctx):
            assert current() is ctx
        assert current() is None

    def test_activate_nests(self):
        outer, inner = make_context(), make_context()
        with activate(outer):
            with activate(inner):
                assert current() is inner
            assert current() is outer

    def test_activate_none_is_passthrough(self):
        ctx = make_context()
        with activate(ctx):
            with activate(None):
                assert current() is ctx
            assert current() is ctx

    def test_isolate_installs_none_too(self):
        outer, inner = make_context(), make_context()
        with activate(outer):
            with isolate(None):
                assert current() is None
            assert current() is outer
            with isolate(inner):
                assert current() is inner
            assert current() is outer

    def test_context_is_thread_local(self):
        ctx = make_context()
        seen = []
        with activate(ctx):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestHeadSampling:
    def test_exactly_one_of_any_n_consecutive_mints_is_sampled(self):
        obs.enable(sample_every=5)
        minted = [mint() for _ in range(23)]
        for start in range(len(minted) - 4):
            window = minted[start:start + 5]
            assert sum(ctx is not None for ctx in window) == 1
        for ctx in minted:
            if ctx is not None:
                assert ctx.sampled and ctx.origin

    def test_the_first_mint_after_enable_is_sampled(self):
        obs.enable(sample_every=7)
        assert mint() is not None
        assert [mint() for _ in range(3)] == [None] * 3
        obs.enable(sample_every=7)  # restarts the count
        assert mint() is not None

    def test_sample_every_one_samples_all(self):
        obs.enable(sample_every=1)
        assert all(mint() is not None for _ in range(10))

    def test_the_default_rate_is_the_documented_one(self):
        assert obs.enable().sample_every == obs.DEFAULT_SAMPLE_EVERY == 64

    @pytest.mark.parametrize("bad", [0, -3])
    def test_a_rate_below_one_is_refused(self, bad):
        with pytest.raises(ObsError, match="sample_every"):
            obs.enable(sample_every=bad)
        assert not obs.is_enabled()

    def test_make_context_does_not_sample(self):
        obs.enable(sample_every=9)
        assert all(make_context().sampled for _ in range(20))
        assert mint() is not None  # nor does it consume the count

    def test_recording_is_the_sampled_bit_unless_every_message_is(self):
        sampled, unsampled = TraceContext(1, 2), TraceContext(1, 2, False)
        obs.enable(sample_every=4)
        assert recording(sampled)
        assert not recording(unsampled)
        assert not recording(None)
        obs.enable(sample_every=1)
        assert recording(sampled) and recording(unsampled) and recording(None)
