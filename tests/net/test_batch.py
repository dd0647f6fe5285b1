"""BATCH1 frame layer: roundtrip, zero-copy segments, hostile shapes.

The frame decoder's contract mirrors every other wire surface: any
malformed buffer — truncation anywhere, lying counts, unknown flags, a
trace flag without its block, trailing bytes — is a clean
:class:`~repro.errors.DecodeError`, never a raw ``struct.error`` or an
allocation blow-up.
"""

import struct

import pytest

from repro import obs
from repro.errors import DecodeError
from repro.net.batch import (
    BATCH_FLAG_TRACE,
    BATCH_HEADER_SIZE,
    BATCH_MAGIC,
    is_batch,
    pack_batch,
    peek_batch_trace,
    unpack_batch,
)
from repro.obs.tracectx import TRACE_BLOCK_SIZE, make_context

MESSAGES = [b"alpha-message", b"b", b"gamma" * 20]


def make_frame(messages=None, ctx=None):
    return pack_batch(MESSAGES if messages is None else messages, ctx)


class TestRoundtrip:
    def test_segments_recover_every_message_in_order(self):
        frame = make_frame()
        parsed = unpack_batch(frame)
        assert parsed.count == len(MESSAGES)
        assert parsed.trace is None
        recovered = [
            frame[off:off + length] for off, length in parsed.segments
        ]
        assert recovered == MESSAGES

    def test_iter_batch_yields_zero_copy_views(self):
        frame = bytearray(make_frame())
        views = unpack_batch(frame).views(frame)
        assert [bytes(v) for v in views] == MESSAGES
        for view in views:
            assert isinstance(view, memoryview)
            assert view.obj is frame  # a slice of the frame, not a copy

    def test_single_message_frame(self):
        parsed = unpack_batch(make_frame([b"only"]))
        assert parsed.count == 1

    def test_is_batch_routing_check(self):
        assert is_batch(make_frame())
        assert not is_batch(b"PBIO-ish bytes")
        assert not is_batch(b"")

    def test_trace_block_roundtrips(self):
        ctx = make_context()
        frame = make_frame(ctx=ctx)
        parsed = unpack_batch(frame)
        assert parsed.trace == ctx
        assert peek_batch_trace(frame) == ctx
        recovered = [
            frame[off:off + length] for off, length in parsed.segments
        ]
        assert recovered == MESSAGES

    def test_unpack_accepts_memoryview_and_offset(self):
        frame = make_frame()
        padded = b"\x00" * 7 + frame
        parsed = unpack_batch(memoryview(padded), offset=7)
        assert [
            bytes(padded[off:off + length]) for off, length in parsed.segments
        ] == MESSAGES

    def test_empty_batch_cannot_be_packed(self):
        with pytest.raises(DecodeError):
            pack_batch([])


class TestHostileFrames:
    """Every mandated hostile shape fails with DecodeError — and only
    DecodeError."""

    def _expect_decode_error(self, frame):
        with pytest.raises(DecodeError):
            unpack_batch(frame)

    def test_truncated_header(self):
        for cut in range(BATCH_HEADER_SIZE):
            self._expect_decode_error(make_frame()[:cut])

    def test_truncated_mid_message(self):
        frame = make_frame()
        # every possible truncation point past the header: inside length
        # prefixes and inside message bodies alike
        for cut in range(BATCH_HEADER_SIZE, len(frame)):
            self._expect_decode_error(frame[:cut])

    def test_count_exceeds_payload(self):
        buf = bytearray(make_frame())
        for lied in (len(buf), 2**16, 2**31 - 1, 2**32 - 1):
            struct.pack_into(">I", buf, 8, lied)
            self._expect_decode_error(bytes(buf))

    def test_zero_count(self):
        buf = bytearray(make_frame())
        struct.pack_into(">I", buf, 8, 0)
        self._expect_decode_error(bytes(buf))

    def test_trace_flag_without_trace_block(self):
        # a frame claiming a trace block it does not carry
        header = struct.pack(
            ">6sBBI", BATCH_MAGIC, 1, BATCH_FLAG_TRACE, 1
        )
        self._expect_decode_error(header)
        # ... and one whose block is cut short
        real = make_frame(ctx=make_context())
        self._expect_decode_error(
            real[:BATCH_HEADER_SIZE + TRACE_BLOCK_SIZE - 1]
        )

    def test_bad_magic(self):
        buf = bytearray(make_frame())
        buf[0] ^= 0xFF
        self._expect_decode_error(bytes(buf))

    def test_unsupported_version(self):
        buf = bytearray(make_frame())
        buf[6] = 9
        self._expect_decode_error(bytes(buf))

    def test_unknown_flag_bits(self):
        buf = bytearray(make_frame())
        buf[7] |= 0x80
        self._expect_decode_error(bytes(buf))

    def test_trailing_bytes(self):
        self._expect_decode_error(make_frame() + b"x")

    def test_message_length_overclaim(self):
        frame = make_frame([b"abcd"])
        buf = bytearray(frame)
        struct.pack_into(">I", buf, BATCH_HEADER_SIZE, 2**31)
        self._expect_decode_error(bytes(buf))


class TestPeekNeverRaises:
    def test_garbage_and_truncations_return_none(self):
        assert peek_batch_trace(b"") is None
        assert peek_batch_trace(b"garbage") is None
        assert peek_batch_trace(make_frame()) is None  # no trace flag
        traced = make_frame(ctx=make_context())
        for cut in range(len(traced)):
            peek_batch_trace(traced[:cut])  # must not raise


class TestObsMetrics:
    def test_pack_and_unpack_count_frames_and_messages(self):
        registry = obs.Registry()
        obs.enable(registry=registry)
        try:
            unpack_batch(make_frame())
            assert registry.counter("net.batch.packed_frames").value == 1
            assert registry.counter("net.batch.packed_messages").value == len(
                MESSAGES
            )
            assert registry.counter("net.batch.unpacked_frames").value == 1
            assert registry.counter(
                "net.batch.unpacked_messages"
            ).value == len(MESSAGES)
        finally:
            obs.disable(reset=True)
