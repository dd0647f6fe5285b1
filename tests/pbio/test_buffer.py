"""Unit tests for the wire buffer layer (header + reader/writer)."""

import struct

import pytest

from repro.errors import DecodeError, EncodeError
from repro.pbio.buffer import (
    HEADER_SIZE,
    MAGIC,
    WireReader,
    WireWriter,
    attach_trace,
    canonical_format_id,
    pack_header,
    unpack_header,
)
from repro.obs.tracectx import TraceContext


class TestHeader:
    def test_roundtrip(self):
        # flags=5 keeps FLAG_TRACE (0x02) clear: that bit now announces a
        # trace-context block after the header
        data = pack_header(0xDEADBEEF, 123, flags=5)
        header = unpack_header(data + b"\x00" * 123)
        assert header.format_id == 0xDEADBEEF
        assert header.payload_length == 123
        assert header.flags == 5

    def test_header_size_under_30_bytes(self):
        # the paper: "PBIO encoding adds less than 30 bytes"
        assert HEADER_SIZE < 30

    def test_bad_magic(self):
        data = bytearray(pack_header(1, 0))
        data[0] ^= 0xFF
        with pytest.raises(DecodeError, match="bad magic"):
            unpack_header(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(DecodeError, match="too short"):
            unpack_header(b"\x01\x02")

    def test_truncated_payload(self):
        data = pack_header(1, 100) + b"\x00" * 10
        with pytest.raises(DecodeError, match="truncated payload"):
            unpack_header(data)

    def test_unsupported_version(self):
        raw = bytearray(pack_header(1, 0))
        raw[4] = 99  # version byte
        with pytest.raises(DecodeError, match="wire version"):
            unpack_header(bytes(raw))

    def test_offset_reads(self):
        prefix = b"junk"
        data = prefix + pack_header(42, 0)
        assert unpack_header(data, offset=len(prefix)).format_id == 42

    def test_magic_spells_pbio(self):
        assert struct.pack(">I", MAGIC) == b"PBIO"

    def test_canonical_format_id(self):
        wire = pack_header(42, 3) + b"abc"
        assert canonical_format_id(wire) == 42
        assert canonical_format_id(memoryview(wire)) == 42
        ctx = TraceContext(trace_id=1, span_id=2)
        assert canonical_format_id(attach_trace(wire, ctx)) == 42
        for other in (
            wire[:HEADER_SIZE - 1],  # too short for a header: no raise
            wire + b"\x00",  # a byte past the declared end
            wire[:-1],  # truncated
            pack_header(42, 3, flags=1) + b"abc",  # big-endian
            wire[:6] + b"\x80" + wire[7:],  # reserved bits
            b"\x00" + wire[1:],  # bad magic
        ):
            assert canonical_format_id(other) is None


class TestWireWriter:
    def test_scalars(self):
        writer = WireWriter()
        writer.write_scalar("i", -5)
        writer.write_scalar("B", 200)
        assert writer.getvalue() == struct.pack("<iB", -5, 200)
        assert len(writer) == 5

    def test_strings_are_length_prefixed_utf8(self):
        writer = WireWriter()
        writer.write_string("héllo")
        raw = writer.getvalue()
        (length,) = struct.unpack_from("<I", raw)
        assert length == len("héllo".encode("utf-8"))
        assert raw[4:] == "héllo".encode("utf-8")

    def test_out_of_range_raises_encode_error(self):
        writer = WireWriter()
        with pytest.raises(EncodeError):
            writer.write_scalar("b", 1000)

    def test_write_struct(self):
        writer = WireWriter()
        writer.write_struct(struct.Struct("<hh"), 1, 2)
        assert writer.getvalue() == struct.pack("<hh", 1, 2)

    def test_growth_past_initial_capacity(self):
        # the pack_into fast path must stay correct across doublings
        writer = WireWriter()
        blob = bytes(range(256)) * 3
        for i in range(100):
            writer.write_scalar("I", i)
        writer.write_bytes(blob)
        writer.write_string("tail")
        assert len(writer) > WireWriter._INITIAL_CAPACITY
        expected = b"".join(struct.pack("<I", i) for i in range(100))
        expected += blob + struct.pack("<I", 4) + b"tail"
        assert writer.getvalue() == expected

    def test_getvalue_excludes_unused_capacity(self):
        writer = WireWriter()
        writer.write_scalar("B", 7)
        assert len(writer) == 1
        assert writer.getvalue() == b"\x07"
        # failed packs must not advance the cursor
        with pytest.raises(EncodeError):
            writer.write_scalar("B", 4096)
        assert writer.getvalue() == b"\x07"


class TestWireReader:
    def test_sequential_reads(self):
        data = struct.pack("<iB", 7, 9) + struct.pack("<I", 2) + b"hi"
        reader = WireReader(data)
        assert reader.read_scalar("i", 4) == 7
        assert reader.read_scalar("B", 1) == 9
        assert reader.read_string() == "hi"
        assert reader.remaining == 0

    def test_truncation_detected(self):
        reader = WireReader(b"\x01\x02")
        with pytest.raises(DecodeError, match="truncated"):
            reader.read_scalar("i", 4)

    def test_string_truncation(self):
        reader = WireReader(struct.pack("<I", 100) + b"short")
        with pytest.raises(DecodeError, match="truncated"):
            reader.read_string()

    def test_invalid_utf8(self):
        reader = WireReader(struct.pack("<I", 2) + b"\xff\xfe")
        with pytest.raises(DecodeError, match="UTF-8"):
            reader.read_string()

    def test_window_bounds(self):
        data = b"abcdef"
        reader = WireReader(data, offset=1, end=3)
        assert reader.read_bytes(2) == b"bc"
        with pytest.raises(DecodeError):
            reader.read_bytes(1)

    def test_read_struct(self):
        reader = WireReader(struct.pack("<hh", 3, 4))
        assert reader.read_struct(struct.Struct("<hh")) == (3, 4)
