"""One generated decoder for every buffer type.

A generated decoder — ``make_decoder``'s, and a compiled fused route's
decode fragment — takes a message as ``bytes``, as a ``bytearray`` or as
a ``memoryview`` slice of a larger receive buffer.  Whatever the buffer,
both build equal records, every one of class ``Record``, and reject the
same wires with the same exception class.
"""

import random
import struct

import pytest

from repro.check import gen
from repro.check.mutate import mutate
from repro.errors import DecodeError
from repro.morph.fusion import FusedRoute
from repro.pbio.buffer import FLAG_BIG_ENDIAN, HEADER_SIZE, unpack_header
from repro.pbio.codegen import make_decoder
from repro.pbio.encode import encode_record
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal

CASES = 30
BUFFERS = ["bytes", "bytearray", "memoryview"]
ORDERS = {"little": "<", "big": ">"}


def as_buffer(wire, kind):
    if kind == "bytes":
        return bytes(wire)
    if kind == "bytearray":
        return bytearray(wire)
    # a view into the middle of a larger buffer: bytes on both sides that
    # the message does not own
    larger = b"\xa5" * 7 + bytes(wire) + b"\x5a" * 9
    return memoryview(larger)[7:7 + len(wire)]


def fused_decoder(fmt):
    """``make_decoder``'s contract around a fused route that only
    decodes: header, format id, the routine for the header's order."""
    route = FusedRoute(fmt, None, fmt.name, [], None)
    fns = {}
    for order in "<>":
        assert route.fn_for(order) is None  # first message: staged
        fns[order] = route.fn_for(order)

    def decode(data):
        header = unpack_header(data)
        if header.format_id != fmt.format_id:
            raise DecodeError("format id does not match")
        fn = fns[">" if header.flags & FLAG_BIG_ENDIAN else "<"]
        body = header.body_offset
        return fn(data, body, body + header.payload_length)[0]

    return decode


def outcome(decode, data):
    try:
        return "ok", decode(data)
    except Exception as exc:  # noqa: BLE001 - compared by class
        return "raised", type(exc)


def assert_records(value):
    """Every record in *value* is a ``Record``, every array a ``list``."""
    if isinstance(value, dict):
        assert type(value) is Record
        for item in value.values():
            assert_records(item)
    elif isinstance(value, list):
        assert type(value) is list
        for item in value:
            assert_records(item)


def cases(byte_order):
    for seed in range(CASES):
        rng = random.Random(seed)
        fmt = gen.random_format(rng)
        rec = gen.random_record(rng, fmt)
        yield rng, fmt, rec, encode_record(fmt, rec, byte_order=byte_order)


@pytest.mark.parametrize("kind", BUFFERS)
@pytest.mark.parametrize("byte_order", sorted(ORDERS))
class TestEveryBuffer:
    def test_both_decoders_build_equal_records(self, byte_order, kind):
        for _rng, fmt, rec, wire in cases(byte_order):
            data = as_buffer(wire, kind)
            staged = make_decoder(fmt)(data)
            fused = fused_decoder(fmt)(data)
            assert staged == fused == rec, fmt.name
            assert_records(staged)
            assert_records(fused)

    def test_both_decoders_reject_the_same_wires(self, byte_order, kind):
        rejected = 0
        for rng, fmt, _rec, wire in cases(byte_order):
            staged, fused = make_decoder(fmt), fused_decoder(fmt)
            for _ in range(4):
                name, mutated = mutate(wire, rng)
                data = as_buffer(mutated, kind)
                got, other = outcome(staged, data), outcome(fused, data)
                assert got[0] == other[0], (fmt.name, name, got, other)
                if got[0] == "ok":  # a benign mutation; a NaN may appear
                    assert records_equal(got[1], other[1]), (fmt.name, name)
                else:
                    rejected += 1
                    assert got[1] is other[1] is DecodeError, (fmt.name, name)
        assert rejected > CASES

    def test_a_string_that_is_not_utf8(self, byte_order, kind):
        wire = self._text_wire(byte_order)
        wire[HEADER_SIZE + 4:HEADER_SIZE + 7] = b"\xff\xfe\xfd"
        self._both_reject(wire, kind, "UTF-8")

    def test_a_string_that_runs_past_end(self, byte_order, kind):
        """One byte past the payload's end: the larger buffer behind a
        view has that byte, and neither decoder may read it."""
        wire = self._text_wire(byte_order)
        struct.pack_into(ORDERS[byte_order] + "I", wire, HEADER_SIZE, 3 + 4 + 1)
        self._both_reject(wire, kind, "truncated string")

    TEXT = IOFormat("Text", [IOField("s", "string"), IOField("x", "integer", 4)])

    def _text_wire(self, byte_order):
        return bytearray(
            encode_record(self.TEXT, {"s": "abc", "x": 1}, byte_order=byte_order)
        )

    def _both_reject(self, wire, kind, message):
        for decode in (make_decoder(self.TEXT), fused_decoder(self.TEXT)):
            with pytest.raises(DecodeError, match=message):
                decode(as_buffer(wire, kind))
