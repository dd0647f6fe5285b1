"""One generated decoder for every buffer type.

A generated decoder — ``make_decoder``'s, and a compiled fused route's
decode fragment — takes a message as ``bytes``, as a ``bytearray`` or as
a ``memoryview`` slice of a larger receive buffer.  Whatever the buffer,
both build equal records, every one of class ``Record``, and reject the
same wires with the same exception class.  Handed the header its caller
already parsed, a decoder — generated or first-use — agrees with itself
parsing it.
"""

import random
import struct

import pytest

from repro.check import gen
from repro.check.mutate import mutate
from repro.errors import DecodeError
from repro.fabric.protocol import FABRIC_PUBLISH
from repro.morph.fusion import FusedRoute
from repro.obs.tracectx import TraceContext
from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    HEADER_SIZE,
    attach_trace,
    unpack_header,
)
from repro.pbio.codegen import make_decoder
from repro.pbio.decode import decode_record
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


def envelope_plus_payload(rng, fmt, byte_order):
    """A fabric publish datagram: envelope, then a payload of *fmt*."""
    envelope = FABRIC_PUBLISH.make_record(
        channel_id=f"ch/{rng.randrange(100)}", publisher="pub",
        seq=rng.randrange(1, 2**31), epoch=rng.randrange(5),
    )
    return (
        encode_record(FABRIC_PUBLISH, envelope, byte_order=byte_order)
        + encode_record(fmt, gen.random_record(rng, fmt), byte_order=byte_order)
    )


def messages(datagram):
    """``(message, header)`` as a receiver slices them out of *datagram*:
    the envelope and then the payload, each header parsed once."""
    header = unpack_header(datagram)
    body_end = header.body_offset + header.payload_length
    payload = datagram[body_end:]
    return [(datagram[:body_end], header), (payload, unpack_header(payload))]


DECODERS = {
    "generated": lambda fmt: make_decoder(fmt),
    "first-use": lambda fmt: lambda data, header=None: decode_record(
        fmt, data, header),
}


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@pytest.mark.parametrize("kind", BUFFERS)
class TestTheCallersHeader:
    """A decoder handed the header its caller parsed accepts and refuses
    exactly what it does when it parses the header itself; a header of
    another message is refused."""

    def test_with_and_without_agree_on_mutants(self, decoder, kind):
        decoded = refused = 0
        for seed in range(CASES):
            rng = random.Random(seed)
            fmt = gen.random_format(rng)
            formats = (FABRIC_PUBLISH, fmt)
            wire = envelope_plus_payload(rng, fmt, rng.choice(sorted(ORDERS)))
            for mutated in [wire] + [mutate(wire, rng)[1] for _ in range(4)]:
                data = as_buffer(mutated, kind)
                try:
                    parsed = messages(data)
                except DecodeError:
                    continue  # the caller refuses it before any decode
                for (message, header), message_fmt in zip(parsed, formats):
                    decode = DECODERS[decoder](message_fmt)
                    given = outcome(lambda m: decode(m, header), message)
                    parsing = outcome(decode, message)
                    assert given[0] == parsing[0], (seed, given, parsing)
                    if given[0] == "ok":
                        decoded += 1
                        assert records_equal(given[1], parsing[1]), seed
                    else:
                        refused += 1
                        assert given[1] is parsing[1], (seed, given, parsing)
        assert decoded > CASES and refused > 0

    def test_a_header_of_another_message_is_refused(self, decoder, kind):
        text = TestEveryBuffer.TEXT
        decode = DECODERS[decoder](text)
        wire = encode_record(text, {"s": "abc", "x": 1})
        others = [
            # another format
            encode_record(FABRIC_PUBLISH, FABRIC_PUBLISH.default_record()),
            # the other byte order
            encode_record(text, {"s": "abc", "x": 1}, byte_order="big"),
            # a longer message of the same format
            encode_record(text, {"s": "abcdef", "x": 1}),
            # a traced message
            attach_trace(wire, TraceContext(1, 2)),
        ]
        data = as_buffer(wire, kind)
        assert decode(data, unpack_header(wire)) == {"s": "abc", "x": 1}
        for other in others:
            with pytest.raises(DecodeError):
                decode(data, unpack_header(other))
