"""Struct runs across element boundaries, held differentially.

A generated coder reads (writes) an array element's trailing scalar run
and the next element's leading fixed-width field — a string's u32
length, or a scalar run — with one ``Struct`` call; an element that
does not end in a scalar run, or does not begin with a fixed-width
field, keeps the one-element-at-a-time loop.  Over hand-built element
shapes, counts 0, 1, 2 and N, both byte orders and every buffer type:

* the generated decoder, ``decode_record`` and a decode-only
  ``FusedRoute`` build equal records and reject the same wires alike;
* the generated encoder writes ``encode_record``'s bytes.
"""

import functools
import random
import struct

import pytest

from repro.check import gen
from repro.bench.workloads import response_v2
from repro.check.mutate import MUTATIONS
from repro.echo.protocol import RESPONSE_V2
from repro.errors import DecodeError, EncodeError
from repro.morph.fusion import FusedRoute
from repro.pbio import codegen
from repro.pbio.buffer import HEADER_SIZE
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from tests.pbio.test_decoder_buffers import BUFFERS, as_buffer, fused_decoder

N = 5
COUNTS = (0, 1, 2, N)
ORDERS = ("little", "big")

INNER = IOFormat("Inner", [IOField("k", "string"), IOField("v", "integer", 2)])

#: element shape name -> (fields, whether the element carries)
SHAPES = {
    "string_first": ([
        IOField("info", "string"),
        IOField("ID", "integer"),
        IOField("is_Source", "boolean"),
        IOField("is_Sink", "boolean"),
    ], True),
    "scalar_first": ([
        IOField("x", "integer", 2),
        IOField("y", "float", 8),
        IOField("s", "string"),
        IOField("z", "unsigned", 4),
    ], True),
    "nested_carry": ([
        IOField("s", "string"),
        IOField("n", "integer"),
        IOField("subs", "complex", subformat=INNER,
                array=ArraySpec(length_field="n")),
        IOField("t", "integer", 8),
    ], True),
    "ends_in_string": ([
        IOField("x", "integer"),
        IOField("s", "string"),
    ], False),
    "ends_in_char": ([
        IOField("s", "string"),
        IOField("x", "integer"),
        IOField("c", "char"),
    ], False),
    "ends_in_array": ([
        IOField("s", "string"),
        IOField("n", "integer"),
        IOField("xs", "integer", 4, array=ArraySpec(length_field="n")),
    ], False),
    "char_first": ([
        IOField("c", "char"),
        IOField("x", "integer"),
    ], False),
    "one_scalar_run": ([
        IOField("x", "integer"),
        IOField("y", "float", 4),
    ], False),
}


def outer_format(shape, count, fixed, array_last):
    """A format holding one array of *shape* elements: variable (counted
    by ``n``) or of fixed length *count*, last or followed by a scalar
    (an over-read would eat it)."""
    elem = IOFormat(f"E_{shape}", SHAPES[shape][0])
    spec = (ArraySpec(fixed_length=count) if fixed
            else ArraySpec(length_field="n"))
    fields = [IOField("tag", "string"), IOField("n", "integer"),
              IOField("items", "complex", subformat=elem, array=spec)]
    if not array_last:
        fields.append(IOField("after", "integer", 8))
    name = f"O_{shape}_{count}_{'fixed' if fixed else 'var'}_{int(array_last)}"
    return IOFormat(name, fields)


def outer_record(fmt, count, seed):
    rng = random.Random(seed)
    elem = fmt.field("items").subformat
    rec = Record(tag="t" * (seed % 3), n=count,
                 items=[gen.random_record(rng, elem) for _ in range(count)])
    if "after" in fmt:
        rec["after"] = -seed
    return rec


def cases():
    seed = 0
    for shape in SHAPES:
        for count in COUNTS:
            for fixed in (False, True):
                for array_last in (False, True):
                    seed += 1
                    fmt = outer_format(shape, count, fixed, array_last)
                    yield shape, fmt, outer_record(fmt, count, seed)


CASES = list(cases())


@functools.lru_cache(maxsize=None)
def decoders(fmt):
    return {
        "generated": codegen.make_decoder(fmt),
        "generic": lambda data: decode_record(fmt, data),
        "fused": fused_decoder(fmt),
    }


def outcome(decode, data):
    try:
        return "ok", decode(data)
    except Exception as exc:  # noqa: BLE001 - compared by class
        return "raised", type(exc)


def assert_agree(fmt, data, must_reject=False):
    results = {name: outcome(fn, data) for name, fn in decoders(fmt).items()}
    kinds = {result[0] for result in results.values()}
    assert len(kinds) == 1, (fmt.name, results)
    if kinds == {"raised"}:
        assert {result[1] for result in results.values()} == {DecodeError}, (
            fmt.name, results)
    else:
        assert not must_reject, (fmt.name, results)
        first, *rest = [result[1] for result in results.values()]
        assert all(records_equal(first, other) for other in rest), fmt.name


def test_the_shapes_carry_as_named():
    for shape, (fields, carries) in SHAPES.items():
        elem = IOFormat("E", fields)
        assert (codegen._head_codes(elem) is not None) is carries, shape


@pytest.mark.parametrize("byte_order", ORDERS)
class TestDifferential:
    def test_generated_encode_writes_the_generic_bytes(self, byte_order):
        for _shape, fmt, rec in CASES:
            wire = encode_record(fmt, rec, byte_order=byte_order)
            assert codegen.make_encoder(fmt, byte_order)(rec) == wire, fmt.name

    @pytest.mark.parametrize("kind", BUFFERS)
    def test_three_decoders_build_equal_records(self, byte_order, kind):
        for _shape, fmt, rec in CASES:
            data = as_buffer(encode_record(fmt, rec, byte_order=byte_order), kind)
            for name, decode in decoders(fmt).items():
                assert records_equal(decode(data), rec), (fmt.name, name)

    @pytest.mark.parametrize("kind", BUFFERS)
    def test_every_truncation_is_rejected_alike(self, byte_order, kind):
        """Every prefix, as it arrives (the header over-claims) and with
        the header's payload length rewritten to match (the payload
        decode itself must notice)."""
        for _shape, fmt, rec in CASES:
            wire = encode_record(fmt, rec, byte_order=byte_order)
            for cut in range(HEADER_SIZE, len(wire)):
                prefix = bytearray(wire[:cut])
                assert_agree(fmt, as_buffer(prefix, kind), must_reject=True)
                struct.pack_into("<I", prefix, HEADER_SIZE - 4, cut - HEADER_SIZE)
                assert_agree(fmt, as_buffer(prefix, kind), must_reject=True)

    @pytest.mark.parametrize("kind", BUFFERS)
    def test_every_mutant_is_judged_alike(self, byte_order, kind):
        rng = random.Random(byte_order + kind)
        for _shape, fmt, rec in CASES:
            wire = encode_record(fmt, rec, byte_order=byte_order)
            for mutation in MUTATIONS.values():
                for _ in range(2):
                    assert_agree(fmt, as_buffer(mutation(wire, rng), kind))

    def test_a_wrong_count_is_an_encode_error(self, byte_order):
        for _shape, fmt, rec in CASES:
            if fmt.field("items").array.fixed_length is not None:
                extra = outer_record(fmt, 1, 0)["items"]
                bad = dict(rec, items=rec["items"] + extra)
            else:
                bad = dict(rec, n=rec["n"] + 1)
            with pytest.raises(EncodeError):
                encode_record(fmt, bad, byte_order=byte_order)
            with pytest.raises(EncodeError):
                codegen.make_encoder(fmt, byte_order)(bad)


class _Counted:
    """A ``Struct`` that counts its ``unpack_from`` and ``pack`` calls."""

    def __init__(self, packer, tally):
        self._packer = packer
        self._tally = tally

    def unpack_from(self, *args):
        self._tally["struct"] += 1
        return self._packer.unpack_from(*args)

    def pack(self, *args):
        self._tally["struct"] += 1
        return self._packer.pack(*args)


def _counting(fn):
    """Wrap every ``Struct`` *fn*'s generated code reaches (``_S``,
    ``_U32``) and the ``bytearray`` it builds in counters; returns the
    tally."""
    tally = {"struct": 0, "extend": 0}

    class CountedBytearray(bytearray):
        def extend(self, data):
            tally["extend"] += 1
            super().extend(data)

    names = fn.__globals__
    names["_S"][:] = [_Counted(packer, tally) for packer in names["_S"]]
    names["_U32"] = _Counted(names["_U32"], tally)
    names["bytearray"] = CountedBytearray
    return tally


class TestStructRunPrice:
    """What a ``RESPONSE_V2`` decode and encode cost in ``Struct`` calls
    and buffer extends, counted by wrapping (never timed): one ``Struct``
    call per member, against two before struct runs crossed element
    boundaries; an encode one ``pack`` and two ``extend`` calls per
    member, against two and three."""

    MEMBERS = (64, 128)

    @staticmethod
    def _per_member(counts):
        """``(per member, constant)`` of counts taken at ``MEMBERS``."""
        (low, at_low), (high, at_high) = counts
        per_member = (at_high - at_low) / (high - low)
        return per_member, at_low - per_member * low

    def _decode_counts(self, fused):
        counts = []
        for members in self.MEMBERS:
            wire = encode_record(RESPONSE_V2, response_v2(members))
            body = HEADER_SIZE
            if fused:
                route = FusedRoute(RESPONSE_V2, None, "decode", [], None)
                fn = route.fn_for("<")
                tally = _counting(fn)
                rec, off = fn(memoryview(wire), body, len(wire))
                assert off == len(wire)
            else:
                fn = codegen.make_decoder(RESPONSE_V2)
                tally = _counting(fn)
                rec = fn(memoryview(wire))
            assert records_equal(rec, response_v2(members))
            counts.append((members, tally["struct"]))
        return counts

    @pytest.mark.parametrize("fused", [False, True], ids=["decoder", "fused"])
    def test_a_decode_makes_one_struct_call_per_member(self, fused):
        per_member, constant = self._per_member(self._decode_counts(fused))
        assert per_member == 1
        assert 0 <= constant <= 4

    def test_an_encode_makes_one_pack_and_two_extends_per_member(self):
        structs, extends = [], []
        for members in self.MEMBERS:
            rec = response_v2(members)
            fn = codegen.make_encoder(RESPONSE_V2)
            tally = _counting(fn)
            assert fn(rec) == encode_record(RESPONSE_V2, rec)
            structs.append((members, tally["struct"]))
            extends.append((members, tally["extend"]))
        per_member, constant = self._per_member(structs)
        assert per_member == 1 and 0 <= constant <= 4
        per_member, constant = self._per_member(extends)
        assert per_member == 2 and 0 <= constant <= 6
