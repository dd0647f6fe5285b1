"""Unit tests for PBIOContext (per-endpoint encode/decode state)."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.check import gen
from repro.check.mutate import mutate
from repro.echo.protocol import RESPONSE_V0
from repro.errors import EncodeError, UnknownFormatError
from repro.pbio import codegen
from repro.pbio.context import PBIOContext
from repro.pbio.encode import encode_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry
from repro.pbio.types import LEGAL_SIZES, TypeKind


FMT = IOFormat("Msg", [IOField("load", "integer"), IOField("mem", "integer")])
REC = FMT.make_record(load=1, mem=2)


class TestEncodeDecode:
    def test_roundtrip(self):
        ctx = PBIOContext()
        fmt, rec = ctx.decode(ctx.encode(FMT, REC))
        assert fmt == FMT
        assert records_equal(rec, REC)

    def test_encode_registers_format(self):
        ctx = PBIOContext()
        ctx.encode(FMT, REC)
        assert FMT in ctx.registry

    def test_unknown_format_raises(self):
        sender = PBIOContext()
        wire = sender.encode(FMT, REC)
        receiver = PBIOContext()  # empty private registry
        with pytest.raises(UnknownFormatError) as exc_info:
            receiver.decode(wire)
        assert exc_info.value.format_id == FMT.format_id

    def test_shared_registry_is_the_out_of_band_channel(self):
        registry = FormatRegistry()
        sender = PBIOContext(registry)
        receiver = PBIOContext(registry)
        wire = sender.encode(FMT, REC)
        fmt, rec = receiver.decode(wire)
        assert fmt == FMT and rec["load"] == 1

    def test_peek_format(self):
        ctx = PBIOContext()
        wire = ctx.encode(FMT, REC)
        assert ctx.peek_format(wire) == FMT
        assert PBIOContext().peek_format(wire) is None


class TestCodegenCaching:
    def test_coders_generated_once_per_format(self):
        ctx = PBIOContext()
        for _ in range(5):
            wire = ctx.encode(FMT, REC)
            ctx.decode(wire)
        assert ctx.generated_encoder_count == 1
        assert ctx.generated_decoder_count == 1

    def test_one_coder_pair_per_format(self):
        # a format's first use here is interpretive and its second
        # generates: one pair per format seen twice, none for one seen once
        ctx = PBIOContext()
        other = IOFormat("Other", [IOField("x", "float")])
        once = IOFormat("Once", [IOField("y", "integer")])
        for _ in range(2):
            ctx.decode(ctx.encode(FMT, REC))
            ctx.decode(ctx.encode(other, other.make_record(x=1.0)))
        ctx.decode(ctx.encode(once, once.make_record(y=3)))
        assert ctx.generated_encoder_count == 2
        assert ctx.generated_decoder_count == 2


class _Index:
    """Not an ``int``, but an integer to ``struct.pack`` (``__index__``)."""

    def __index__(self):
        return 7


#: per kind: a value both coders take, then the odd ones
GOOD = {"integer": 7, "unsigned": 7, "enumeration": 7, "float": 7.5,
        "boolean": True, "char": "x", "string": "abc"}
INTEGRAL = ["7", 7.0, 7.9, True, _Index(), Decimal("7"), Fraction(7, 2),
            None, b"7", -1, 2**70, "abc"]
ODD = {
    "integer": INTEGRAL,
    "unsigned": INTEGRAL,
    "enumeration": INTEGRAL,
    "float": ["7", 7, True, _Index(), Decimal("7.5"), Fraction(7, 2), None,
              b"7", 1e300, complex(1, 0)],
    "boolean": ["", "x", 0, 2, None, [], 0.0],
    "char": ["xy", "", 5, b"x", "\u20ac", "\xe9", "\ud800"],
    "string": [5, b"abc", None, "\ud800", "\u20ac"],
}


def _odd_cases():
    """A format per kind and size, the odd value at the top level and in
    an array element (the carried loop), next to well-behaved values."""
    for kind, values in ODD.items():
        for size in LEGAL_SIZES[TypeKind(kind)]:
            element = IOFormat(f"OddMember_{kind}{size}", [
                IOField("info", "string"), IOField("y", kind, size)])
            fmt = IOFormat(f"Odd_{kind}{size}", [
                IOField("x", kind, size), IOField("n", "integer"),
                IOField("items", "complex", subformat=element,
                        array=ArraySpec(length_field="n"))])
            good = GOOD[kind]
            for value in values:
                yield fmt, Record(x=value, n=1, items=[Record(info="a", y=good)])
                yield fmt, Record(x=good, n=2, items=[
                    Record(info="a", y=value), Record(info="b", y=good)])


class TestFirstUseIsGenerated:
    """A context's first use of a format runs the interpretive coder and
    its second the generated one: the two are one path to a caller, held
    here as a property over seeded formats, records, byte orders and
    corrupted wires."""

    CASES = 120

    @staticmethod
    def _outcome(fn):
        try:
            return "ok", fn()
        except Exception as exc:  # noqa: BLE001 - compared by class
            return "raised", type(exc)

    def test_first_and_second_encode_give_the_same_bytes(self):
        for seed in range(self.CASES):
            rng = random.Random(seed)
            fmt = gen.random_format(rng)
            rec = gen.random_record(rng, fmt)
            ctx = PBIOContext(byte_order=("little", "big")[seed % 2])
            first = ctx.encode(fmt, rec)
            assert ctx.generated_encoder_count == 0
            assert ctx.encode(fmt, rec) == first, seed
            assert ctx.generated_encoder_count == 1

    def test_first_and_second_decode_agree_on_every_wire(self):
        decoded = 0
        for seed in range(self.CASES):
            rng = random.Random(seed)
            fmt = gen.random_format(rng)
            wire = encode_record(fmt, gen.random_record(rng, fmt),
                                 byte_order=rng.choice(["little", "big"]))
            for mutated in [wire] + [mutate(wire, rng)[1] for _ in range(3)]:
                ctx = PBIOContext()
                first = self._outcome(lambda: ctx.decode_as(fmt, mutated))
                second = self._outcome(lambda: ctx.decode_as(fmt, mutated))
                assert ctx.generated_decoder_count == 1
                assert first[0] == second[0], (seed, first, second)
                if first[0] == "ok":
                    decoded += 1
                    assert records_equal(first[1], second[1]), seed
                else:
                    assert first[1] is second[1], (seed, first, second)
        assert decoded > self.CASES  # the valid wires, and some mutants

    @pytest.mark.parametrize("byte_order", ["little", "big"])
    def test_first_and_second_encode_agree_on_off_type_values(self, byte_order):
        accepted = rejected = 0
        for fmt, rec in _odd_cases():
            ctx = PBIOContext(byte_order=byte_order)
            first, second, third = (
                self._outcome(lambda: ctx.encode(fmt, rec)) for _ in range(3))
            assert ctx.generated_encoder_count == 1
            assert first == second == third, (fmt.name, rec, first, second)
            if first[0] == "raised":
                rejected += 1
                assert first[1] is EncodeError, (fmt.name, rec, first)
            else:
                accepted += 1
        assert accepted and rejected

    def test_off_type_member_ids_are_refused_on_every_encode(self):
        """A v0.0 member ID of ``"7"``, ``7.0`` or ``7.9`` is refused on
        the first encode as on the second; ``7.9`` is never written as 7."""
        for value in ("7", 7.0, 7.9, "abc"):
            rec = Record(channel_id="x", member_count=1,
                         member_list=[Record(info="a", ID=value)])
            ctx = PBIOContext()
            for _ in range(3):
                with pytest.raises(EncodeError):
                    ctx.encode(RESPONSE_V0, rec)

    def test_a_lone_surrogate_is_an_encode_error(self):
        rec = Record(channel_id="\ud800", member_count=0, member_list=[])
        with pytest.raises(EncodeError):
            encode_record(RESPONSE_V0, rec)
        with pytest.raises(EncodeError):
            codegen.make_encoder(RESPONSE_V0)(rec)


class TestInterpretiveMode:
    def test_no_codegen_flag_uses_generic_paths(self):
        ctx = PBIOContext(use_codegen=False)
        wire = ctx.encode(FMT, REC)
        fmt, rec = ctx.decode(wire)
        assert records_equal(rec, REC)
        assert ctx.generated_encoder_count == 0
        assert ctx.generated_decoder_count == 0

    def test_wire_format_identical_across_modes(self):
        fast = PBIOContext()
        slow = PBIOContext(use_codegen=False)
        assert fast.encode(FMT, REC) == slow.encode(FMT, REC)
