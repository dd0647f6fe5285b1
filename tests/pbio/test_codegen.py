"""Tests for the dynamically generated (DCG) encoders/decoders: source
structure, equivalence with the generic path, and error behaviour."""

import pytest

from repro.errors import DecodeError, EncodeError
from repro.pbio import codegen
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal


FMT = IOFormat(
    "Mixed",
    [
        IOField("a", "integer"),
        IOField("b", "integer", 8),
        IOField("c", "float"),
        IOField("name", "string"),
        IOField("flag", "boolean"),
        IOField("n", "integer"),
        IOField(
            "subs",
            "complex",
            subformat=IOFormat("S", [IOField("k", "string"), IOField("v", "integer")]),
            array=ArraySpec(length_field="n"),
        ),
        IOField("ch", "char"),
    ],
)

REC = FMT.make_record(
    a=1, b=2**40, c=3.5, name="probe", flag=True, n=2,
    subs=[{"k": "x", "v": 10}, {"k": "y", "v": -20}], ch="Q",
)


class TestGeneratedSource:
    def test_decoder_source_fuses_scalar_runs(self):
        source, structs = codegen.decoder_source(FMT)
        # a, b, c fuse into one unpack; flag+n fuse into another
        assert "unpack_from" in source
        assert any(s.format == "<iqd" for s in structs)

    def test_encoder_source_fuses_scalar_runs(self):
        source, structs = codegen.encoder_source(FMT)
        assert any(s.format == "<iqd" for s in structs)
        assert "_ext" in source

    def test_decoder_source_compiles_standalone(self):
        source, _ = codegen.decoder_source(FMT)
        compile(source, "<test>", "exec")  # must be valid Python

    def test_source_mentions_format_name(self):
        source, _ = codegen.decoder_source(FMT)
        assert "Mixed" in source


class TestEquivalenceWithGenericPath:
    def test_encoder_matches_generic(self):
        assert codegen.make_encoder(FMT)(REC) == encode_record(FMT, REC)

    def test_decoder_matches_generic(self):
        wire = encode_record(FMT, REC)
        generated = codegen.make_decoder(FMT)(wire)
        generic = decode_record(FMT, wire)
        assert generated == generic
        assert records_equal(generated, REC)

    def test_roundtrip_through_generated_pair(self):
        encode = codegen.make_encoder(FMT)
        decode = codegen.make_decoder(FMT)
        assert records_equal(decode(encode(REC)), REC)

    def test_decoded_records_are_records(self):
        decode = codegen.make_decoder(FMT)
        out = decode(encode_record(FMT, REC))
        assert isinstance(out, Record)
        assert isinstance(out["subs"][0], Record)
        assert out.subs[1].v == -20  # attribute access works


class TestGeneratedErrors:
    def test_wrong_format_id_rejected(self):
        other = IOFormat("Other", [IOField("x", "integer")])
        wire = encode_record(other, {"x": 1})
        with pytest.raises(DecodeError, match="does not match"):
            codegen.make_decoder(FMT)(wire)

    def test_truncated_message(self):
        wire = encode_record(FMT, REC)
        from repro.pbio.buffer import pack_header, HEADER_SIZE

        chopped = pack_header(FMT.format_id, 4) + wire[HEADER_SIZE : HEADER_SIZE + 4]
        with pytest.raises(DecodeError):
            codegen.make_decoder(FMT)(chopped)

    def test_missing_record_field(self):
        bad = dict(REC)
        del bad["name"]
        with pytest.raises(EncodeError, match="conform"):
            codegen.make_encoder(FMT)(bad)

    def test_count_mismatch(self):
        bad = FMT.make_record(**{**REC, "n": 9})
        with pytest.raises(EncodeError, match="count field"):
            codegen.make_encoder(FMT)(bad)

    def test_fixed_array_mismatch(self):
        fmt = IOFormat("F", [IOField("xs", "integer", array=ArraySpec(fixed_length=2))])
        with pytest.raises(EncodeError, match="fixed array"):
            codegen.make_encoder(fmt)({"xs": [1, 2, 3]})

    def test_char_length_checked(self):
        fmt = IOFormat("C", [IOField("c", "char")])
        with pytest.raises(EncodeError, match="1 character"):
            codegen.make_encoder(fmt)({"c": "ab"})

    def test_out_of_range_scalar_becomes_encode_error(self):
        fmt = IOFormat("I", [IOField("i", "integer", 1)])
        with pytest.raises(EncodeError):
            codegen.make_encoder(fmt)({"i": 5000})

    def test_truncated_string_detected(self):
        fmt = IOFormat("S", [IOField("s", "string")])
        wire = bytearray(codegen.make_encoder(fmt)({"s": "hello"}))
        # corrupt the string length prefix to point past the payload
        import struct
        from repro.pbio.buffer import HEADER_SIZE

        struct.pack_into("<I", wire, HEADER_SIZE, 10_000)
        with pytest.raises(DecodeError):
            codegen.make_decoder(fmt)(bytes(wire))


class TestEdgeShapes:
    def test_format_of_only_strings(self):
        fmt = IOFormat("Strs", [IOField("a", "string"), IOField("b", "string")])
        rec = {"a": "x", "b": ""}
        wire = codegen.make_encoder(fmt)(rec)
        assert codegen.make_decoder(fmt)(wire) == rec

    def test_single_scalar(self):
        fmt = IOFormat("One", [IOField("x", "integer")])
        wire = codegen.make_encoder(fmt)({"x": -7})
        assert codegen.make_decoder(fmt)(wire) == {"x": -7}

    def test_nested_variable_arrays(self):
        inner = IOFormat(
            "Inner",
            [
                IOField("m", "integer"),
                IOField("vals", "float", array=ArraySpec(length_field="m")),
            ],
        )
        outer = IOFormat(
            "Outer",
            [
                IOField("n", "integer"),
                IOField("rows", "complex", subformat=inner,
                        array=ArraySpec(length_field="n")),
            ],
        )
        rec = outer.make_record(
            n=2,
            rows=[{"m": 1, "vals": [0.5]}, {"m": 3, "vals": [1.0, 2.0, 3.0]}],
        )
        wire = codegen.make_encoder(outer)(rec)
        assert records_equal(codegen.make_decoder(outer)(wire), rec)

    def test_fixed_array_of_complex(self):
        pair = IOFormat("Pair", [IOField("a", "integer"), IOField("b", "integer")])
        fmt = IOFormat(
            "F",
            [IOField("ps", "complex", subformat=pair, array=ArraySpec(fixed_length=2))],
        )
        rec = {"ps": [{"a": 1, "b": 2}, {"a": 3, "b": 4}]}
        wire = codegen.make_encoder(fmt)(rec)
        assert codegen.make_decoder(fmt)(wire) == rec

    def test_zero_length_fixed_array(self):
        fmt = IOFormat(
            "Z",
            [
                IOField("xs", "integer", array=ArraySpec(fixed_length=0)),
                IOField("tail", "integer"),
            ],
        )
        wire = codegen.make_encoder(fmt)({"xs": [], "tail": 5})
        assert codegen.make_decoder(fmt)(wire) == {"xs": [], "tail": 5}
