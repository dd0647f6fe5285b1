"""Unit + property tests for imperfect-match reconciliation
(coerce_record) and ECode auto-generation."""

import pytest
from hypothesis import given

from repro.ecode.codegen import compile_procedure
from repro.errors import MorphError
from repro.morph.compat import coerce_record, generate_coercion_ecode
from repro.morph.transform import growable_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal

from tests.strategies import format_and_record, io_formats


def fmt(name, *fields, version=None):
    return IOFormat(name, list(fields), version=version)


SRC = fmt(
    "Msg",
    IOField("shared", "integer"),
    IOField("dropped", "string"),
    IOField("n", "integer"),
    IOField("xs", "integer", array=ArraySpec(length_field="n")),
    version="new",
)

DST = fmt(
    "Msg",
    IOField("shared", "integer"),
    IOField("added", "float", default=1.5),
    IOField("n", "integer"),
    IOField("xs", "integer", array=ArraySpec(length_field="n")),
    version="old",
)


class TestCoerceRecord:
    def test_copies_matching_drops_unknown_fills_defaults(self):
        rec = SRC.make_record(shared=7, dropped="bye", n=2, xs=[1, 2])
        out = coerce_record(SRC, DST, rec)
        assert out == {"shared": 7, "added": 1.5, "n": 2, "xs": [1, 2]}
        assert "dropped" not in out

    def test_output_always_validates(self):
        rec = SRC.make_record(shared=1, n=1, xs=[9])
        DST.validate_record(coerce_record(SRC, DST, rec))

    def test_type_changed_field_gets_default(self):
        src = fmt("M", IOField("x", "integer"))
        dst = fmt("M", IOField("x", "string"))
        assert coerce_record(src, dst, {"x": 5}) == {"x": ""}

    def test_count_fields_resynchronized(self):
        # source record with inconsistent count is repaired
        rec = Record(shared=0, dropped="", n=99, xs=[1, 2, 3])
        out = coerce_record(SRC, DST, rec)
        assert out["n"] == 3

    def test_complex_recursion(self):
        inner_src = fmt("I", IOField("keep", "integer"), IOField("lose", "integer"))
        inner_dst = fmt("I", IOField("keep", "integer"), IOField("gain", "string"))
        src = fmt("M", IOField("sub", "complex", subformat=inner_src))
        dst = fmt("M", IOField("sub", "complex", subformat=inner_dst))
        out = coerce_record(src, dst, {"sub": {"keep": 3, "lose": 4}})
        assert out == {"sub": {"keep": 3, "gain": ""}}

    def test_fixed_array_padded_and_trimmed(self):
        src = fmt("M", IOField("xs", "integer", array=ArraySpec(fixed_length=2)))
        dst = fmt("M", IOField("xs", "integer", array=ArraySpec(fixed_length=4)))
        out = coerce_record(src, dst, {"xs": [5, 6]})
        assert out == {"xs": [5, 6, 0, 0]}
        narrower = fmt("M", IOField("xs", "integer", array=ArraySpec(fixed_length=1)))
        assert coerce_record(src, narrower, {"xs": [5, 6]}) == {"xs": [5]}

    def test_malformed_value_falls_back_to_default(self):
        out = coerce_record(SRC, DST, Record(shared="junk?", dropped="", n=0, xs=[]))
        assert out["shared"] == 0 or isinstance(out["shared"], int)


class TestCoerceProperties:
    @given(format_and_record(), io_formats())
    def test_total_and_valid(self, fmt_rec, dst):
        src, rec = fmt_rec
        out = coerce_record(src, dst, rec)
        dst.validate_record(out)

    @given(format_and_record())
    def test_identity_coercion(self, fmt_rec):
        src, rec = fmt_rec
        out = coerce_record(src, src, rec)
        assert records_equal(out, rec)


class TestGeneratedECodeCoercion:
    def _apply_generated(self, src, dst, rec):
        code = generate_coercion_ecode(src, dst)
        proc = compile_procedure(code)
        out = growable_record(dst)
        proc(rec, out)
        return out  # arrays still growable: they compare as the lists they are

    def test_agrees_with_structural_coercion(self):
        rec = SRC.make_record(shared=7, dropped="x", n=3, xs=[1, 2, 3])
        generated = self._apply_generated(SRC, DST, rec)
        structural = coerce_record(SRC, DST, rec)
        # generated ECode fills scalar defaults (not field-custom defaults)
        structural["added"] = 0.0
        assert records_equal(generated, structural)

    def test_complex_array_copy(self, v1):
        from repro.bench.workloads import response_v1_from_v2, response_v2

        rec = response_v1_from_v2(response_v2(3))
        generated = self._apply_generated(v1, v1, rec)
        assert records_equal(generated, rec)

    def test_echo_v2_to_v1_drop_and_default(self, v1, v2):
        from repro.bench.workloads import response_v2

        rec = response_v2(2)
        out = self._apply_generated(v2, v1, rec)
        # the structural mapping keeps the member list but cannot invent
        # the src/sink lists (that needs the semantic Figure 5 transform)
        assert out["member_count"] == 2
        assert out["src_count"] == 0 and out["src_list"] == []

    def test_mismatched_fixed_arrays_rejected(self):
        a = fmt("M", IOField("xs", "integer", array=ArraySpec(fixed_length=2)))
        b = fmt("M", IOField("xs", "integer", array=ArraySpec(fixed_length=3)))
        with pytest.raises(MorphError, match="fixed"):
            generate_coercion_ecode(a, b)

    def test_generated_code_is_valid_ecode(self, v1, v2):
        code = generate_coercion_ecode(v2, v1)
        compile_procedure(code)  # must parse, check and compile
