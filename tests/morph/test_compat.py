"""Unit + property tests for imperfect-match reconciliation
(coerce_record), and the fused route's compiled copy of it."""

from hypothesis import given

from repro.morph.compat import coerce_record
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
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
    """The coercion as generated code: a fused route compiles the
    reconcile into the one routine it generates for decode, ECode chain
    and reconcile.  What it delivers must be what :func:`coerce_record`
    builds."""

    def _fused(self, src, dst, rec):
        """*rec* sent as *src* to a fused reader of *dst*, twice (a route
        compiles on its second message); the second delivery."""
        got = []
        receiver = MorphReceiver(use_fusion=True)
        receiver.register_handler(dst, got.append)
        wire = PBIOContext(receiver.registry).encode(src, rec)
        for _ in range(2):
            receiver.process(wire)
        assert receiver.stats.fused_messages == 1
        assert receiver.route_for(src).coercion == (src, dst)
        return got[1]

    def test_agrees_with_structural_coercion(self):
        rec = SRC.make_record(shared=7, dropped="x", n=3, xs=[1, 2, 3])
        generated = self._fused(SRC, DST, rec)
        assert generated["added"] == 1.5  # the field-custom default
        assert records_equal(generated, coerce_record(SRC, DST, rec))

    def test_complex_array_copy(self, v1, v2):
        from repro.bench.workloads import response_v2

        rec = response_v2(3)
        generated = self._fused(v2, v1, rec)
        assert records_equal(generated, coerce_record(v2, v1, rec))
        assert [m["ID"] for m in generated["member_list"]] == [
            m["ID"] for m in rec["member_list"]
        ]

    def test_echo_v2_to_v1_drop_and_default(self, v1, v2):
        from repro.bench.workloads import response_v2

        out = self._fused(v2, v1, response_v2(2))
        # the structural mapping keeps the member list but cannot invent
        # the src/sink lists (that needs the semantic Figure 5 transform)
        assert out["member_count"] == 2
        assert out["src_count"] == 0 and out["src_list"] == []
