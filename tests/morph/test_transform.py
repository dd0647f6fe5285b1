"""Unit tests for compiled Transformations and TransformChains."""

import pytest

from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V1_TO_V2_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.ecode.runtime import AutoList
from repro.errors import TransformError
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import (
    TransformChain,
    Transformation,
    build_chain,
    growable_record,
)
from repro.pbio.context import PBIOContext
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec


class TestGrowableRecord:
    def test_defaults_match_format(self, v1):
        rec = growable_record(v1)
        assert rec["member_count"] == 0
        assert rec["member_list"] == []
        assert rec["channel_id"] == ""

    def test_arrays_autogrow_with_complex_elements(self, v1):
        rec = growable_record(v1)
        rec["member_list"][2]["info"] = "late"
        assert len(rec["member_list"]) == 3
        assert rec["member_list"][0] == {"info": "", "ID": 0}

    def test_grown_elements_are_fresh(self, v1):
        rec = growable_record(v1)
        rec["member_list"][0]["ID"] = 5
        assert rec["member_list"][1]["ID"] == 0

    def test_nested_growable(self):
        inner = IOFormat(
            "Inner",
            [IOField("m", "integer"),
             IOField("vals", "integer", array=ArraySpec(length_field="m"))],
        )
        outer = IOFormat(
            "Outer",
            [IOField("n", "integer"),
             IOField("rows", "complex", subformat=inner,
                     array=ArraySpec(length_field="n"))],
        )
        rec = growable_record(outer)
        rec["rows"][0]["vals"][1] = 7
        assert rec["rows"][0]["vals"] == [0, 7]

    def test_fixed_arrays_prefilled(self):
        fmt = IOFormat("F", [IOField("xs", "integer", array=ArraySpec(fixed_length=2))])
        assert growable_record(fmt)["xs"] == [0, 0]


class TestTransformation:
    def test_figure5_paper_example(self, v2):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        incoming = response_v2(5)
        out = xform.apply(incoming)
        assert records_equal(out, response_v1_from_v2(incoming))

    def test_source_and_target_exposed(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform.source == RESPONSE_V2
        assert xform.target == RESPONSE_V1

    def test_interpreted_mode_agrees_with_compiled(self):
        compiled = Transformation(V2_TO_V1_TRANSFORM, use_codegen=True)
        interpreted = Transformation(V2_TO_V1_TRANSFORM, use_codegen=False)
        incoming = response_v2(4)
        assert records_equal(compiled.apply(incoming), interpreted.apply(incoming))

    def test_bad_ecode_raises_transform_error_at_compile(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "this is not C;")
        with pytest.raises(TransformError, match="compile"):
            Transformation(spec)

    def test_runtime_failure_wrapped(self):
        spec = TransformSpec(RESPONSE_V2, RESPONSE_V1, "old.x = new.missing;")
        xform = Transformation(spec, validate_output=False)
        with pytest.raises(TransformError, match="runtime"):
            xform.apply(response_v2(1))

    def test_validation_catches_inconsistent_output(self):
        # sets a count without populating the list
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        xform = Transformation(spec, validate_output=True)
        with pytest.raises(TransformError, match="invalid record"):
            xform.apply(response_v2(2))

    def test_validation_off_delivers_anyway(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        out = Transformation(spec, validate_output=False).apply(response_v2(2))
        assert out["member_count"] == 2 and out["member_list"] == []

    def test_unwritten_fields_keep_defaults(self):
        spec = TransformSpec(
            RESPONSE_V2, RESPONSE_V0, "old.channel_id = new.channel_id;"
        )
        out = Transformation(spec, validate_output=False).apply(response_v2(1))
        assert out["member_count"] == 0
        assert out["member_list"] == []

    def test_callable_protocol(self):
        xform = Transformation(V2_TO_V1_TRANSFORM)
        assert xform(response_v2(1)) == xform.apply(response_v2(1))


class TestAssignmentIsByValue:
    """A transform's ``new`` is the caller's record (``process_record``
    hands the application's own in): whole-record and whole-array stores
    must copy, in both engines."""

    WHOLE_STORES = """
    old.channel_id = new.channel_id;
    old.member_count = new.member_count;
    old.member_list = new.member_list;
    old.member_list[0].ID = 99;
    old.src_count = 1;
    old.src_list[0] = new.member_list[1];
    old.src_list[0].info = "rewritten";
    """

    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_output_shares_nothing_with_the_input(self, use_codegen):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        xform = Transformation(spec, use_codegen=use_codegen)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(3))
        )
        before = incoming.deepcopy()
        out = xform.apply(incoming)
        assert incoming == before
        assert out["member_list"][0]["ID"] == 99
        assert out["src_list"] == [
            {"info": "rewritten", "ID": before["member_list"][1]["ID"]}
        ]
        assert type(out["member_list"]) is list and type(out["src_list"]) is list

    def test_compiled_agrees_with_interpreted(self):
        spec = TransformSpec(RESPONSE_V0, RESPONSE_V1, self.WHOLE_STORES)
        incoming = Transformation(V1_TO_V0_TRANSFORM).apply(
            response_v1_from_v2(response_v2(4))
        )
        compiled = Transformation(spec, use_codegen=True).apply(incoming)
        interpreted = Transformation(spec, use_codegen=False).apply(incoming)
        assert compiled == interpreted


class TestMorphPrice:
    """What one V2->V1 morph may cost, counted by wrapping (never timed):
    no Python-level ``Record.__setitem__`` (typed scalar stores go
    straight to ``dict``), one ``AutoList.__getitem__`` per output element
    (each output path is loaded once per iteration), and a freeze that
    makes no call per element."""

    MEMBERS = 64

    @pytest.fixture
    def census(self, monkeypatch):
        calls = {"setitem": 0, "getitem": 0}
        record_setitem = Record.__setitem__
        autolist_getitem = AutoList.__getitem__

        def counted_setitem(self, key, value):
            calls["setitem"] += 1
            record_setitem(self, key, value)

        def counted_getitem(self, index):
            calls["getitem"] += 1
            return autolist_getitem(self, index)

        monkeypatch.setattr(Record, "__setitem__", counted_setitem)
        monkeypatch.setattr(AutoList, "__getitem__", counted_getitem)
        return calls

    def _check(self, census, out, frames):
        elements = sum(
            len(out[name]) for name in ("member_list", "src_list", "sink_list")
        )
        assert elements > self.MEMBERS  # the role lists are populated
        assert census == {"setitem": 0, "getitem": elements}
        for name in ("member_list", "src_list", "sink_list"):
            assert type(out[name]) is list
        # every freeze closure is called `freeze`: the record's own call
        # is the only one, its flat elements get none
        assert frames.count("freeze") == 1

    @staticmethod
    def _frames(fn):
        """Run *fn*; the names of the Python functions entered meanwhile."""
        import sys

        names = []

        def profiler(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return result, names

    def test_staged_morph(self, census):
        xform = Transformation(V2_TO_V1_TRANSFORM, validate_output=False)
        incoming = response_v2(self.MEMBERS)
        census.update(setitem=0, getitem=0)  # building the input is not the morph
        out, frames = self._frames(lambda: xform.apply(incoming))
        self._check(census, out, frames)

    def test_fused_morph(self, census):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        got = []
        receiver = MorphReceiver(registry, use_fusion=True)
        receiver.register_handler(RESPONSE_V1, got.append)
        wire = PBIOContext(registry).encode(
            RESPONSE_V2, response_v2(self.MEMBERS)
        )
        receiver.process(wire)  # plans and compiles the route
        assert receiver.route_for(RESPONSE_V2).fused is not None
        census.update(setitem=0, getitem=0)
        got.clear()
        _, frames = self._frames(lambda: receiver.process(wire))
        self._check(census, got[0], frames)


class TestTransformChain:
    def test_two_hop_chain(self):
        chain = build_chain([V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM])
        assert chain.source == RESPONSE_V2
        assert chain.target == RESPONSE_V0
        assert len(chain) == 2
        incoming = response_v2(3)
        out = chain.apply(incoming)
        assert out["member_count"] == 3
        assert set(out.keys()) == {"channel_id", "member_count", "member_list"}
        assert out["member_list"][0]["info"] == incoming["member_list"][0]["info"]

    def test_roundtrip_v1_v2_v1_preserves_information(self):
        v1_rec = response_v1_from_v2(response_v2(4))
        forward = Transformation(V1_TO_V2_TRANSFORM)
        backward = Transformation(V2_TO_V1_TRANSFORM)
        assert records_equal(backward.apply(forward.apply(v1_rec)), v1_rec)

    def test_empty_chain_rejected(self):
        with pytest.raises(TransformError):
            TransformChain([])

    def test_non_contiguous_chain_rejected(self):
        with pytest.raises(TransformError, match="contiguous"):
            TransformChain(
                [Transformation(V2_TO_V1_TRANSFORM),
                 Transformation(V2_TO_V1_TRANSFORM)]
            )
