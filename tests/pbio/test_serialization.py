"""Unit + property tests for meta-data serialization (formats, transform
specs and registries round-tripping through JSON)."""

import pytest
from hypothesis import given

from repro.echo.protocol import (
    RESPONSE_V1,
    RESPONSE_V2,
    V2_TO_V1_TRANSFORM,
)
from repro.errors import FormatError
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry
from repro.pbio.serialization import (
    SCHEMA_VERSION,
    dump_registry,
    format_from_dict,
    format_to_dict,
    load_registry,
    registry_from_dict,
    registry_to_dict,
    transform_from_dict,
    transform_to_dict,
)

from tests.strategies import io_formats


class TestFormatRoundtrip:
    def test_paper_formats(self):
        for fmt in (RESPONSE_V1, RESPONSE_V2):
            clone = format_from_dict(format_to_dict(fmt))
            assert clone == fmt
            assert clone.format_id == fmt.format_id

    def test_defaults_and_importance_survive(self):
        fmt = IOFormat(
            "F",
            [
                IOField("a", "integer", default=7, importance=3.0),
                IOField("b", "string"),
            ],
        )
        clone = format_from_dict(format_to_dict(fmt))
        assert clone.field("a").default_instance() == 7
        assert clone.field("a").importance == 3.0
        assert clone.weight == fmt.weight == 4.0

    def test_arrays_survive(self):
        fmt = IOFormat(
            "F",
            [
                IOField("n", "integer"),
                IOField("xs", "float", array=ArraySpec(length_field="n")),
                IOField("fix", "char", array=ArraySpec(fixed_length=4)),
            ],
        )
        clone = format_from_dict(format_to_dict(fmt))
        assert clone == fmt

    def test_json_serializable(self):
        import json

        json.dumps(format_to_dict(RESPONSE_V2))

    @given(io_formats())
    def test_property_roundtrip(self, fmt):
        clone = format_from_dict(format_to_dict(fmt))
        assert clone == fmt
        assert clone.format_id == fmt.format_id

    @pytest.mark.parametrize(
        "bad", [{}, {"name": "F"}, {"fields": []}, {"name": "F", "fields": [{}]}]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormatError):
            format_from_dict(bad)

    @pytest.mark.parametrize("bad", [
        {"name": "x", "fields": 5},
        {"name": "x", "fields": "ab"},
        {"name": "x", "fields": [{"name": "a", "kind": "integer",
                                  "array": [1]}]},
        {"name": "x", "fields": [{"name": "a", "kind": "integer",
                                  "array": {"fixed_length": "3"}}]},
    ], ids=["fields-int", "fields-str", "array-list", "array-length-str"])
    def test_a_wrongly_typed_part_is_a_format_error(self, bad):
        """Not ``TypeError`` / ``AttributeError``: the promise is
        ``FormatError`` whatever the input."""
        with pytest.raises(FormatError):
            format_from_dict(bad)


class TestTransformRoundtrip:
    def test_paper_transform(self):
        clone = transform_from_dict(transform_to_dict(V2_TO_V1_TRANSFORM))
        assert clone == V2_TO_V1_TRANSFORM

    def test_clone_still_compiles_and_runs(self):
        from repro.bench.workloads import response_v1_from_v2, response_v2
        from repro.morph.transform import Transformation
        from repro.pbio.record import records_equal

        clone = transform_from_dict(transform_to_dict(V2_TO_V1_TRANSFORM))
        incoming = response_v2(3)
        out = Transformation(clone).apply(incoming)
        assert records_equal(out, response_v1_from_v2(incoming))

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            transform_from_dict({"source": format_to_dict(RESPONSE_V2)})


class TestRegistryRoundtrip:
    def build(self):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register(IOFormat("Loose", [IOField("x", "integer")]))
        return registry

    def test_dict_roundtrip(self):
        original = self.build()
        clone = registry_from_dict(registry_to_dict(original))
        assert {f.format_id for f in clone.formats()} == {
            f.format_id for f in original.formats()
        }
        assert len(clone.transforms_from(RESPONSE_V2)) == 1

    def test_json_roundtrip(self):
        original = self.build()
        clone = load_registry(dump_registry(original))
        assert len(clone) == len(original)
        chains = clone.transform_closure(RESPONSE_V2)
        assert chains and chains[0][-1].target == RESPONSE_V1

    def test_separated_in_time(self, tmp_path):
        """A receiver started 'later' morphs using only the snapshot file
        and the archived wire bytes — no live writer needed."""
        from repro.bench.workloads import response_v2
        from repro.morph.receiver import MorphReceiver
        from repro.pbio.context import PBIOContext

        writer_registry = self.build()
        wire = PBIOContext(writer_registry).encode(RESPONSE_V2, response_v2(2))
        snapshot = tmp_path / "metadata.json"
        snapshot.write_text(dump_registry(writer_registry))
        # ... the writer process is long gone ...
        revived = load_registry(snapshot.read_text())
        receiver = MorphReceiver(revived)
        got = []
        receiver.register_handler(RESPONSE_V1, got.append)
        receiver.process(wire)
        assert got[0]["member_count"] == 2

    def test_unsupported_schema_version(self):
        data = registry_to_dict(self.build())
        data["schema_version"] = 99
        with pytest.raises(FormatError, match="schema version"):
            registry_from_dict(data)

    def test_invalid_json(self):
        with pytest.raises(FormatError, match="JSON"):
            load_registry("{nope")

    @pytest.mark.parametrize("text", [
        "[]", "5", '"x"', "null",
        '{"schema_version": 1, "formats": 5}',
        '{"schema_version": 1, "transforms": {}}',
    ])
    def test_json_that_is_not_a_snapshot_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            load_registry(text)

    def test_schema_version_constant(self):
        assert registry_to_dict(self.build())["schema_version"] == SCHEMA_VERSION
