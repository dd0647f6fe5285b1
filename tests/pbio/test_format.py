"""Unit tests for IOFormat: construction rules, weight, fingerprints,
records and validation."""

import pytest

from repro.errors import FormatError
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec


def point():
    return IOFormat("Point", [IOField("x", "integer"), IOField("y", "integer")])


def nested():
    inner = IOFormat("Inner", [IOField("a", "integer"), IOField("b", "string")])
    return IOFormat(
        "Outer",
        [
            IOField("n", "integer"),
            IOField("inners", "complex", subformat=inner,
                    array=ArraySpec(length_field="n")),
            IOField("tail", "float"),
        ],
    )


class TestConstruction:
    def test_requires_fields(self):
        with pytest.raises(FormatError):
            IOFormat("Empty", [])

    def test_requires_name(self):
        with pytest.raises(FormatError):
            IOFormat("", [IOField("x", "integer")])

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(FormatError):
            IOFormat("F", [IOField("x", "integer"), IOField("x", "float")])

    def test_variable_array_requires_count_field(self):
        with pytest.raises(FormatError, match="missing field"):
            IOFormat(
                "F",
                [IOField("xs", "integer", array=ArraySpec(length_field="n"))],
            )

    def test_count_field_must_precede_array(self):
        with pytest.raises(FormatError, match="must precede"):
            IOFormat(
                "F",
                [
                    IOField("xs", "integer", array=ArraySpec(length_field="n")),
                    IOField("n", "integer"),
                ],
            )

    def test_count_field_must_be_integer(self):
        with pytest.raises(FormatError, match="integer kind"):
            IOFormat(
                "F",
                [
                    IOField("n", "float"),
                    IOField("xs", "integer", array=ArraySpec(length_field="n")),
                ],
            )

    def test_building_walks_no_field_signature(self, monkeypatch):
        """Counted arrays are checked against their counters by declared
        position, not by comparing ``IOField``s (``__eq__`` walks two
        signatures): a fetched declaration costs none."""
        from repro.echo.protocol import RESPONSE_V1
        from repro.pbio import serialization

        description = serialization.format_to_dict(RESPONSE_V1)
        monkeypatch.setattr(serialization, "_declarations", {})
        walks = []
        signature = IOField.signature
        monkeypatch.setattr(
            IOField, "signature",
            lambda field: walks.append(field) or signature(field),
        )
        built = serialization.format_from_dict(description)
        monkeypatch.undo()
        assert walks == []
        assert built == RESPONSE_V1 and built is not RESPONSE_V1


class TestLookup:
    def test_field_lookup(self):
        fmt = point()
        assert fmt.field("x").name == "x"
        assert fmt.get_field("nope") is None
        with pytest.raises(FormatError):
            fmt.field("nope")

    def test_contains_and_len_and_iter(self):
        fmt = point()
        assert "x" in fmt and "z" not in fmt
        assert len(fmt) == 2
        assert [f.name for f in fmt] == ["x", "y"]

    def test_field_names(self):
        assert nested().field_names() == ["n", "inners", "tail"]

    def test_basic_and_complex_partition(self):
        fmt = nested()
        assert [f.name for f in fmt.basic_fields()] == ["n", "tail"]
        assert [f.name for f in fmt.complex_fields()] == ["inners"]


class TestWeight:
    def test_flat_weight_counts_basic_fields(self):
        assert point().weight == 2

    def test_weight_recurses_into_complex(self):
        # n + (a, b) + tail; array-ness does not multiply
        assert nested().weight == 4

    def test_weight_of_deep_nesting(self):
        leaf = IOFormat("L", [IOField("v", "integer")])
        mid = IOFormat("M", [IOField("l", "complex", subformat=leaf),
                             IOField("w", "float")])
        top = IOFormat("T", [IOField("m", "complex", subformat=mid)])
        assert top.weight == 2


class TestBasicFieldPaths:
    def test_paths(self):
        paths = list(nested().basic_field_paths())
        assert ("n",) in paths
        assert ("inners", "a") in paths
        assert ("inners", "b") in paths
        assert ("tail",) in paths
        assert len(paths) == 4


class TestFingerprint:
    def test_identical_declarations_share_id(self):
        assert point().format_id == point().format_id

    def test_version_changes_id(self):
        a = IOFormat("F", [IOField("x", "integer")], version="1.0")
        b = IOFormat("F", [IOField("x", "integer")], version="2.0")
        assert a.format_id != b.format_id

    def test_field_order_changes_id(self):
        a = IOFormat("F", [IOField("x", "integer"), IOField("y", "integer")])
        b = IOFormat("F", [IOField("y", "integer"), IOField("x", "integer")])
        assert a.format_id != b.format_id

    def test_equality_is_structural(self):
        assert point() == point()
        assert hash(point()) == hash(point())

    def test_a_format_is_walked_once_however_often_it_is_looked_up(
        self, monkeypatch
    ):
        """Counted, not timed: ``signature()`` rebuilds a recursive tuple
        of every field, and hashing, comparing with itself or with a
        format of another hash, and the registry's lookups must not pay
        for it again."""
        fmt, other = nested(), point()
        calls = []
        signature = IOFormat.signature

        def counted(self):
            calls.append(id(self))
            return signature(self)

        monkeypatch.setattr(IOFormat, "signature", counted)
        registry = FormatRegistry()
        registry.register(fmt)
        registry.register(other)
        spec = TransformSpec(fmt, other, "old.x = new.n;")
        table, members = {fmt: 1, other: 2}, {fmt, other}
        for _ in range(1000):
            assert table[fmt] == 1 and fmt in members
            assert fmt == fmt and fmt != other
            assert fmt in registry and registry.register(fmt) == fmt.format_id
            assert registry.lookup_id(fmt.format_id) is fmt
            assert hash(spec) == hash(spec)
        # once per instance, the nested one through its parent
        assert sorted(calls) == sorted(
            {id(fmt), id(other), id(fmt.field("inners").subformat)}
        )


class TestRecords:
    def test_default_record(self):
        rec = nested().default_record()
        assert rec == {"n": 0, "inners": [], "tail": 0.0}

    def test_make_record_overrides(self):
        rec = point().make_record(x=5)
        assert rec == {"x": 5, "y": 0}

    def test_make_record_rejects_unknown(self):
        with pytest.raises(FormatError):
            point().make_record(z=1)


class TestValidation:
    def test_valid_record_passes(self):
        fmt = nested()
        fmt.validate_record(
            fmt.make_record(n=1, inners=[{"a": 1, "b": "hi"}], tail=1.5)
        )

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing field"):
            point().validate_record({"x": 1})

    def test_count_mismatch(self):
        fmt = nested()
        rec = fmt.make_record(n=2, inners=[{"a": 1, "b": ""}])
        with pytest.raises(FormatError, match="n == 2"):
            fmt.validate_record(rec)

    def test_array_must_be_list(self):
        fmt = nested()
        rec = fmt.make_record()
        rec["inners"] = "not a list"
        with pytest.raises(FormatError, match="must be a list"):
            fmt.validate_record(rec)

    def test_fixed_array_length_enforced(self):
        fmt = IOFormat("F", [IOField("xs", "integer", array=ArraySpec(fixed_length=2))])
        with pytest.raises(FormatError, match="exactly 2"):
            fmt.validate_record({"xs": [1]})

    def test_bad_scalar_reported_with_path(self):
        fmt = nested()
        rec = fmt.make_record(n=1, inners=[{"a": "xx", "b": ""}])
        with pytest.raises(FormatError, match="inners.a"):
            fmt.validate_record(rec)

    def test_complex_field_must_hold_records(self):
        fmt = nested()
        rec = fmt.make_record(n=1, inners=[42])
        with pytest.raises(FormatError, match="must hold records"):
            fmt.validate_record(rec)


class TestDescribe:
    def test_describe_mentions_every_field(self):
        text = nested().describe()
        for name in ("Outer", "n", "inners", "tail", "Inner", "a", "b"):
            assert name in text
