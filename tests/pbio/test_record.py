"""Unit tests for Record: attribute access, conversion, equality."""

from enum import IntEnum

import pytest

from repro.ecode.runtime import AutoList
from repro.pbio.codegen import make_decoder
from repro.pbio.encode import encode_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, make_record, records_equal


class TestAttributeAccess:
    def test_read_write_delete(self):
        rec = Record(a=1)
        assert rec.a == 1
        rec.b = 2
        assert rec["b"] == 2
        del rec.a
        assert "a" not in rec

    def test_missing_attribute_raises_attributeerror(self):
        rec = Record()
        with pytest.raises(AttributeError):
            _ = rec.nothing
        assert not hasattr(rec, "nothing")

    def test_delete_missing_raises(self):
        with pytest.raises(AttributeError):
            del Record().nothing

    def test_dict_methods_shadow_fields(self):
        # documented caveat: subscripting is the safe access path
        rec = Record({"items": [1, 2]})
        assert callable(rec.items)
        assert rec["items"] == [1, 2]


class TestConversion:
    def test_nested_dicts_become_records(self):
        rec = Record(inner={"x": 1}, many=[{"y": 2}, {"y": 3}])
        assert isinstance(rec.inner, Record)
        assert isinstance(rec.many[0], Record)
        assert rec.many[1].y == 3

    def test_tuples_become_lists(self):
        rec = Record(xs=(1, 2, 3))
        assert rec.xs == [1, 2, 3]
        assert isinstance(rec.xs, list)

    def test_setitem_converts(self):
        rec = Record()
        rec["inner"] = {"x": 1}
        assert isinstance(rec.inner, Record)

    def test_list_subclass_preserved(self):
        auto = AutoList(lambda: 0)
        rec = Record()
        rec["xs"] = auto
        assert rec["xs"] is auto

    def test_the_constructor_converts_only_containers(self):
        class Level(IntEnum):
            HIGH = 2

        auto = AutoList(lambda: 0)
        inner = {"x": 1}
        rec = Record(inner=inner, xs=[{"y": 2}, (3,)], ts=(1, {"z": 4}),
                     auto=auto, level=Level.HIGH, flag=True, n=1)
        assert type(rec["inner"]) is Record and rec["inner"] == inner
        assert rec["inner"] is not inner
        assert rec["xs"] == [{"y": 2}, [3]]
        assert type(rec["xs"][0]) is Record and type(rec["xs"][1]) is list
        assert rec["ts"] == [1, {"z": 4}] and type(rec["ts"][1]) is Record
        assert rec["auto"] is auto
        assert rec["level"] is Level.HIGH
        assert rec["flag"] is True and rec["n"] == 1

    def test_scalar_fast_path(self):
        rec = Record()
        rec["n"] = 5
        rec["s"] = "hi"
        rec["f"] = 2.5
        rec["b"] = True
        assert rec == {"n": 5, "s": "hi", "f": 2.5, "b": True}


class TestCopy:
    def test_copy_is_shallow(self):
        rec = Record(inner={"x": 1})
        clone = rec.copy()
        assert clone == rec
        clone.inner.x = 2
        assert rec.inner.x == 2

    def test_deepcopy_is_deep(self):
        rec = Record(inner={"x": 1}, xs=[{"y": 1}])
        clone = rec.deepcopy()
        clone.inner.x = 2
        clone.xs[0].y = 9
        assert rec.inner.x == 1
        assert rec.xs[0].y == 1


class TestTrustedRecord:
    """Generated decoders build trusted records: each record, nested ones
    too, is a plain ``Record`` whose values are what the decoder produced,
    with no ``Record.__init__`` and no ``__setitem__`` conversion."""

    ORIGINAL = {"inner": {"x": 1}, "n": 2, "items": [{"x": 2}, {"x": 3}]}

    @staticmethod
    def _decode_original():
        inner = IOFormat("Inner", [IOField("x", "integer")])
        fmt = IOFormat("Outer", [
            IOField("inner", "complex", subformat=inner),
            IOField("n", "integer"),
            IOField("items", "complex", subformat=inner,
                    array=ArraySpec(length_field="n")),
        ])
        wire = encode_record(fmt, TestTrustedRecord.ORIGINAL)
        return make_decoder(fmt), wire

    def test_builds_without_conversion(self, monkeypatch):
        decode, wire = self._decode_original()
        conversions = []
        monkeypatch.setattr(
            Record, "__init__", lambda *a, **k: conversions.append("init"))
        monkeypatch.setattr(
            Record, "__setitem__", lambda *a: conversions.append("setitem"))
        rec = decode(wire)
        assert conversions == []
        monkeypatch.undo()
        assert type(rec) is Record
        assert type(rec["inner"]) is Record
        assert type(rec["items"]) is list
        assert all(type(item) is Record for item in rec["items"])

    def test_equal_to_converted(self):
        decode, wire = self._decode_original()
        assert decode(wire) == Record(self.ORIGINAL)


class TestRecordsEqual:
    def test_dict_vs_record(self):
        assert records_equal(Record(a=1), {"a": 1})

    def test_key_set_mismatch(self):
        assert not records_equal({"a": 1}, {"a": 1, "b": 2})

    def test_list_length_mismatch(self):
        assert not records_equal({"xs": [1]}, {"xs": [1, 2]})

    def test_float_tolerance(self):
        import struct

        truncated = struct.unpack("<f", struct.pack("<f", 0.1))[0]
        assert records_equal({"f": truncated}, {"f": truncated})
        assert records_equal({"f": 1.0}, {"f": 1})
        assert not records_equal({"f": 1.0}, {"f": 2.0})

    def test_float_vs_non_numeric(self):
        assert not records_equal({"f": 1.0}, {"f": "one"})

    def test_nested(self):
        a = {"inner": {"xs": [1.0, 2.0]}}
        b = Record(inner={"xs": [1, 2]})
        assert records_equal(a, b)


class TestMakeRecord:
    def test_kwargs(self):
        assert make_record(a=1, b="x") == {"a": 1, "b": "x"}

    def test_mapping_plus_kwargs(self):
        assert make_record({"a": 1}, b=2) == {"a": 1, "b": 2}
