"""Tests for importance-weighted diff / MaxMatch (the paper's future-work
refinement: "the ability to weight different fields and sub-fields based
on some measure of importance").  Importance is part of the one MaxMatch
score; at the default of 1.0 that score is Algorithm 1's field count."""

import math

import pytest
from hypothesis import given

from repro.errors import FormatError, NoMatchError
from repro.morph.diff import diff, mismatch_ratio
from repro.morph.maxmatch import max_match, score_pair
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry
from repro.pbio.serialization import format_from_dict, format_to_dict

from tests.strategies import io_formats


def fmt(name, fields, version=None):
    return IOFormat(name, fields, version=version)


def count_weight(f):
    """Algorithm 1's ``W_f``: basic fields, recursively, importance aside."""
    return sum(1 if field.is_basic else count_weight(field.subformat)
               for field in f.fields)


def count_diff(f1, f2):
    """Algorithm 1's ``diff`` as the paper states it: a count of the basic
    fields of *f1* missing from *f2*, importance aside."""
    total = 0
    for field in f1.fields:
        other = f2.get_field(field.name)
        if field.is_basic:
            total += other is None or not field.matches(other)
        elif (other is None or not other.is_complex
              or other.is_array != field.is_array):
            total += count_weight(field.subformat)
        else:
            total += count_diff(field.subformat, other.subformat)
    return total


class TestWeightedWeight:
    def test_defaults_match_unweighted(self):
        f = fmt("F", [IOField("a", "integer"), IOField("b", "string")])
        assert f.weight == count_weight(f) == 2

    def test_importance_sums(self):
        f = fmt("F", [IOField("a", "integer", importance=3.0),
                      IOField("b", "string", importance=0.5)])
        assert f.weight == 3.5

    def test_complex_importance_scales_subtree(self):
        inner = fmt("I", [IOField("x", "integer"), IOField("y", "integer")])
        f = fmt("F", [IOField("sub", "complex", subformat=inner, importance=2.0)])
        assert f.weight == 4.0

    def test_negative_importance_rejected(self):
        with pytest.raises(FormatError, match="importance"):
            IOField("a", "integer", importance=-1)

    def test_importance_not_part_of_identity(self):
        a = fmt("F", [IOField("x", "integer", importance=1.0)])
        b = fmt("F", [IOField("x", "integer", importance=9.0)])
        assert a == b
        assert a.format_id == b.format_id


#: what ``IOField(importance=...)`` must refuse: not finite, or not a number
BAD_IMPORTANCES = [math.nan, math.inf, "3", None, True]


class TestImportanceValidation:
    @pytest.mark.parametrize("importance", BAD_IMPORTANCES, ids=repr)
    def test_rejected_directly(self, importance):
        with pytest.raises(FormatError, match="importance"):
            IOField("a", "integer", importance=importance)

    @pytest.mark.parametrize("importance", BAD_IMPORTANCES, ids=repr)
    def test_rejected_through_format_from_dict(self, importance):
        data = format_to_dict(fmt("F", [IOField("a", "integer")]))
        data["fields"][0]["importance"] = importance
        with pytest.raises(FormatError, match="importance"):
            format_from_dict(data)

    def test_overflowing_importance_mass_is_rejected(self):
        # each importance is finite, but their mass is not: a reader of
        # infinite weight would score Mr 0, and 0 x inf above it NaN
        huge = [IOField("a", "integer", importance=1e308),
                IOField("b", "integer", importance=1e308)]
        with pytest.raises(FormatError, match="importance mass"):
            fmt("Huge", huge)
        data = format_to_dict(fmt("Huge", [IOField("a", "integer"),
                                           IOField("b", "integer")]))
        for field in data["fields"]:
            field["importance"] = 1e308
        with pytest.raises(FormatError, match="importance mass"):
            format_from_dict(data)


class TestWeightedDiff:
    def test_missing_field_contributes_importance(self):
        a = fmt("F", [IOField("critical", "integer", importance=10.0),
                      IOField("shared", "integer")])
        b = fmt("F", [IOField("shared", "integer")])
        assert diff(a, b) == 10.0
        assert count_diff(a, b) == 1  # Algorithm 1's count sees one field

    def test_missing_complex_scales(self):
        inner = fmt("I", [IOField("x", "integer"), IOField("y", "integer")])
        a = fmt("F", [IOField("sub", "complex", subformat=inner, importance=3.0)])
        b = fmt("F", [IOField("other", "integer")])
        assert diff(a, b) == 6.0

    def test_nested_recursion_scales(self):
        inner_a = fmt("I", [IOField("x", "integer", importance=4.0),
                            IOField("y", "integer")])
        inner_b = fmt("I", [IOField("y", "integer")])
        a = fmt("F", [IOField("sub", "complex", subformat=inner_a, importance=0.5)])
        b = fmt("F", [IOField("sub", "complex", subformat=inner_b)])
        assert diff(a, b) == 2.0  # 0.5 * 4.0

    def test_weighted_ratio(self):
        a = fmt("F", [IOField("vital", "integer", importance=9.0),
                      IOField("meh", "string", importance=1.0)])
        b = fmt("F", [IOField("meh", "string")])
        # b is missing 'vital': 9 of a's 10 importance mass
        assert mismatch_ratio(b, a) == pytest.approx(0.9)

    @pytest.mark.parametrize("heavy_first", [True, False])
    def test_each_declaration_gets_its_own_score(self, heavy_first):
        # two declarations of one format (one wire id, equal, same hash)
        # that differ only in importance: neither may be scored as the other
        heavy = fmt("F", [IOField("vital", "integer", importance=9.0),
                          IOField("meh", "string")])
        light = fmt("F", [IOField("vital", "integer", importance=1.0),
                          IOField("meh", "string")])
        other = fmt("F", [IOField("meh", "string")])
        assert heavy == light and hash(heavy) == hash(light)
        expected = {id(heavy): (9.0, 0.9), id(light): (1.0, 0.5)}
        order = [heavy, light] if heavy_first else [light, heavy]
        for f in order + order:
            ratio = mismatch_ratio(other, f)
            assert (diff(f, other), ratio) == pytest.approx(expected[id(f)])
            assert 0.0 <= ratio <= 1.0

    def test_all_zero_importance_target(self):
        zero = fmt("F", [IOField("a", "integer", importance=0)])
        assert zero.weight == 0.0
        assert mismatch_ratio(fmt("F", [IOField("b", "integer")]), zero) == 0.0

    @given(io_formats(), io_formats())
    def test_default_importance_reduces_to_unweighted(self, f1, f2):
        assert diff(f1, f2) == count_diff(f1, f2)
        assert f2.weight == count_weight(f2)
        assert mismatch_ratio(f1, f2) == pytest.approx(
            count_diff(f2, f1) / count_weight(f2)
        )


class TestWeightedMaxMatch:
    def build(self, important=True):
        # the reader wants 'payload' badly and barely cares about 'trace'
        # (with important=False: both at the default importance)
        reader = fmt(
            "M",
            [
                IOField("payload", "string", importance=10.0 if important else 1.0),
                IOField("trace", "string", importance=0.1 if important else 1.0),
            ],
            version="reader",
        )
        # candidate A supplies payload but not trace
        cand_a = fmt("M", [IOField("payload", "string"),
                           IOField("extra", "integer")], version="a")
        # candidate B supplies trace but not payload
        cand_b = fmt("M", [IOField("trace", "string"),
                           IOField("extra", "integer")], version="b")
        return reader, cand_a, cand_b

    def test_unweighted_cannot_tell_the_candidates_apart(self):
        reader, cand_a, cand_b = self.build(important=False)
        score_a = score_pair(cand_a, reader)
        score_b = score_pair(cand_b, reader)
        assert score_a.sort_key() == score_b.sort_key()

    def test_weighted_prefers_the_important_field(self):
        reader, cand_a, cand_b = self.build()
        best = max_match([cand_b, cand_a], [reader], 100, 1.0)
        assert best is not None
        assert best.f1 is cand_a  # supplies the importance-10 field

    def test_weighted_threshold_bounds_importance_mass(self):
        reader, cand_a, cand_b = self.build()
        # cand_b misses 10.0 of reader's 10.1 mass: Mr ~ 0.99
        assert max_match(cand_b, [reader], 100, 0.5) is None
        # cand_a misses only 0.1 of 10.1: Mr ~ 0.0099
        assert max_match(cand_a, [reader], 100, 0.5) is not None


class TestWeightedReceiver:
    def test_weighted_receiver_accepts_what_matters(self):
        def reader(payload, trace):
            return fmt(
                "M",
                [
                    IOField("payload", "string", importance=payload),
                    IOField("trace", "string", importance=trace),
                ],
                version="reader",
            )

        sender_fmt = fmt("M", [IOField("payload", "string")], version="new")
        registry = FormatRegistry()
        sender = PBIOContext(registry)
        wire = sender.encode(sender_fmt, {"payload": "the data"})

        strict_by_count = MorphReceiver(registry, mismatch_threshold=0.3)
        strict_by_count.register_handler(reader(1.0, 1.0), lambda rec: rec)
        # default importances: missing 1 of 2 fields -> Mr 0.5 > 0.3 -> reject
        assert strict_by_count.process(wire) is None
        assert strict_by_count.dead_letters[-1].stage == "no_match"
        assert isinstance(strict_by_count.last_error, NoMatchError)

        weighted = MorphReceiver(registry, mismatch_threshold=0.3)
        weighted.register_handler(reader(10.0, 0.1), lambda rec: rec)
        out = weighted.process(wire)
        assert out == {"payload": "the data", "trace": ""}
