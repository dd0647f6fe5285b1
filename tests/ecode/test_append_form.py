"""The append form against a fixed-length output array.

A transform's output array of flat records is grown by the typed
back-end, and built whole and appended where it starts empty and the
program fills it densely.  A fixed-length output array does not start
empty — ``growable_record`` hands it over holding its ``fixed_length``
elements — so an append would land after them.  These programs fill
the same array fixed-length and variable-length, and every engine of
``check_ecode_records`` must agree with the interpreter on both.
"""

from __future__ import annotations

import pytest

from repro.check.oracles import check_ecode_records
from repro.ecode.analyze import append_runs, stores
from repro.ecode.parser import parse
from repro.echo.protocol import V1_TO_V2_CODE, V2_TO_V1_CODE
from repro.morph.transform import Transformation
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import TransformSpec

ROW = IOFormat("Row", [IOField("a", "integer"), IOField("b", "integer")])


def table(version, rows):
    return IOFormat(
        "Table",
        [IOField("n", "integer"), IOField("rows", "complex", subformat=ROW,
                                          array=rows)],
        version=version,
    )


SOURCE = table("2.0", ArraySpec(length_field="n"))
TARGETS = {
    "fixed": table("1.0", ArraySpec(fixed_length=3)),
    "variable": table("1.0", ArraySpec(length_field="n")),
}

PROGRAMS = {
    "loop variable": """
        int i;
        for (i = 0; i < new.n; i++) old.rows[i].a = new.rows[i].a;
    """,
    "conditional cursor": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            if (new.rows[i].b > 0) {
                old.rows[k].a = new.rows[i].a;
                k++;
            }
        }
        old.n = k;
    """,
}


def source_record(members):
    return Record(n=members, rows=[
        Record(a=10 + i, b=(-1) ** i) for i in range(members)
    ])


@pytest.mark.parametrize("members", [0, 2, 5])
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_every_engine_agrees_with_the_interpreter(program, target, members):
    findings = check_ecode_records(
        SOURCE, TARGETS[target], PROGRAMS[program], source_record(members)
    )
    assert findings == []


@pytest.mark.parametrize("program", PROGRAMS)
def test_only_the_array_that_starts_empty_is_appended(program):
    def generated(target):
        spec = TransformSpec(SOURCE, TARGETS[target], PROGRAMS[program])
        return Transformation(spec).procedure.python_source

    assert "_lget(" in generated("fixed")
    assert "_lget(" not in generated("variable")
    out = Transformation(
        TransformSpec(SOURCE, TARGETS["fixed"], PROGRAMS[program])
    ).apply(source_record(2))
    assert len(out["rows"]) == 3  # written in place, not after the three


def dense(code, arrays):
    program = parse(code)
    return append_runs(program, arrays, stores(program.body))


def test_figure_5_fills_its_three_lists_densely():
    arrays = {("old", name) for name in ("member_list", "src_list", "sink_list")}
    assert set(dense(V2_TO_V1_CODE, arrays)) == arrays
    # the forward transform writes each element in two places: its run
    # and the flag loops after it
    assert dense(V1_TO_V2_CODE, {("old", "member_list")}) == {}


@pytest.mark.parametrize("code", [
    "int old; int i; for (i = 0; i < 2; i++) old.rows[i].a = i;",  # shadowed
    "int i; for (i = 0; i < 2; i++) old.rows[i].a = i; old.n = strlen(old);",
])
def test_a_parameter_that_leaves_field_access_is_not_accounted_for(code):
    assert dense(code, {("old", "rows")}) == {}
    filled = code.replace("int old; ", "").replace(" old.n = strlen(old);", "")
    assert list(dense(filled, {("old", "rows")})) == [("old", "rows")]
