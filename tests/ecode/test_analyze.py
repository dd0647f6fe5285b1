"""``analyze.writes_param``: may a transform change its input record?
``analyze.wire_projection``: does it only copy fields verbatim?

The receiver asks the first before it hands several readers of one
event the same decoded record (``MorphReceiver.process(data, shared)``):
a false "no" would let one reader's transform change what the others
deliver, so everything the analysis cannot account for answers "yes".
A fabric owner asks the second before it cuts a step's output wire out
of its input's instead of running it: a false "yes" would deliver bytes
the step would not have written, so anything computed, defaulted,
conditional or partial answers "no".
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import revision
from repro.ecode.analyze import wire_projection, writes_param
from repro.ecode.parser import parse
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_CODE,
    V1_TO_V2_CODE,
    V2_TO_V1_CODE,
)
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat


@pytest.mark.parametrize("code", [
    "new.a = 1;",                       # field store
    "new.a += old.a;",                  # compound store
    "new.list[2] = 1;",                 # indexed store
    "new.list[old.n].x = old.a;",       # store below an index
    "new.a++;",
    "--new.list[0].x;",
    "old.a = (new.a = 2);",             # a store nested in an expression
    "old.a = strlen(new);",             # escapes into a call
    "new = old;",                       # leaves field-access-base position
    "int i; for (i = 0; i < 2; i++) { if (old.a) { new.a = i; } }",
])
def test_a_program_that_may_write_its_input(code):
    assert writes_param(parse(code), "new") is True


@pytest.mark.parametrize("code", [
    V2_TO_V1_CODE,                      # the paper's Figure 5
    V1_TO_V0_CODE,
    V1_TO_V2_CODE,
    "old.a = new.list[new.n].x;",       # the input indexes itself: a read
    "old.a = abs(new.a) + strlen(new.s);",
    "int news = new.a; news++; old.a = news;",  # a local, not the input
    "old.sub = new.sub; old.sub.x = 3;",        # stores copy: old's own
])
def test_a_program_that_only_reads_its_input(code):
    program = parse(code)
    assert writes_param(program, "new") is False
    assert writes_param(program, "old") is True


def test_a_shadowed_parameter_is_not_accounted_for():
    # the checker rejects this program; the analysis must not rely on it
    assert writes_param(parse("{ int new = 0; old.a = new; }"), "new") is True


def test_no_ast_means_yes():
    assert writes_param(None, "new") is True


# ---------------------------------------------------------------------------
# wire_projection
# ---------------------------------------------------------------------------

#: benchmarks/e2e's evolving revision and its step back to v2.0
EXT, EXT_TO_V2 = revision(7)
ROW = IOFormat("Row", [IOField("x", "integer"), IOField("y", "string")])
WIDE = IOFormat("T", [
    IOField("a", "integer"), IOField("s", "string"), IOField("n", "integer"),
    IOField("rows", "complex", subformat=ROW,
            array=ArraySpec(length_field="n")),
    IOField("pair", "integer", array=ArraySpec(fixed_length=2)),
    IOField("extra", "integer"),
], version="1.0")
NARROW = IOFormat("T", [field for field in WIDE.fields
                        if field.name != "extra"], version="0.0")
COPY = """
int i;
int j = 0;
old.a = new.a;
old.s = new.s;
old.n = new.n;
for (i = 0; i < new.n; i++) {
    old.rows[i].x = new.rows[i].x;
    old.rows[i].y = new.rows[i].y;
}
for (j = 0; j < 2; j++) {
    old.pair[j] = new.pair[j];
}
"""

#: the same copies, the loops first and the members the other way round
REORDERED = """
int j;
for (j = 0; j < 2; j++) old.pair[j] = new.pair[j];
int i;
for (i = 0; i < new.n; i++) {
    old.rows[i].y = new.rows[i].y;
    old.rows[i].x = new.rows[i].x;
}
old.n = new.n;
old.s = new.s;
old.a = new.a;
"""


@pytest.mark.parametrize("source, target, code", [
    (RESPONSE_V1, RESPONSE_V0, V1_TO_V0_CODE),
    (EXT, RESPONSE_V2, EXT_TO_V2.code),
    (WIDE, NARROW, COPY),
    (WIDE, NARROW, REORDERED),
], ids=["v1-to-v0", "revision-to-v2", "flat", "reordered"])
def test_a_projection(source, target, code):
    assert wire_projection(parse(code), source, target) is True


REFUSED = {
    "v2-to-v1": (RESPONSE_V2, RESPONSE_V1, V2_TO_V1_CODE),
    "v1-to-v2": (RESPONSE_V1, RESPONSE_V2, V1_TO_V2_CODE),
    "computed": COPY.replace("old.a = new.a;", "old.a = new.a + 1;"),
    "renamed": COPY.replace("old.a = new.a;", "old.a = new.extra;"),
    "defaulted": COPY.replace("old.s = new.s;", ""),
    "a member defaulted": COPY.replace("old.rows[i].y = new.rows[i].y;", ""),
    "stored twice": COPY.replace("old.a = new.a;", "old.a = new.a;\n" * 2),
    "conditional": COPY.replace(
        "old.s = new.s;", "if (new.a) { old.s = new.s; }"),
    "a conditional member": COPY.replace(
        "old.rows[i].y = new.rows[i].y;",
        "if (i > 0) { old.rows[i].y = new.rows[i].y; }"),
    "a partial array": COPY.replace("i < new.n;", "i < new.n - 1;"),
    "a fixed array cut short": COPY.replace("j < 2;", "j < 1;"),
    "another count": COPY.replace("i < new.n;", "i < new.a;"),
    "a cursor moved inside": COPY.replace(
        "old.rows[i].x = new.rows[i].x;", "old.rows[i].x = new.rows[i].x;\ni++;"),
    "a loop that breaks": COPY.replace(
        "old.rows[i].y = new.rows[i].y;",
        "old.rows[i].y = new.rows[i].y;\nbreak;"),
    "another element": COPY.replace("new.rows[i].y", "new.rows[0].y"),
    "a computed local": COPY.replace("int j = 0;", "int j = new.a / 0;"),
    "a call": COPY.replace("old.s = new.s;", "old.s = strcat(new.s, \"\");"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_not_a_projection(case):
    source, target, code = (
        REFUSED[case] if isinstance(REFUSED[case], tuple)
        else (WIDE, NARROW, REFUSED[case]))
    assert wire_projection(parse(code), source, target) is False


def test_a_field_declared_otherwise_is_not_projected():
    wider = IOFormat("T", [IOField("a", "integer", 8)] + list(NARROW.fields[1:]),
                     version="0.1")
    assert wire_projection(parse(COPY), WIDE, wider) is False
