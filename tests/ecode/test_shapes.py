"""The typed back-end against the interpreter, rule by rule.

``compile_procedure(..., shapes=...)`` holds container-typed access paths
in locals and stores proven scalars straight into the dict.  Each program
here is built to go wrong if one rule of that were dropped — a held path
surviving the assignment of its index, a whole-record store, one arm of a
branch, a loop iteration; a load hoisted out of the guard that protects
it — and runs typed, untyped and interpreted to the same output, the same
error class and the same input.  The programs that fill an output array
almost densely — each breaking one condition of the append form — must
keep the growth form, and agree all the same."""

import pytest

from repro.bench.workloads import response_v2_of_size
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.ecode.codegen import SCALAR, Grows, compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeError
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import Transformation
from repro.pbio.context import PBIOContext
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry

ROW = {"a": SCALAR, "b": SCALAR}
TABLE = {"n": SCALAR, "rows": [ROW], "head": ROW, "xs": [SCALAR], "trio": [ROW]}
SHAPES = {"new": TABLE, "old": TABLE}
#: ``old`` as a transform's output: its arrays grow (records() builds
#: their elements with blank_row, which is this prototype) — ``rows``
#: from empty, ``trio`` from three elements, as a fixed-length array does
GROWN = {"new": TABLE, "old": dict(
    TABLE,
    rows=Grows(ROW, {"a": 0, "b": 0}, empty=True),
    trio=Grows(ROW, {"a": 0, "b": 0}, empty=False),
)}


def blank_row():
    return Record(a=0, b=0)


def records():
    new = Record(
        n=4,
        rows=[Record(a=i + 1, b=10 * (i + 1)) for i in range(4)],
        head=Record(a=7, b=70),
        xs=[5, 6, 7, 8],
        trio=[Record(a=-i, b=-10 * i) for i in range(3)],
    )
    old = Record(
        n=0, rows=AutoList(blank_row), head=blank_row(), xs=AutoList(lambda: 0),
        trio=AutoList(blank_row, [blank_row() for _ in range(3)]),
    )
    return new, old


def run(build, source):
    new, old = records()
    try:
        result = build(source)(new, old)
    except ECodeError as exc:
        return type(exc).__name__, None, new
    return result, old, new


PROGRAMS = {
    "index assigned mid-block": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k = k + 1;
            old.rows[k].b = new.rows[i].b;
        }
        old.n = k;
    """,
    "index bumped in one arm": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            if (i % 2) k++;
            old.rows[k].b = new.rows[i].b;
        }
    """,
    "path held from before the loop": """
        int i; int k = 0;
        old.rows[k].a = 99;
        for (i = 0; i < new.n; i++) {
            old.rows[k].b = new.rows[i].b;
            k++;
        }
    """,
    "element replaced under a held path": """
        old.rows[0].a = 1;
        old.rows[0] = new.rows[2];
        old.rows[0].b = 2;
    """,
    "record replaced under a held path": """
        old.head.a = 1;
        old.head = new.head;
        old.head.b = 2;
    """,
    "array replaced under a held path": """
        old.rows[1].a = 1;
        old.rows = new.rows;
        old.rows[1].b = 2;
    """,
    "replaced in a loop, read at its head": """
        int i;
        old.head.a = 1;
        for (i = 0; i < new.n; i++) {
            old.xs[i] = old.head.a;
            old.head = new.rows[i];
        }
    """,
    "replaced in one arm of a switch": """
        old.rows[0].a = 1;
        switch (new.n) {
            case 4: old.rows[0] = new.rows[1]; break;
            default: break;
        }
        old.rows[0].b = 2;
    """,
    "guarded look-ahead": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            if (i + 1 < new.n && new.rows[i + 1].a > 2) {
                old.rows[k].a = new.rows[i + 1].a;
                k++;
            }
        }
        old.n = k;
    """,
    "ternary arms are not hoisted": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.xs[i] = i > 0 ? new.rows[i - 1].a : new.rows[i + 3].b;
        }
    """,
    "while test re-reads a record path": """
        int k = 0;
        while (old.rows[k].a == 0 && k < 3) {
            old.rows[k].a = k + 1;
            if (k == 1) { k = 0; continue; }
            k++;
        }
        old.n = k;
    """,
    "do-while continue re-tests through a path": """
        int k = 0;
        do {
            old.rows[k].b = new.rows[k].b;
            k++;
            if (k == 2) continue;
            old.rows[k].a = k;
        } while (new.rows[k].a < 4);
    """,
    "compound stores and ++ on fields": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.head.a += new.rows[i].a;
            old.head.b++;
            old.xs[i] = new.xs[i];
            old.xs[i] *= 2;
        }
        old.n = old.head.a / 2;
    """,
    "store through new": """
        new.rows[0].a = 50;
        old.rows[0] = new.rows[0];
        new.rows[0].a = 60;
        old.n = new.rows[0].a;
    """,
    "parameter reassigned": """
        old.head.a = 1;
        new = old;
        new.head.a = 2;
        old.n = new.head.a + old.head.a;
    """,
    "output parameter reassigned": """
        old.head.a = 1;
        old = new.head;
        old.a = 5;
    """,
    "a local named like a generated one": """
        int _p1 = 3; int _p2 = 4;
        old.rows[0].a = _p1;
        old.rows[1].a = _p2;
        old.n = _p1 + _p2;
    """,
    "read past the input raises alike": """
        old.rows[0].a = new.rows[9].a;
    """,
    "undeclared member raises alike": """
        old.rows[0].a = new.rows[0].zzz;
    """,
    "grown by leaps, read back": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k = k + i;
        }
        old.rows[new.n * 2].b = old.rows[k - 1].a + old.rows[1].b;
        old.n = k;
    """,
    "grown array replaced, then read past its end": """
        old.rows[0].a = 1;
        old.rows = new.rows;
        old.rows[6].b = 2;
    """,
    # filled densely: the append form
    "appended at the loop variable": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "appended at a counted cursor": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            if (new.rows[i].a % 2) {
                old.rows[k].b = new.rows[i].b;
                k++;
            }
        }
        old.n = k;
    """,
    "appended out of the prototype's order": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].b = new.rows[i].b / (5 - i);
            old.rows[i].a = new.rows[i].a;
        }
    """,
    # almost dense: one condition each breaks, the growth form stays
    "stored one past the cursor": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i + 1].a = new.rows[i].a;
            old.rows[i + 1].b = new.rows[i].b;
        }
    """,
    "element read between the run's stores": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = old.rows[i].a + new.rows[i].b;
        }
    """,
    "cursor bumped under a condition": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            old.rows[k].b = new.rows[i].b;
            if (i % 2) k++;
        }
        old.n = k;
    """,
    "loop variable written in the loop": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = new.rows[i].b;
            i++;
        }
    """,
    "counted cursor written elsewhere": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k++;
            if (i == 1) k = k + 2;
        }
        old.n = k;
    """,
    "cursor bumped ahead of the stores": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            k++;
            old.rows[k].a = new.rows[i].a;
            old.rows[k].b = new.rows[i].b;
        }
    """,
    "continue ahead of the run": """
        int i;
        for (i = 0; i < new.n; i++) {
            if (i == 1) continue;
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "cursor loop nested in another loop": """
        int i; int j;
        for (j = 0; j < 2; j++) {
            for (i = 0; i < new.n - j; i++) {
                old.rows[i].a = new.rows[i].a + j;
                old.rows[i].b = new.rows[i].b;
            }
        }
    """,
    "break between the run and its cursor's bump": """
        int i; int j; int k = 0;
        for (j = 0; j < 2; j++) {
            for (i = 0; i < new.n; i++) {
                old.rows[k].a = new.rows[i].a;
                if (i == 2) break;
                k++;
            }
        }
    """,
    "run split by an unrelated statement": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
            old.n = i;
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "one array filled by two loops": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
        }
        for (i = 0; i < 2; i++) {
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "a fixed-length target": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.trio[i].a = new.rows[i].a;
            old.trio[i].b = new.rows[i].b;
        }
    """,
    "a field written twice in the run": """
        int i;
        for (i = 0; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a / (2 - i);
            old.rows[i].a = new.rows[i].b;
        }
    """,
    "run under a condition at the loop variable": """
        int i;
        for (i = 0; i < new.n; i++) {
            if (new.rows[i].a % 2) {
                old.rows[i].a = new.rows[i].a;
                old.rows[i].b = new.rows[i].b;
            }
        }
    """,
    "cursor of the loop around the run's loop": """
        int i; int j;
        for (j = 0; j < 2; j++) {
            for (i = 0; i < new.n; i++) {
                old.rows[j].a = new.rows[i].a;
                old.rows[j].b = new.rows[i].b;
            }
        }
    """,
    "loop variable started at 1": """
        int i;
        for (i = 1; i < new.n; i++) {
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "loop variable stepping by 2": """
        int i;
        for (i = 0; i < new.n; i += 2) {
            old.rows[i].a = new.rows[i].a;
            old.rows[i].b = new.rows[i].b;
        }
    """,
    "counted cursor started at 1": """
        int i; int k = 1;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k++;
        }
    """,
    "counted cursor moved by 2": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k += 2;
        }
    """,
    "counted cursor moved down": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            k--;
        }
    """,
    "counted cursor reset in an outer loop": """
        int i; int j; int k = 0;
        for (j = 0; j < 2; j++) {
            k = 0;
            for (i = 0; i < new.n; i++) {
                old.rows[k].a = new.rows[i].a + j;
                k++;
            }
        }
    """,
    "counted cursor reset by a loop's update": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++, k = 0) {
            old.rows[k].a = new.rows[i].a;
            k++;
        }
    """,
    "counted cursor bumped by a loop's update": """
        int i; int k = 0;
        for (i = 0; i < new.n; i++) {
            old.rows[k].a = new.rows[i].a;
            for (; k < i; k++) { }
        }
    """,
}

#: the programs above that fill ``old.rows`` densely, and those that
#: break one condition of that
APPENDED = [name for name in PROGRAMS if name.startswith("appended")]
ALMOST = list(PROGRAMS)[list(PROGRAMS).index("stored one past the cursor"):]


@pytest.mark.parametrize("name", PROGRAMS)
def test_typed_untyped_and_interpreted_agree(name):
    source = PROGRAMS[name]
    reference = run(interpret_procedure, source)
    untyped = run(compile_procedure, source)
    typed = run(lambda src: compile_procedure(src, shapes=SHAPES), source)
    grown = run(lambda src: compile_procedure(src, shapes=GROWN), source)
    assert typed == reference
    assert grown == reference
    assert untyped == reference


def test_a_growing_array_grows_inline(monkeypatch):
    """The typed loads of "grown by leaps" grow ``old.rows`` themselves:
    the array's own growth is never asked for."""
    proc = compile_procedure(PROGRAMS["grown by leaps, read back"], shapes=GROWN)
    assert "_lget(" in proc.python_source
    reads = []
    monkeypatch.setattr(AutoList, "__getitem__", lambda self, index: (
        reads.append(index), list.__getitem__(self, index))[1])
    new, old = records()
    proc(new, old)
    assert reads == [] and len(old["rows"]) == 9


@pytest.mark.parametrize("name", APPENDED + ALMOST)
def test_only_a_dense_fill_takes_the_append_form(name):
    """Agreement proves nothing about a back-end that took no new path:
    a dense fill builds each element whole and appends it, and every
    program that breaks one condition of that keeps reading its elements
    back through the growth loop."""
    text = compile_procedure(PROGRAMS[name], shapes=GROWN).python_source
    if name in APPENDED:
        assert "_lget(" not in text and "while len(" not in text
        assert text.count("_upd(") == 1 and ".append\n" in text
    else:
        assert "_lget(" in text and "while len(" in text


def test_figure_5_takes_the_append_form():
    """V2->V1 and V1->V0 on the large row's event, staged and fused."""
    sources = [
        Transformation(spec).procedure.python_source
        for spec in (V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM)
    ]
    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1_TRANSFORM)
    registry.register_transform(V1_TO_V0_TRANSFORM)
    wire = PBIOContext(registry).encode(
        RESPONSE_V2, response_v2_of_size(10_000)
    )
    for reader in (RESPONSE_V1, RESPONSE_V0):
        receiver = MorphReceiver(registry, use_fusion=True)
        receiver.register_handler(reader, lambda record: None)
        receiver.process(wire)
        sources.append(receiver.route_for(RESPONSE_V2).fused.source())
    for text in sources:
        assert "_upd(_e" in text
        assert "_lget(" not in text and "while len(" not in text


def test_the_programs_above_do_reuse_paths():
    """Agreement proves nothing about a back-end that held nothing."""
    typed = compile_procedure(
        PROGRAMS["index assigned mid-block"], shapes=SHAPES
    ).python_source
    untyped = compile_procedure(PROGRAMS["index assigned mid-block"]).python_source
    assert "_set(" in typed and "_set(" not in untyped
    # new.rows and old.rows are loaded once, ahead of the body; the
    # element of old.rows twice per iteration, because k moves between
    assert typed.count("= new['rows']") == typed.count("= old['rows']") == 1
    assert typed.index("= new['rows']") < typed.index("while")
    assert "new['rows']" in untyped and "_p" not in untyped


def test_a_field_the_program_assigns_whole_is_not_loaded_ahead():
    text = compile_procedure(
        PROGRAMS["array replaced under a held path"], shapes=SHAPES
    ).python_source
    assert text.count("= old['rows']") == 2  # before the store and after it
    assert text.count("= new['rows']") == 1


def test_generated_locals_avoid_the_parameters_names():
    shapes = {"_p1": TABLE, "_p2": TABLE}
    proc = compile_procedure(
        "_p2.rows[0].a = _p1.rows[1].a;", ("_p1", "_p2"), shapes=shapes
    )
    new, old = records()
    proc(new, old)
    assert old["rows"][0]["a"] == 2
