"""The typed back-end against the interpreter, rule by rule.

``compile_procedure(..., shapes=...)`` holds container-typed access paths
in locals and stores proven scalars straight into the dict.  Each program
here is built to go wrong if one rule of that were dropped — a held path
surviving the assignment of its index, a whole-record store, one arm of a
branch, a loop iteration; a load hoisted out of the guard that protects
it — and runs typed, untyped and interpreted to the same output, the same
error class and the same input."""

import pytest

from repro.ecode.codegen import SCALAR, Grows, compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeError
from repro.pbio.record import Record

ROW = {"a": SCALAR, "b": SCALAR}
TABLE = {"n": SCALAR, "rows": [ROW], "head": ROW, "xs": [SCALAR]}
SHAPES = {"new": TABLE, "old": TABLE}
#: ``old`` as a transform's output: its rows grow (records() builds them
#: with blank_row, which is this prototype)
GROWN = {"new": TABLE, "old": dict(TABLE, rows=Grows(ROW, {"a": 0, "b": 0}))}


def blank_row():
    return Record(a=0, b=0)


def records():
    new = Record(
        n=4,
        rows=[Record(a=i + 1, b=10 * (i + 1)) for i in range(4)],
        head=Record(a=7, b=70),
        xs=[5, 6, 7, 8],
    )
    old = Record(
        n=0, rows=AutoList(blank_row), head=blank_row(), xs=AutoList(lambda: 0)
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
}


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
