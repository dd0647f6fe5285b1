"""``analyze.writes_param``: may a transform change its input record?

The receiver asks before it hands several readers of one event the same
decoded record (``MorphReceiver.process(data, shared)``): a false
"no" would let one reader's transform change what the others deliver,
so everything the analysis cannot account for answers "yes".
"""

from __future__ import annotations

import pytest

from repro.ecode.analyze import writes_param
from repro.ecode.parser import parse
from repro.echo.protocol import V1_TO_V0_CODE, V1_TO_V2_CODE, V2_TO_V1_CODE


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
