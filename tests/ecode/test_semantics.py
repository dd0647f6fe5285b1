"""C-semantics tests executed through BOTH implementations.

Every case runs through the compiler (generated Python) and the
interpreter and must agree with the expected C result — two independent
implementations agreeing on a third-party expectation."""

import pytest

from repro.ecode.codegen import SCALAR, compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeRuntimeError
from repro.pbio.record import Record


def run_both(source, *args, params=("new", "old")):
    compiled = compile_procedure(source, params)(*args)
    interpreted = interpret_procedure(source, params)(*args)
    assert compiled == interpreted, (
        f"compiler/interpreter disagree: {compiled!r} != {interpreted!r}"
    )
    return compiled


CASES = [
    # integer division truncates toward zero (C99)
    ("return 7 / 2;", 3),
    ("return -7 / 2;", -3),
    ("return 7 / -2;", -3),
    ("return -7 / -2;", 3),
    # remainder takes the dividend's sign
    ("return 7 % 3;", 1),
    ("return -7 % 3;", -1),
    ("return 7 % -3;", 1),
    # float division
    ("return 7.0 / 2;", 3.5),
    ("return 1 / 4.0;", 0.25),
    # logical operators yield 0/1
    ("return 5 && 3;", 1),
    ("return 5 && 0;", 0),
    ("return 0 || 0;", 0),
    ("return 0 || 9;", 1),
    ("return !0;", 1),
    ("return !42;", 0),
    # comparisons
    ("return (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 5) + (5 == 5) + (6 != 6);", 3),
    # bitwise
    ("return 12 & 10;", 8),
    ("return 12 | 10;", 14),
    ("return 12 ^ 10;", 6),
    ("return ~0;", -1),
    ("return 1 << 4;", 16),
    ("return 256 >> 3;", 32),
    # precedence / associativity
    ("return 2 + 3 * 4;", 14),
    ("return (2 + 3) * 4;", 20),
    ("return 20 - 5 - 3;", 12),
    ("return 100 / 10 / 2;", 5),
    # ternary
    ("return 1 ? 10 : 20;", 10),
    ("return 0 ? 10 : 20;", 20),
    ("return 0 ? 1 : 0 ? 2 : 3;", 3),
    # unary
    ("return -(-5);", 5),
    ("return +7;", 7),
    # compound assignment
    ("int a = 10; a += 5; a -= 3; a *= 2; return a;", 24),
    ("int a = 17; a /= 5; return a;", 3),
    ("int a = -17; a /= 5; return a;", -3),
    ("int a = 17; a %= 5; return a;", 2),
    ("int a = 3; a <<= 2; return a;", 12),
    ("int a = 12; a >>= 2; return a;", 3),
    ("int a = 12; a &= 10; return a;", 8),
    ("int a = 12; a |= 3; return a;", 15),
    ("int a = 12; a ^= 10; return a;", 6),
    # inc/dec statements
    ("int a = 5; a++; ++a; a--; return a;", 6),
    # chained assignment
    ("int a; int b; int c; a = b = c = 7; return a + b + c;", 21),
    # while
    ("int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s;", 10),
    # do-while runs at least once
    ("int i = 10; int n = 0; do { n++; i++; } while (i < 5); return n;", 1),
    # for with continue: continue still runs the update (C semantics)
    ("int i; int s = 0; for (i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s;", 20),
    # break skips the update
    ("int i; for (i = 0; i < 10; i++) { if (i == 3) break; } return i;", 3),
    # continue in do-while re-tests the condition (no infinite loop)
    ("int i = 0; int s = 0; do { i++; if (i == 2) continue; s += i; } while (i < 4); return s;", 8),
    # nested loops: continue binds to the inner loop
    (
        "int i; int j; int s = 0;"
        "for (i = 0; i < 3; i++) { for (j = 0; j < 3; j++) {"
        "if (j == 1) continue; s += 10 * i + j; } } return s;",
        66,
    ),
    # break binds to the inner loop
    (
        "int i; int j; int n = 0;"
        "for (i = 0; i < 3; i++) { for (j = 0; j < 10; j++) {"
        "if (j == 2) break; n++; } } return n;",
        6,
    ),
    # uninitialized locals default to their type's zero
    ("int a; return a;", 0),
    ("double d; return d;", 0.0),
    ("char c; return strlen(c);", 0),
    # sizeof
    ("return sizeof(char) + sizeof(short) + sizeof(int) + sizeof(long);", 15),
    ("return sizeof(float) + sizeof(double);", 12),
    # builtins
    ("return abs(-9) + fabs(-1.5);", 10.5),
    ("return min(3, 7) + max(3, 7);", 10),
    ("return floor(3.9) + ceil(3.1);", 7),
    ('return atoi("42") + 1;', 43),
    ('return atof("2.5") * 2;', 5.0),
    ('return strlen("hello");', 5),
    ('return strcmp("abc", "abd");', -1),
    ('return strcmp("same", "same");', 0),
    ("return sqrt(16.0);", 4.0),
    # string concat and comparison of char values
    ('return strcat("foo", "bar");', "foobar"),
    # char literals compare with string data
    ("char c = 'x'; if (c == 'x') { return 1; } return 0;", 1),
    # empty for body
    ("int i; for (i = 0; i < 3; i++) ; return i;", 3),
    # comma in for-init and update
    ("int i; int j; int s = 0; for (i = 0, j = 10; i < j; i++, j--) s++; return s;", 5),
    # hex literals
    ("return 0xFF & 0x0F;", 15),
]


@pytest.mark.parametrize("source,expected", CASES, ids=range(len(CASES)))
def test_c_semantics(source, expected):
    result = run_both(source, None, None)
    assert result == expected
    assert type(result) is type(expected) or isinstance(expected, float)


class TestRecordInteraction:
    def test_figure5_transform_shape(self):
        source = """
        int i;
        old.total = 0;
        for (i = 0; i < new.count; i++) {
            old.doubled[i] = new.values[i] * 2;
            old.total += new.values[i];
        }
        old.count = new.count;
        """
        def fresh():
            return Record(total=0, count=0, doubled=AutoList(lambda: 0))

        new = Record(count=3, values=[1, 2, 3])
        out_compiled, out_interp = fresh(), fresh()
        compile_procedure(source)(new, out_compiled)
        interpret_procedure(source)(new, out_interp)
        assert out_compiled == out_interp
        assert out_compiled == {"total": 6, "count": 3, "doubled": [2, 4, 6]}

    def test_input_record_unmodified_unless_written(self):
        source = "old.x = new.x + 1;"
        new = Record(x=1)
        old = Record(x=0)
        run = compile_procedure(source)
        run(new, old)
        assert new == {"x": 1}
        assert old == {"x": 2}

    def test_nested_field_paths(self):
        source = "old.a.b.c = new.p.q + 1;"
        new = Record(p={"q": 41})
        old = Record(a={"b": {"c": 0}})
        compile_procedure(source)(new, old)
        assert old.a.b.c == 42


_MEMBERS = {"count": SCALAR, "member_list": [{"info": SCALAR, "ID": SCALAR}]}
_TYPED = {"new": _MEMBERS, "old": _MEMBERS}


class TestAssignmentIsByValue:
    """ECode is C: ``=`` copies structs and arrays.  The transform's
    ``new`` is the application's own record, so an alias would let a
    write to the output reach back into it."""

    ENGINES = [
        pytest.param(compile_procedure, id="compiled"),
        pytest.param(
            lambda src: compile_procedure(src, shapes=_TYPED), id="typed"
        ),
        pytest.param(interpret_procedure, id="interpreted"),
    ]

    @staticmethod
    def _records():
        new = Record(
            count=2,
            member_list=[{"info": "a", "ID": 1}, {"info": "b", "ID": 2}],
        )
        blank = lambda: Record(info="", ID=0)  # noqa: E731
        old = Record(count=0, member_list=AutoList(blank))
        return new, old

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "source",
        [
            "old.member_list[0] = new.member_list[0]; old.member_list[0].ID = 99;",
            "old.member_list = new.member_list; old.member_list[0].ID = 99;",
            "old.member_list[1] = old.member_list[0] = new.member_list[0];"
            " old.member_list[0].ID = 99; old.member_list[1].ID = 98;",
            "int m; m = new.member_list[0]; m.ID = 99; old.member_list[0] = m;",
            "int m = new.member_list[0]; m.ID = 99; old.member_list[0] = m;",
        ],
        ids=["element", "array", "chain", "local", "initialiser"],
    )
    def test_a_store_never_aliases_the_input(self, engine, source):
        new, old = self._records()
        before = new.deepcopy()
        engine(source)(new, old)
        assert new == before
        assert old["member_list"][0] == {"info": "a", "ID": 99}
        assert old["member_list"][0] is not new["member_list"][0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_chained_targets_get_a_copy_each(self, engine):
        new, old = self._records()
        engine(
            "old.member_list[1] = old.member_list[0] = new.member_list[1];"
            " old.member_list[0].ID = 7;"
        )(new, old)
        assert [m["ID"] for m in old["member_list"]] == [7, 2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_copied_array_is_not_growable(self, engine):
        new, old = self._records()
        with pytest.raises(ECodeRuntimeError):
            engine(
                "old.member_list = new.member_list; old.member_list[2].ID = 1;"
            )(new, old)

    def test_typed_scalar_stores_pay_nothing(self):
        source = "old.member_list[0].ID = new.member_list[0].ID; old.count = 2 * 3;"
        text = compile_procedure(source, shapes=_TYPED).python_source
        assert "_cp(" not in text
        # without shapes nothing proves new.member_list[0].ID scalar
        text = compile_procedure(source).python_source
        assert "= _cp(new['member_list'][0]['ID'])" in text
        assert "old['count'] = (2 * 3)" in text


class TestRuntimeErrors:
    def test_integer_division_by_zero(self):
        with pytest.raises(ECodeRuntimeError, match="division by zero"):
            compile_procedure("return 1 / 0;")(None, None)
        with pytest.raises(ECodeRuntimeError, match="division by zero"):
            interpret_procedure("return 1 / 0;")(None, None)

    def test_modulo_by_zero(self):
        with pytest.raises(ECodeRuntimeError, match="zero"):
            compile_procedure("return 1 % 0;")(None, None)

    def test_missing_field_read(self):
        with pytest.raises(ECodeRuntimeError):
            compile_procedure("return new.nothing;")(Record(), Record())
        with pytest.raises(ECodeRuntimeError):
            interpret_procedure("return new.nothing;")(Record(), Record())

    @pytest.mark.parametrize(
        "source",
        [
            "old.a = pow(10.0, 400);",
            "old.a = exp(1000.0);",
            "old.a = floor(1e308 * 10.0);",
        ],
    )
    def test_float_overflow_is_an_ecode_error_in_both_engines(self, source):
        for build in (compile_procedure, interpret_procedure):
            with pytest.raises(ECodeRuntimeError):
                build(source)(Record(), Record(a=0))

    def test_wrong_arity_call(self):
        proc = compile_procedure("return 1;")
        with pytest.raises(ECodeRuntimeError, match="argument"):
            proc(1)

    def test_index_out_of_range_on_plain_list(self):
        source = "return new.xs[5];"
        with pytest.raises(ECodeRuntimeError):
            compile_procedure(source)(Record(xs=[1]), Record())


class TestLocalArrays:
    def test_histogram_with_local_array(self):
        source = """
        int counts[4];
        int i;
        old.zeros = 0;
        for (i = 0; i < new.count; i++) {
            counts[new.values[i] % 4] += 1;
        }
        for (i = 0; i < 4; i++) {
            old.bins[i] = counts[i];
        }
        """
        from repro.ecode.runtime import AutoList

        new = Record(count=5, values=[0, 1, 1, 2, 5])
        outs = []
        for factory in (compile_procedure, interpret_procedure):
            old = Record(zeros=0, bins=AutoList(lambda: 0))
            factory(source)(new, old)
            outs.append(old)
        assert outs[0] == outs[1]
        assert outs[0]["bins"] == [1, 3, 1, 0]

    def test_char_array_defaults(self):
        assert run_both("char names[3]; return strlen(names[2]);", None, None) == 0

    def test_double_array_defaults(self):
        assert run_both("double xs[2]; return xs[0] + xs[1];", None, None) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ECodeRuntimeError):
            compile_procedure("int xs[2]; return xs[5];")(None, None)

    def test_zero_length_array(self):
        assert run_both("int xs[0]; return 1;", None, None) == 1

    def test_array_initializer_rejected(self):
        from repro.errors import ECodeSyntaxError

        with pytest.raises(ECodeSyntaxError, match="initializer"):
            compile_procedure("int xs[2] = 0;")

    def test_non_constant_size_rejected(self):
        from repro.errors import ECodeSyntaxError

        with pytest.raises(ECodeSyntaxError):
            compile_procedure("int xs[n];", ("n",))
