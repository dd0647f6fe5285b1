"""repro.check.gen: determinism, validity and coverage of the generators."""

import random

from repro.check import gen
from repro.ecode import compile_procedure, interpret_procedure
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.record import records_equal
from repro.pbio.types import TypeKind


class TestDeterminism:
    def test_same_seed_same_format(self):
        a = gen.random_format(random.Random(42))
        b = gen.random_format(random.Random(42))
        assert a == b
        assert a.format_id == b.format_id

    def test_same_seed_same_record(self):
        fmt = gen.random_format(random.Random(1))
        ra = gen.random_record(random.Random(2), fmt)
        rb = gen.random_record(random.Random(2), fmt)
        assert ra == rb

    def test_same_seed_same_program(self):
        assert gen.random_program(random.Random(3)) == gen.random_program(
            random.Random(3)
        )

    def test_same_seed_same_transform(self):
        def draw(seed):
            rng = random.Random(seed)
            writer, reader = gen.evolved_format_pair(rng)
            return gen.random_transform(rng, writer, reader)

        assert draw(4) == draw(4)


class TestValidity:
    def test_generated_records_validate_and_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            fmt = gen.random_format(rng)
            rec = gen.random_record(rng, fmt)
            fmt.validate_record(rec)  # no FormatError
            wire = encode_record(fmt, rec)
            assert records_equal(decode_record(fmt, wire), rec)

    def test_generated_programs_run_in_both_arms(self):
        from repro.pbio.record import Record

        rng = random.Random(11)
        for _ in range(10):
            source = gen.random_program(rng)
            compiled = compile_procedure(source)
            interp = interpret_procedure(source)
            inputs = {"a": 3, "b": -2, "c": 7}
            from repro.errors import ECodeError

            def run(proc):
                try:
                    return proc(Record(dict(inputs)), Record({"a": 0, "b": 0, "c": 0}))
                except ECodeError:
                    return "raised"

            assert run(compiled) == run(interp)

    def test_generated_transforms_hold_the_three_engines_together(self):
        from repro.check.oracles import check_ecode_records

        rng = random.Random(13)
        for _ in range(40):
            writer, reader = gen.evolved_format_pair(rng)
            program = gen.random_transform(rng, writer, reader)
            record = gen.random_record(rng, writer)
            found = check_ecode_records(writer, reader, program, record)
            assert found == [], (program, [f.detail for f in found])

    def test_f32_values_are_canonical(self):
        value = gen.canonical_f32(0.1)
        assert gen.canonical_f32(value) == value


class TestCoverage:
    def test_format_space_reaches_every_scalar_kind(self):
        rng = random.Random(0)
        seen = set()

        def visit(fmt):
            for field in fmt.fields:
                if field.is_complex:
                    visit(field.subformat)
                else:
                    seen.add(field.kind)

        for _ in range(60):
            visit(gen.random_format(rng))
        assert seen >= set(gen.SCALAR_KINDS)

    def test_format_space_reaches_arrays_and_nesting(self):
        rng = random.Random(0)
        saw_fixed = saw_var = saw_complex = False
        for _ in range(60):
            fmt = gen.random_format(rng)
            for field in fmt.fields:
                if field.is_complex:
                    saw_complex = True
                if field.array is not None:
                    if field.array.fixed_length is not None:
                        saw_fixed = True
                    else:
                        saw_var = True
        assert saw_fixed and saw_var and saw_complex

    def test_transform_space_reaches_what_a_typed_back_end_must_get_right(self):
        from repro.echo.protocol import RESPONSE_V1, RESPONSE_V2

        rng = random.Random(0)
        programs = []
        for _ in range(80):
            programs.append(gen.random_transform(rng, RESPONSE_V2, RESPONSE_V1))
            programs.append(gen.random_transform(rng, *gen.evolved_format_pair(rng)))
        text = "\n".join(programs)
        for needle in (
            "for (",                       # loops over arrays
            "++;\n",                       # an append counter ...
            "% 3) k",                      # ... bumped only sometimes
            "&& ",                         # a guarded look-ahead
            "switch (",
            "strcat(", "strlen(",          # merge, split
            "old.member_list = new.",      # whole-array store
            "] = new.member_list[",        # whole-element store
            "\nnew.",                      # a store through new
            "(old.",                       # a read of an output field
        ):
            assert needle in text, needle

    def test_tables_are_shared_with_hypothesis_strategies(self):
        # tests/strategies.py must fuzz the same space as repro.check.gen.
        import tests.strategies as strategies

        assert strategies._SCALAR_KINDS is gen.SCALAR_KINDS
        assert strategies._SIZES is gen.SIZES
        assert strategies._SIGNED_BOUNDS is gen.SIGNED_BOUNDS
        assert strategies._UNSIGNED_BOUNDS is gen.UNSIGNED_BOUNDS
        assert TypeKind.COMPLEX not in gen.SCALAR_KINDS
