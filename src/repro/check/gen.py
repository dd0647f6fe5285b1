"""Seedable random generators for formats, records and ECode programs.

The shared vocabulary (scalar kinds, legal sizes, value bounds, name
alphabet) lives here; the Hypothesis strategies in ``tests/strategies.py``
import these tables so the property suite and the ``python -m repro.check``
harness fuzz exactly the same format space.

Everything draws from a caller-supplied :class:`random.Random`, so a seed
fully determines the generated stream — a failing case can be named by
``(seed, case index)`` alone.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Optional

from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.types import TypeKind

#: Scalar kinds a generated field may use (COMPLEX is drawn structurally).
SCALAR_KINDS = [
    TypeKind.INTEGER,
    TypeKind.UNSIGNED,
    TypeKind.FLOAT,
    TypeKind.BOOLEAN,
    TypeKind.ENUMERATION,
    TypeKind.STRING,
    TypeKind.CHAR,
]

#: Legal wire sizes per kind.
SIZES = {
    TypeKind.INTEGER: [1, 2, 4, 8],
    TypeKind.UNSIGNED: [1, 2, 4, 8],
    TypeKind.ENUMERATION: [1, 2, 4],
    TypeKind.FLOAT: [4, 8],
    TypeKind.BOOLEAN: [1],
    TypeKind.CHAR: [1],
    TypeKind.STRING: [0],
}

SIGNED_BOUNDS = {1: 2**7 - 1, 2: 2**15 - 1, 4: 2**31 - 1, 8: 2**63 - 1}
UNSIGNED_BOUNDS = {1: 2**8 - 1, 2: 2**16 - 1, 4: 2**32 - 1, 8: 2**64 - 1}

#: Field/format name suffix alphabet — XML-safe, collision-free with the
#: structural prefixes below.
NAME_ALPHABET = "abcdefghij"

#: Printable ASCII for string/char payloads.
_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

_F32 = struct.Struct("<f")


def canonical_f32(value: float) -> float:
    """Round *value* to the nearest exactly-representable binary32, so a
    4-byte float survives the wire bit-for-bit and differential record
    comparisons can demand exact equality."""
    return _F32.unpack(_F32.pack(value))[0]


def _name(rng: random.Random, prefix: str) -> str:
    length = rng.randint(1, 4)
    return prefix + "".join(rng.choice(NAME_ALPHABET) for _ in range(length))


def random_format(
    rng: random.Random, depth: int = 2, name: Optional[str] = None
) -> IOFormat:
    """A random IOFormat mirroring ``tests/strategies.py``: nested complex
    fields, both array flavors of scalars and of records, variable arrays
    counted by a preceding integer field."""
    field_count = rng.randint(1, 5)
    fields: List[IOField] = []
    for index in range(field_count):
        field_name = f"f{index}_{_name(rng, '')}"
        shapes = ["scalar", "scalar", "fixed_array", "var_array"]
        if depth > 0:
            shapes += ["complex", "complex_fixed_array", "complex_var_array"]
        shape = rng.choice(shapes)
        if shape == "scalar":
            kind = rng.choice(SCALAR_KINDS)
            fields.append(IOField(field_name, kind, rng.choice(SIZES[kind])))
        elif shape == "fixed_array":
            kind = rng.choice(SCALAR_KINDS)
            fields.append(
                IOField(
                    field_name,
                    kind,
                    rng.choice(SIZES[kind]),
                    array=ArraySpec(fixed_length=rng.randint(0, 3)),
                )
            )
        elif shape == "var_array":
            kind = rng.choice(SCALAR_KINDS)
            count_name = f"n{index}"
            fields.append(IOField(count_name, TypeKind.INTEGER, 4))
            fields.append(
                IOField(
                    field_name,
                    kind,
                    rng.choice(SIZES[kind]),
                    array=ArraySpec(length_field=count_name),
                )
            )
        elif shape == "complex":
            sub = random_format(rng, depth=depth - 1, name=f"Sub_{field_name}")
            fields.append(IOField(field_name, TypeKind.COMPLEX, subformat=sub))
        elif shape == "complex_fixed_array":
            sub = random_format(rng, depth=depth - 1, name=f"Sub_{field_name}")
            fields.append(
                IOField(
                    field_name,
                    TypeKind.COMPLEX,
                    subformat=sub,
                    array=ArraySpec(fixed_length=rng.randint(0, 3)),
                )
            )
        else:  # complex_var_array
            sub = random_format(rng, depth=depth - 1, name=f"Sub_{field_name}")
            count_name = f"n{index}"
            fields.append(IOField(count_name, TypeKind.INTEGER, 4))
            fields.append(
                IOField(
                    field_name,
                    TypeKind.COMPLEX,
                    subformat=sub,
                    array=ArraySpec(length_field=count_name),
                )
            )
    format_name = name if name is not None else "Fmt_" + _name(rng, "")
    version = rng.choice([None, "1.0", "2.0"])
    return IOFormat(format_name, fields, version=version)


def _scalar_value(rng: random.Random, field: IOField):
    kind = field.kind
    if kind is TypeKind.INTEGER:
        bound = SIGNED_BOUNDS[field.size]
        return rng.randint(-bound - 1, bound)
    if kind in (TypeKind.UNSIGNED, TypeKind.ENUMERATION):
        return rng.randint(0, UNSIGNED_BOUNDS[field.size])
    if kind is TypeKind.FLOAT:
        value = rng.choice(
            [0.0, -1.5, rng.uniform(-1e6, 1e6), rng.uniform(-1.0, 1.0)]
        )
        return canonical_f32(value) if field.size == 4 else value
    if kind is TypeKind.BOOLEAN:
        return rng.random() < 0.5
    if kind is TypeKind.CHAR:
        return rng.choice(_PRINTABLE)
    # STRING
    length = rng.randint(0, 12)
    return "".join(rng.choice(_PRINTABLE) for _ in range(length))


def random_record(rng: random.Random, fmt: IOFormat) -> Record:
    """A random record conforming to *fmt*; variable-array count fields
    are forced consistent after drawing."""
    rec = Record()
    for field in fmt.fields:
        if field.is_complex:
            element = lambda f=field: random_record(rng, f.subformat)
        else:
            element = lambda f=field: _scalar_value(rng, f)
        if field.is_array:
            spec = field.array
            assert spec is not None
            if spec.fixed_length is not None:
                rec[field.name] = [element() for _ in range(spec.fixed_length)]
            else:
                rec[field.name] = [element() for _ in range(rng.randint(0, 3))]
        else:
            rec[field.name] = element()
    for field in fmt.fields:
        spec = field.array
        if spec is not None and spec.length_field is not None:
            rec[spec.length_field] = len(rec[field.name])
    return rec


def evolved_format_pair(
    rng: random.Random, name: str = "Evo"
) -> "tuple[IOFormat, IOFormat]":
    """``(writer, reader)``: two same-name formats one evolution step
    apart — the reader drops some of the writer's scalar fields and grows
    fresh ones, so a morph route between them exercises field matching,
    default fill and drop (the reconcile walker / fused coercion stage)."""
    writer = random_format(rng, depth=1, name=name)
    writer = IOFormat(name, list(writer.fields), version="2.0")
    count_names = {
        f.array.length_field
        for f in writer.fields
        if f.array is not None and f.array.length_field is not None
    }
    reader_fields: List[IOField] = []
    for field in writer.fields:
        droppable = field.name not in count_names and not field.is_array
        if droppable and rng.random() < 0.3:
            continue  # evolution removed this field
        reader_fields.append(field)
    for index in range(rng.randint(0, 2)):
        kind = rng.choice(SCALAR_KINDS)
        reader_fields.append(
            IOField(f"g{index}_new", kind, rng.choice(SIZES[kind]))
        )
    if not reader_fields:
        reader_fields.append(IOField("g_pad", TypeKind.INTEGER, 4))
    reader = IOFormat(name, reader_fields, version="1.0")
    return writer, reader


def removed_fields(rng: random.Random, fmt: IOFormat) -> IOFormat:
    """*fmt* after the "attribute removed" operator (Piccioni et al.,
    PAPERS.md): an older revision of the same name keeping some of its
    fields, declared as they are — each kept variable array with its
    count — in their order, or with one moved to the end."""
    kept = [field for field in fmt.fields if rng.random() < 0.6] or [
        fmt.fields[-1]]
    counts = {
        field.array.length_field for field in kept
        if field.array is not None and field.array.length_field is not None
    }
    kept = [field for field in fmt.fields
            if field in kept or field.name in counts]
    movable = [field for field in kept if field.name not in counts]
    if len(kept) > 1 and movable and rng.random() < 0.3:
        moved = rng.choice(movable)
        kept = [field for field in kept if field is not moved] + [moved]
    return IOFormat(fmt.name, kept, version="0.0")


# ---------------------------------------------------------------------------
# ECode program generation
# ---------------------------------------------------------------------------

#: Operators whose integer semantics the interpreter and the generated
#: Python must agree on exactly (division/modulo truncate toward zero).
_BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
               "==", "!=", "<", ">", "<=", ">=", "&&", "||"]
_UNARY_OPS = ["-", "!", "~"]

#: Literals biased toward the edge cases that distinguish C semantics
#: from Python's: negative dividends, zero divisors, narrow-type bounds.
_EDGE_LITERALS = [0, 1, 2, 3, 5, 7, 127, 128, 255, 256, 32767, 65535]


def _literal(rng: random.Random) -> str:
    value = rng.choice(_EDGE_LITERALS + [rng.randint(0, 10**6)])
    if rng.random() < 0.4:
        return f"(0 - {value})"  # negative operand without unary-minus literals
    return str(value)


def _expr(rng: random.Random, names: List[str], depth: int = 3) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if names and roll < 0.15:
            return rng.choice(names)
        return _literal(rng)
    if roll < 0.4:
        op = rng.choice(_UNARY_OPS)
        return f"({op}{_expr(rng, names, depth - 1)})"
    op = rng.choice(_BINARY_OPS)
    left = _expr(rng, names, depth - 1)
    if op in ("<<", ">>"):
        # Keep shift counts small and non-negative; the differential suite
        # probes hostile shifts separately with both arms expected to raise.
        right = str(rng.randint(0, 8))
    else:
        right = _expr(rng, names, depth - 1)
    return f"({left} {op} {right})"


def random_program(rng: random.Random) -> str:
    """A random int-only ECode procedure body over parameters ``new`` and
    ``old`` (both records with integer fields ``a``/``b``/``c``).

    Straight-line with optional if/else — loop-free by construction so
    every program terminates and divergence is attributable to operator
    semantics, not control flow."""
    names: List[str] = []
    lines: List[str] = []
    for index in range(rng.randint(1, 4)):
        name = f"v{index}"
        lines.append(f"int {name};")
        lines.append(f"{name} = {_expr(rng, names)};")
        names.append(name)
    sources = names + ["new.a", "new.b", "new.c"]
    if rng.random() < 0.5:
        then_expr = _expr(rng, sources, depth=2)
        else_expr = _expr(rng, sources, depth=2)
        lines.append(
            f"if ({_expr(rng, sources, depth=2)}) "
            f"{{ old.a = {then_expr}; }} else {{ old.a = {else_expr}; }}"
        )
    else:
        lines.append(f"old.a = {_expr(rng, sources)};")
    lines.append(f"old.b = {_expr(rng, sources)};")
    lines.append(f"return old.a {rng.choice(['+', '-', '^'])} old.b;")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ECode transform generation (programs over records, not scalars)
# ---------------------------------------------------------------------------

_TEXT_KINDS = (TypeKind.STRING, TypeKind.CHAR)
_INT_KINDS = (TypeKind.INTEGER, TypeKind.UNSIGNED, TypeKind.ENUMERATION)


def _is_text(field: IOField) -> bool:
    return field.kind in _TEXT_KINDS


def _fits(src: IOField, dst: IOField, element: bool = False) -> bool:
    """May a value of *src* be stored whole where *dst* is declared?
    Only the container structure has to agree (ECode does not type
    scalars): arrays onto arrays, records onto records that declare at
    least the same members, scalars onto scalars of the same class."""
    if not element and src.is_array != dst.is_array:
        return False
    if src.is_complex != dst.is_complex:
        return False
    if not dst.is_complex:
        return _is_text(src) == _is_text(dst)
    return all(
        (mine := src.subformat.get_field(theirs.name)) is not None
        and _fits(mine, theirs)
        for theirs in dst.subformat.fields
    )


class _TransformWriter:
    """Writes one ECode ``(new, old)`` body that populates a record of a
    target format from a record of a source format, out of the operators
    schema-evolution studies observe (PAPERS.md — Piccioni et al.:
    attribute added / removed / renamed; Edwards et al.: move, split,
    merge, wrap in list) plus what a typed back-end has to get right:
    loops over arrays, conditional appends driven by a counter, a counter
    bumped mid-block, reads of output fields, whole-record and whole-array
    stores, a store through ``new``."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: List[str] = []
        self.depth = 0
        self.locals: List[str] = []

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self, prefix: str) -> str:
        name = f"{prefix}{len(self.locals)}"
        self.locals.append(name)
        return name

    def insert(self, start: int, statement: str) -> None:
        """Put *statement* between two statements of the block being
        written at the current depth, somewhere after line *start* (or
        at its end)."""
        pad = "    " * self.depth
        spots = [len(self.lines)] + [
            at for at in range(start, len(self.lines))
            if self.lines[at].startswith(pad)
            and self.lines[at][len(pad)] not in " }"
        ]
        self.lines.insert(self.rng.choice(spots), pad + statement)

    # -- expressions ---------------------------------------------------

    def literal(self, text: bool) -> str:
        if text:
            return '"' + self.rng.choice(["", "x", "lit", "added"]) + '"'
        return str(self.rng.choice([0, 1, 7, 255, 2.5]))

    def scalars(self, path: str, fmt: IOFormat, text: bool) -> List[str]:
        """Readable scalar paths of one class under record *path*, one
        level of nesting included (reading those is Edwards' "move")."""
        found = []
        for field in fmt.fields:
            if field.is_array:
                continue
            if field.is_complex:
                found += [
                    f"{path}.{field.name}.{inner.name}"
                    for inner in field.subformat.fields
                    if inner.is_basic and not inner.is_array
                    and _is_text(inner) == text
                ]
            elif _is_text(field) == text:
                found.append(f"{path}.{field.name}")
        return found

    def value(
        self, text: bool, src: str, src_fmt: IOFormat, written: List[str]
    ) -> str:
        """A scalar expression of one class over the source record and
        the output scalars of that class *written* so far."""
        rng = self.rng
        same = self.scalars(src, src_fmt, text)
        other = self.scalars(src, src_fmt, not text)
        roll = rng.random()
        if written and roll < 0.15:  # read of an output field
            prior = rng.choice(written)
            return f'strcat({prior}, "+")' if text else f"({prior} + 1)"
        if not same or roll < 0.3:  # attribute added
            if not text and other and roll < 0.2:
                return f"strlen({rng.choice(other)})"  # split
            return self.literal(text)
        first = rng.choice(same)
        if roll < 0.6:  # attribute renamed
            return first
        second = rng.choice(same)
        if text:  # merge
            return f"strcat({first}, {second})"
        return rng.choice([
            f"({first} + {second})",  # merge
            f"({first} * 2 - {second})",
            f"({first} / 10)",  # split, with its other half
            f"({first} % 10)",
        ])

    def condition(self, src: str, src_fmt: IOFormat) -> str:
        numbers = self.scalars(src, src_fmt, text=False)
        texts = self.scalars(src, src_fmt, text=True)
        if numbers and (not texts or self.rng.random() < 0.7):
            subject = self.rng.choice(numbers)
            return self.rng.choice(
                [subject, f"{subject} > 3", f"!({subject} == 0)"]
            )
        if texts:
            return f"strlen({self.rng.choice(texts)}) > 3"
        return "1"

    # -- statements ----------------------------------------------------

    def fill_record(
        self, dst: str, dst_fmt: IOFormat, src: str, src_fmt: IOFormat
    ) -> None:
        counts = {
            f.array.length_field
            for f in dst_fmt.fields
            if f.array is not None and f.array.length_field is not None
        }
        written: Dict[bool, List[str]] = {True: [], False: []}
        for field in dst_fmt.fields:
            target = f"{dst}.{field.name}"
            if field.name in counts or self.rng.random() < 0.08:
                continue  # stored with its array / attribute removed
            if field.is_array:
                self.fill_array(dst, field, src, src_fmt)
            elif field.is_complex:
                self.fill_subrecord(target, field, src, src_fmt)
            else:
                text = _is_text(field)
                self.fill_scalar(target, text, src, src_fmt, written[text])
                written[text].append(target)

    def fill_scalar(
        self, target: str, text: bool, src: str, src_fmt: IOFormat,
        written: List[str],
    ) -> None:
        roll = self.rng.random()
        values = [self.value(text, src, src_fmt, written) for _ in range(3)]
        ints = [
            f"{src}.{f.name}" for f in src_fmt.fields
            if f.kind in _INT_KINDS and not f.is_array
        ]
        if roll < 0.15:
            self.emit(f"if ({self.condition(src, src_fmt)}) {{")
            self.emit(f"    {target} = {values[0]};")
            self.emit("} else {")
            self.emit(f"    {target} = {values[1]};")
            self.emit("}")
        elif roll < 0.22 and ints:
            self.emit(f"switch ({self.rng.choice(ints)} % 3) {{")
            self.emit(f"    case 0: {target} = {values[0]}; break;")
            self.emit(f"    case 1: case 2: {target} = {values[1]}; break;")
            self.emit(f"    default: {target} = {values[2]}; break;")
            self.emit("}")
        else:
            self.emit(f"{target} = {values[0]};")

    def fill_subrecord(
        self, target: str, field: IOField, src: str, src_fmt: IOFormat
    ) -> None:
        records = [f for f in src_fmt.fields if f.is_complex and not f.is_array]
        whole = [f for f in records if _fits(f, field)]
        if whole and self.rng.random() < 0.6:
            self.store_whole(
                target, f"{src}.{self.rng.choice(whole).name}", field.subformat
            )
        elif records and self.rng.random() < 0.5:
            chosen = self.rng.choice(records)
            self.fill_record(
                target, field.subformat, f"{src}.{chosen.name}", chosen.subformat
            )
        else:  # move: the members come from the enclosing record
            self.fill_record(target, field.subformat, src, src_fmt)

    def store_whole(self, target: str, value: str, fmt: IOFormat) -> None:
        """``target = value`` for records of *fmt*, between two writes to
        a member of the target: the first lands in the record the store
        replaces, the second must reach the copy and never *value*."""
        members = [f for f in fmt.fields if f.is_basic and not f.is_array]
        member = self.rng.choice(members) if members else None

        def write_member() -> None:
            if member is not None:
                self.emit(
                    f"{target}.{member.name} = "
                    f"{self.literal(_is_text(member))};"
                )

        if self.rng.random() < 0.5:
            write_member()
        self.emit(f"{target} = {value};")
        if self.rng.random() < 0.7:
            write_member()

    def fill_array(
        self, dst: str, field: IOField, src: str, src_fmt: IOFormat
    ) -> None:
        rng = self.rng
        target = f"{dst}.{field.name}"
        counted = field.array.length_field

        def store_count(value: str) -> None:
            if counted is not None:
                self.emit(f"{dst}.{counted} = {value};")

        def length(array: IOField) -> str:
            if array.array.length_field is not None:
                return f"{src}.{array.array.length_field}"
            return str(array.array.fixed_length)

        arrays = [
            f for f in src_fmt.fields
            if f.is_array and f.is_complex == field.is_complex
        ]
        whole = [f for f in arrays if _fits(f, field)]
        roll = rng.random()
        if whole and roll < 0.25:
            # whole-array store; an element written before it is replaced
            # with the array, one written after it goes to the copy
            chosen = rng.choice(whole)
            if rng.random() < 0.4:
                self.fill_element(f"{target}[0]", field, src, src_fmt, None)
            self.emit(f"{target} = {src}.{chosen.name};")
            store_count(length(chosen))
            if rng.random() < 0.4:
                self.emit(f"if ({length(chosen)} > 0) {{")
                self.depth += 1
                self.fill_element(f"{target}[0]", field, src, src_fmt, None)
                self.depth -= 1
                self.emit("}")
            return
        if not arrays or roll < 0.35:  # wrap in list
            self.fill_element(f"{target}[0]", field, src, src_fmt, None)
            store_count("1")
            return
        chosen = rng.choice(whole or arrays)
        i = self.local("i")
        k = self.local("k") if rng.random() < 0.5 else None
        if k is not None:
            self.emit(f"{k} = 0;")
            if rng.random() < 0.5:  # what this loads must not last into the loop
                self.fill_element(f"{target}[{k}]", field, src, src_fmt, None)
        self.emit(f"for ({i} = 0; {i} < {length(chosen)}; {i}++) {{")
        self.depth += 1
        element = f"{src}.{chosen.name}[{i}]"
        if k is not None and chosen.is_complex and rng.random() < 0.3:
            # a look-ahead the guard keeps inside the array
            ahead = f"{src}.{chosen.name}[{i} + 1]"
            self.emit(
                f"if ({i} + 1 < {length(chosen)} && "
                f"{self.condition(ahead, chosen.subformat)}) {{"
            )
        elif k is not None and chosen.is_complex:
            self.emit(f"if ({self.condition(element, chosen.subformat)}) {{")
        elif k is not None:
            self.emit(f"if ({i} % 2 == 0) {{")
        if k is not None:
            self.depth += 1
        start = len(self.lines)
        self.fill_element(
            f"{target}[{k or i}]", field, src, src_fmt,
            (element, chosen) if chosen in whole or chosen.is_complex else None,
        )
        if k is not None:
            # the append counter moves at the end of the block — or in
            # the middle of it, perhaps only sometimes, and the stores
            # after it land one element further on
            self.insert(start + 1, rng.choice([f"{k}++;", f"if ({i} % 3) {k}++;"]))
            self.depth -= 1
            self.emit("}")
        self.depth -= 1
        self.emit("}")
        store_count(k or length(chosen))

    def copy_record(self, dst_fmt: IOFormat, src_fmt: IOFormat) -> bool:
        """The remove operator alone: every field of *dst_fmt* stored
        verbatim from its equal namesake in *src_fmt* — a scalar by one
        store, an array of scalars or of flat records by a loop over its
        full count — if each one can be; else nothing is written."""
        mine = {field.name: field for field in src_fmt.fields}
        if not all(
            mine.get(field.name) == field and not (
                field.is_complex and (not field.is_array or any(
                    inner.is_array or inner.is_complex
                    for inner in field.subformat.fields)))
            for field in dst_fmt.fields
        ):
            return False
        for field in dst_fmt.fields:
            if not field.is_array:
                self.emit(f"old.{field.name} = new.{field.name};")
                continue
            i = self.local("i")
            count = field.array.length_field
            self.emit(f"for ({i} = 0; {i} < "
                      f"{'new.' + count if count else field.array.fixed_length};"
                      f" {i}++) {{")
            element = f"{field.name}[{i}]"
            for path in ([f"{element}.{inner.name}"
                          for inner in field.subformat.fields]
                         if field.is_complex else [element]):
                self.emit(f"    old.{path} = new.{path};")
            self.emit("}")
        return True

    def fill_element(
        self, target: str, field: IOField, src: str, src_fmt: IOFormat,
        element: "Optional[tuple[str, IOField]]",
    ) -> None:
        """One element of array *field*: from *element* ``(path, array
        field)`` of a source array when the loop has one, else from the
        source record itself."""
        if element is not None and _fits(element[1], field) and (
            not field.is_complex or self.rng.random() < 0.4
        ):
            if field.is_complex:  # whole-element store
                self.store_whole(target, element[0], field.subformat)
            else:
                self.emit(f"{target} = {element[0]};")
        elif not field.is_complex:
            self.emit(
                f"{target} = {self.value(_is_text(field), src, src_fmt, [])};"
            )
        elif element is not None:
            self.fill_record(
                target, field.subformat, element[0], element[1].subformat
            )
        else:
            self.fill_record(target, field.subformat, src, src_fmt)


def random_transform(
    rng: random.Random, source_fmt: IOFormat, target_fmt: IOFormat
) -> str:
    """A random ECode transform body from *source_fmt* (``new``) to
    *target_fmt* (``old``); see :class:`_TransformWriter` for what it is
    made of.  Whole stores only join values of the same container
    structure, so any record of *source_fmt* leaves ``old`` shaped like
    *target_fmt* — what a host that compiles against both formats relies
    on.  Loops are bounded by array lengths: every program terminates.
    A store through ``new``, when there is one, starts its own line.
    When *target_fmt* only removes fields of *source_fmt*
    (:func:`removed_fields`), the body is as often that and nothing else:
    every kept field copied verbatim (:meth:`_TransformWriter.
    copy_record`) — a wire projection."""
    writer = _TransformWriter(rng)
    removes = all(
        source_fmt.get_field(field.name) == field for field in target_fmt.fields
    )
    if removes and rng.random() < 0.5 and writer.copy_record(
            target_fmt, source_fmt):
        return "\n".join(
            [f"int {name};" for name in writer.locals] + writer.lines) + "\n"
    writer.fill_record("old", target_fmt, "new", source_fmt)
    scalars = writer.scalars("new", source_fmt, text=False)
    if scalars and rng.random() < 0.25:
        writer.insert(0, f"{rng.choice(scalars)} = {writer.literal(text=False)};")
    declarations = [f"int {name};" for name in writer.locals]
    return "\n".join(declarations + writer.lines) + "\n"
