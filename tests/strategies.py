"""Hypothesis strategies for random PBIO formats and conforming records.

Used by the property-based suites: round-trips (encode ∘ decode = id,
generic == generated), diff metric laws, coercion totality, XML
symmetry.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.check.gen import (
    NAME_ALPHABET as _NAME_ALPHABET,
    SCALAR_KINDS as _SCALAR_KINDS,
    SIGNED_BOUNDS as _SIGNED_BOUNDS,
    SIZES as _SIZES,
    UNSIGNED_BOUNDS as _UNSIGNED_BOUNDS,
)
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.types import TypeKind


@st.composite
def io_formats(draw, depth: int = 2, name: "str | None" = None) -> IOFormat:
    """A random IOFormat with nested complex fields and both array
    flavors of scalars and of records; variable arrays always have a
    preceding integer count."""
    field_count = draw(st.integers(min_value=1, max_value=5))
    fields = []
    for index in range(field_count):
        suffix = draw(st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=4))
        field_name = f"f{index}_{suffix}"
        kind_pool = list(_SCALAR_KINDS)
        shapes = ["scalar", "fixed_array", "var_array"]
        if depth > 0:
            shapes += ["complex", "complex_fixed_array", "complex_var_array"]
        shape = draw(st.sampled_from(shapes))
        if shape == "scalar":
            kind = draw(st.sampled_from(kind_pool))
            fields.append(IOField(field_name, kind, draw(st.sampled_from(_SIZES[kind]))))
        elif shape == "fixed_array":
            kind = draw(st.sampled_from(kind_pool))
            fields.append(
                IOField(
                    field_name,
                    kind,
                    draw(st.sampled_from(_SIZES[kind])),
                    array=ArraySpec(fixed_length=draw(st.integers(0, 3))),
                )
            )
        elif shape == "var_array":
            kind = draw(st.sampled_from(kind_pool))
            count_name = f"n{index}"
            fields.append(IOField(count_name, TypeKind.INTEGER, 4))
            fields.append(
                IOField(
                    field_name,
                    kind,
                    draw(st.sampled_from(_SIZES[kind])),
                    array=ArraySpec(length_field=count_name),
                )
            )
        elif shape == "complex":
            sub = draw(io_formats(depth=depth - 1, name=f"Sub_{field_name}"))
            fields.append(IOField(field_name, TypeKind.COMPLEX, subformat=sub))
        elif shape == "complex_fixed_array":
            sub = draw(io_formats(depth=depth - 1, name=f"Sub_{field_name}"))
            fields.append(
                IOField(
                    field_name,
                    TypeKind.COMPLEX,
                    subformat=sub,
                    array=ArraySpec(fixed_length=draw(st.integers(0, 3))),
                )
            )
        else:  # complex_var_array
            sub = draw(io_formats(depth=depth - 1, name=f"Sub_{field_name}"))
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
    format_name = name if name is not None else "Fmt_" + draw(
        st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=6)
    )
    version = draw(st.sampled_from([None, "1.0", "2.0"]))
    return IOFormat(format_name, fields, version=version)


#: Strings restricted to XML-transparent text so the same records can
#: drive the XML round-trip suite (control chars are not XML-encodable).
_TEXT = st.text(
    alphabet=st.characters(
        min_codepoint=0x20, max_codepoint=0x7E
    ),
    max_size=12,
)

_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0x7E)


def _scalar_strategy(field: IOField):
    kind = field.kind
    if kind is TypeKind.INTEGER:
        bound = _SIGNED_BOUNDS[field.size]
        return st.integers(min_value=-bound - 1, max_value=bound)
    if kind in (TypeKind.UNSIGNED, TypeKind.ENUMERATION):
        return st.integers(min_value=0, max_value=_UNSIGNED_BOUNDS[field.size])
    if kind is TypeKind.FLOAT:
        return st.floats(
            allow_nan=False,
            allow_infinity=False,
            width=32 if field.size == 4 else 64,
        )
    if kind is TypeKind.BOOLEAN:
        return st.booleans()
    if kind is TypeKind.CHAR:
        return _CHARS
    return _TEXT


@st.composite
def records_for(draw, fmt: IOFormat):
    """A random record conforming to *fmt* (variable-array counts are
    forced consistent after drawing)."""
    rec = {}
    for field in fmt.fields:
        if field.is_complex:
            element = lambda f=field: draw(records_for(f.subformat))
        else:
            element = lambda f=field: draw(_scalar_strategy(f))
        if field.is_array:
            spec = field.array
            if spec.fixed_length is not None:
                rec[field.name] = [element() for _ in range(spec.fixed_length)]
            else:
                count = draw(st.integers(min_value=0, max_value=3))
                rec[field.name] = [element() for _ in range(count)]
        else:
            rec[field.name] = element()
    for field in fmt.fields:
        spec = field.array
        if spec is not None and spec.length_field is not None:
            rec[spec.length_field] = len(rec[field.name])
    from repro.pbio.record import Record

    return Record(rec)


@st.composite
def format_and_record(draw, depth: int = 2):
    fmt = draw(io_formats(depth=depth))
    rec = draw(records_for(fmt))
    return fmt, rec
