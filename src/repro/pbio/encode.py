"""Generic (interpretive) PBIO encoder.

Walks the format tree field by field.  The dynamic-code-generation encoder
in :mod:`repro.pbio.codegen` produces specialized routines that do the same
job faster; this module is the reference implementation the generated code
is property-tested against, and the baseline for the DCG ablation bench.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Mapping

from repro.errors import EncodeError
from repro.pbio.buffer import FLAG_BIG_ENDIAN, ORDER_PREFIX, WireWriter, pack_header
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.types import (
    SIGNED_RANGES,
    STRUCT_CODES,
    TypeKind,
    UNSIGNED_RANGES,
)


def encode_record(
    fmt: IOFormat, rec: Mapping[str, Any], byte_order: str = "little"
) -> bytes:
    """Encode *rec* against *fmt*, returning a full wire message
    (header + payload).

    *byte_order* is the writer's declared native order ("little"/"big");
    it is recorded in the header flags so the receiver converts only when
    its own order differs (PBIO's receiver-makes-right rule)."""
    try:
        order = ORDER_PREFIX[byte_order]
    except KeyError:
        raise EncodeError(f"unknown byte order {byte_order!r}") from None
    writer = WireWriter(order)
    encode_payload(writer, fmt, rec)
    payload = writer.getvalue()
    flags = FLAG_BIG_ENDIAN if byte_order == "big" else 0
    return pack_header(fmt.format_id, len(payload), flags=flags) + payload


def encode_payload(writer: WireWriter, fmt: IOFormat, rec: Mapping[str, Any]) -> None:
    """Encode only the payload of *rec* into *writer* (no header)."""
    for field in fmt.fields:
        try:
            value = rec[field.name]
        except (KeyError, TypeError):
            raise EncodeError(
                f"record missing field {field.name!r} of format {fmt.name!r}"
            ) from None
        _encode_field(writer, field, value, rec)


def _encode_field(
    writer: WireWriter, field: IOField, value: Any, rec: Mapping[str, Any]
) -> None:
    if field.is_array:
        spec = field.array
        assert spec is not None
        if not isinstance(value, (list, tuple)):
            raise EncodeError(f"field {field.name!r} must be a sequence")
        if spec.fixed_length is not None:
            if len(value) != spec.fixed_length:
                raise EncodeError(
                    f"fixed array {field.name!r} needs {spec.fixed_length} "
                    f"elements, got {len(value)}"
                )
        else:
            declared = rec.get(spec.length_field)
            if declared != len(value):
                raise EncodeError(
                    f"variable array {field.name!r} has {len(value)} elements "
                    f"but count field {spec.length_field!r} == {declared!r}"
                )
        for element in value:
            _encode_element(writer, field, element)
    else:
        _encode_element(writer, field, value)


def _encode_element(writer: WireWriter, field: IOField, value: Any) -> None:
    kind = field.kind
    if kind is TypeKind.COMPLEX:
        assert field.subformat is not None
        encode_payload(writer, field.subformat, value)
        return
    if kind is TypeKind.STRING:
        if not isinstance(value, str):
            raise EncodeError(f"string field {field.name!r} got {type(value).__name__}")
        try:
            writer.write_string(value)
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise EncodeError(f"string field {field.name!r}: {exc}") from None
        return
    if kind is TypeKind.CHAR:
        if not isinstance(value, str):
            raise EncodeError(f"char field {field.name!r} got {type(value).__name__}")
        try:
            raw = value.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise EncodeError(f"char field {field.name!r}: {exc}") from None
        if len(raw) != 1:
            raise EncodeError(f"char field {field.name!r} needs 1 character")
        writer.write_bytes(raw)
        return
    # The generated encoder's rule, which is what ``struct.pack`` takes:
    # integer codes an ``int`` or an ``__index__`` (never ``int("7")``
    # nor ``int(7.9)``), floats whatever it packs as a float.
    code = STRUCT_CODES[(kind, field.size)]
    if kind is TypeKind.INTEGER:
        value = _check_range(field, value, SIGNED_RANGES[field.size])
    elif kind in (TypeKind.UNSIGNED, TypeKind.ENUMERATION):
        value = _check_range(field, value, UNSIGNED_RANGES[field.size])
    elif kind is TypeKind.BOOLEAN:
        value = bool(value)
    writer.write_scalar(code, value)


def _check_range(field: IOField, value: Any, bounds: "tuple[int, int]") -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise EncodeError(
            f"field {field.name!r} needs an integer, got {type(value).__name__}"
        ) from None
    low, high = bounds
    if not low <= value <= high:
        raise EncodeError(
            f"value {value} out of range [{low}, {high}] for field "
            f"{field.name!r} ({field.kind.value}:{field.size})"
        )
    return value


def encoded_size(fmt: IOFormat, rec: Mapping[str, Any]) -> int:
    """Size in bytes of the wire message `encode_record(fmt, rec)` would
    produce, without building the buffer."""
    from repro.pbio.buffer import HEADER_SIZE

    return HEADER_SIZE + _payload_size(fmt, rec)


def _payload_size(fmt: IOFormat, rec: Mapping[str, Any]) -> int:
    total = 0
    for field in fmt.fields:
        value = rec[field.name]
        elements = value if field.is_array else (value,)
        for element in elements:
            if field.is_complex:
                assert field.subformat is not None
                total += _payload_size(field.subformat, element)
            elif field.kind is TypeKind.STRING:
                total += 4 + len(str(element).encode("utf-8"))
            else:
                total += field.size
    return total


def native_size(fmt: IOFormat, rec: Mapping[str, Any]) -> int:
    """The "unencoded" size the paper reports: the bytes the record would
    occupy as packed C structs (scalar wire sizes, strings as
    NUL-terminated char data, arrays as element data).  Used as the x-axis
    of Figures 8-10 and the baseline row of Table 1."""
    total = 0
    for field in fmt.fields:
        value = rec[field.name]
        elements = value if field.is_array else (value,)
        for element in elements:
            if field.is_complex:
                assert field.subformat is not None
                total += native_size(field.subformat, element)
            elif field.kind is TypeKind.STRING:
                total += len(str(element).encode("utf-8")) + 1
            else:
                total += field.size
    return total
