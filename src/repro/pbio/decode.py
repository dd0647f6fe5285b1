"""Generic (interpretive) PBIO decoder.

Reference implementation used to property-test the generated decode
routines of :mod:`repro.pbio.codegen` and as the slow arm of the
DCG-vs-generic ablation benchmark.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.errors import DecodeError, UnknownFormatError
from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    HEADER_SIZE,
    MessageHeader,
    WireReader,
    check_header,
    unpack_header,
)
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.types import STRUCT_CODES, TypeKind

#: Upper bound on variable-array element counts when an element can
#: legally occupy zero wire bytes (e.g. a record of empty fixed arrays):
#: without a byte-budget to check against, a corrupt count could demand an
#: absurd allocation that no honest message needs.
ZERO_SIZE_ELEMENT_CAP = 1 << 16


def peek_format_id(data: bytes) -> int:
    """Read the wire format id without decoding the payload."""
    return unpack_header(data).format_id


def decode_message(
    data: bytes, registry: "FormatRegistryLike"
) -> Tuple[IOFormat, Record]:
    """Decode a full wire message, resolving the format via *registry*.

    Returns ``(format, record)``.  Raises :class:`UnknownFormatError` when
    the registry cannot resolve the wire format id.
    """
    header = unpack_header(data)
    fmt = registry.lookup_id(header.format_id)
    if fmt is None:
        raise UnknownFormatError(header.format_id)
    record = decode_record(fmt, data, header)
    return fmt, record


def decode_record(
    fmt: IOFormat, data: bytes, header: Optional[MessageHeader] = None
) -> Record:
    """Decode the payload of *data* as a record of *fmt*; *header*, the
    one its caller parsed, is checked against *data*
    (:func:`~repro.pbio.buffer.check_header`), not parsed again."""
    if header is None:
        header = unpack_header(data)
    else:
        check_header(data, header)
    if header.format_id != fmt.format_id:
        # Mirrors the specialized decoder's guard: decoding a message
        # against the wrong meta-data silently misreads every field.
        raise DecodeError(
            f"message format id {header.format_id:#x} does not match "
            f"decoder for {fmt.name!r} ({fmt.format_id:#x})"
        )
    order = ">" if header.flags & FLAG_BIG_ENDIAN else "<"
    reader = WireReader(
        data, header.body_offset, header.body_offset + header.payload_length,
        order=order,
    )
    try:
        record = decode_payload(reader, fmt)
    except DecodeError:
        raise
    except (
        struct.error,
        UnicodeDecodeError,
        KeyError,
        IndexError,
        OverflowError,
        MemoryError,
    ) as exc:
        # Residual escape paths: the public contract is malformed bytes
        # always surface as DecodeError, never a raw Python error.
        raise DecodeError(f"corrupt message for {fmt.name!r}: {exc!r}") from None
    if reader.remaining:
        raise DecodeError(
            f"{reader.remaining} trailing bytes after decoding format {fmt.name!r}"
        )
    return record


def decode_payload(reader: WireReader, fmt: IOFormat) -> Record:
    record = Record()
    for field in fmt.fields:
        record[field.name] = _decode_field(reader, field, record)
    return record


def _decode_field(reader: WireReader, field: IOField, record: Record):
    if field.is_array:
        spec = field.array
        assert spec is not None
        if spec.fixed_length is not None:
            count = spec.fixed_length
        else:
            count = record.get(spec.length_field)
            if not isinstance(count, int) or count < 0:
                raise DecodeError(
                    f"bad element count {count!r} for variable array {field.name!r}"
                )
            per_element = field.min_wire_size()
            budget = (
                reader.remaining // per_element
                if per_element
                else ZERO_SIZE_ELEMENT_CAP
            )
            if count > budget:
                raise DecodeError(
                    f"element count {count} for variable array {field.name!r} "
                    f"exceeds the {reader.remaining} remaining payload bytes"
                )
        return [_decode_element(reader, field) for _ in range(count)]
    return _decode_element(reader, field)


def _decode_element(reader: WireReader, field: IOField):
    kind = field.kind
    if kind is TypeKind.COMPLEX:
        assert field.subformat is not None
        return decode_payload(reader, field.subformat)
    if kind is TypeKind.STRING:
        return reader.read_string()
    if kind is TypeKind.CHAR:
        return reader.read_bytes(1).decode("latin-1")
    code = STRUCT_CODES[(kind, field.size)]
    return reader.read_scalar(code, field.size)


class FormatRegistryLike:
    """Protocol-ish base for anything that can resolve wire format ids.

    Defined here (rather than importing the concrete registry) to keep the
    decode module free of registry dependencies; the concrete
    :class:`repro.pbio.registry.FormatRegistry` satisfies it structurally.
    """

    def lookup_id(self, format_id: int) -> Optional[IOFormat]:  # pragma: no cover
        raise NotImplementedError
