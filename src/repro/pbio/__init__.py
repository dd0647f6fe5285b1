"""PBIO — Portable Binary Input/Output.

A record-oriented binary communication substrate with *out-of-band*
meta-data (format descriptions travel through a shared
:class:`FormatRegistry`, not inline with the data) and dynamic code
generation of specialized encode/decode routines.

Quick use::

    from repro.pbio import IOField, IOFormat, PBIOContext

    fmt = IOFormat("Msg", [
        IOField("load", "integer"),
        IOField("mem", "integer"),
        IOField("net", "integer"),
    ])
    ctx = PBIOContext()
    wire = ctx.encode(fmt, fmt.make_record(load=1, mem=2, net=3))
    decoded_fmt, record = ctx.decode(wire)
"""

from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    HEADER_SIZE,
    MessageHeader,
    pack_header,
    unpack_header,
)
from repro.pbio.context import PBIOContext
from repro.pbio.decode import decode_message, decode_record, peek_format_id
from repro.pbio.encode import encode_record, encoded_size, native_size
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, make_record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.server import CachingFormatResolver, FormatServer
from repro.pbio.serialization import (
    dump_registry,
    format_from_dict,
    format_to_dict,
    load_registry,
    registry_from_dict,
    registry_to_dict,
)
from repro.pbio.types import TypeKind

__all__ = [
    "ArraySpec",
    "CachingFormatResolver",
    "FLAG_BIG_ENDIAN",
    "FormatRegistry",
    "FormatServer",
    "HEADER_SIZE",
    "IOField",
    "IOFormat",
    "MessageHeader",
    "PBIOContext",
    "Record",
    "TransformSpec",
    "TypeKind",
    "decode_message",
    "decode_record",
    "dump_registry",
    "encode_record",
    "encoded_size",
    "format_from_dict",
    "format_to_dict",
    "load_registry",
    "registry_from_dict",
    "registry_to_dict",
    "make_record",
    "native_size",
    "pack_header",
    "peek_format_id",
    "records_equal",
    "unpack_header",
]
