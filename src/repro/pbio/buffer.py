"""Low-level wire buffer primitives.

All multi-byte quantities are little-endian on the wire (real PBIO records
native byte order in the meta-data and converts on the receiver only when
needed; we fix the wire order and note the receiver-side conversion cost is
paid symmetrically by both compared systems).

Wire message layout::

    +---------------------------- header (20 bytes) -----------------------------+
    | magic u32 | version u8 | flags u8 | reserved u16 | format_id u64 | len u32 |
    +-----------------------------------------------------------------------------+
    | payload: fields in declared order                                           |
    +-----------------------------------------------------------------------------+

* scalars: fixed width per the field declaration,
* strings: u32 byte length + UTF-8 bytes,
* fixed arrays: elements inline,
* variable arrays: elements inline; the element count is the value of the
  (earlier) count field, so no extra length prefix is spent.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.errors import DecodeError, EncodeError
from repro.obs.tracectx import (
    TRACE_BLOCK_SIZE,
    TraceContext,
    check_block,
    decode_block,
    encode_block,
    read_block,
)

MAGIC = 0x5042494F  # "PBIO"
WIRE_VERSION = 1
HEADER = struct.Struct("<IBBHQI")
HEADER_SIZE = HEADER.size  # 20 bytes: the paper's "< 30 bytes" envelope

#: Header flag bit: payload scalars are big-endian.  Real PBIO writes in
#: the sender's *native* order and lets the receiver convert only when
#: orders differ ("receiver makes right"); the flag carries that decision.
FLAG_BIG_ENDIAN = 0x01

#: Header flag bit: a 26-byte distributed trace-context block
#: (:mod:`repro.obs.tracectx`) sits between the header and the payload.
#: Messages published with tracing disabled never set this flag and
#: carry zero extra bytes — the wire is byte-identical to an untraced
#: build, so the paper's Figure 8-10 numbers are untouched.
FLAG_TRACE = 0x02

#: Byte offset of the flags field inside the packed header.
_FLAGS_OFFSET = 5

#: struct prefix characters per byte-order name.
ORDER_PREFIX = {"little": "<", "big": ">"}


class MessageHeader:
    """Decoded wire header (plus the optional trace-context block).

    ``body_offset`` is the absolute index where the payload starts —
    ``offset + HEADER_SIZE``, plus :data:`~repro.obs.tracectx.TRACE_BLOCK_SIZE`
    when the message carries a trace block.  Every payload-slicing site
    must use it instead of assuming ``HEADER_SIZE``.

    ``trace`` is read on demand: :func:`unpack_header` checks the block
    (length, version) but most callers only want the format id and the
    body offset, so the :class:`TraceContext` is built when asked for."""

    __slots__ = ("format_id", "payload_length", "flags", "version",
                 "body_offset", "_trace")

    def __init__(
        self,
        format_id: int,
        payload_length: int,
        flags: int = 0,
        version: int = WIRE_VERSION,
        trace: Any = None,
        body_offset: int = HEADER_SIZE,
    ) -> None:
        self.format_id = format_id
        self.payload_length = payload_length
        self.flags = flags
        self.version = version
        self.body_offset = body_offset
        #: a TraceContext, None, or the ``(buffer, offset)`` of a block
        #: not yet read
        self._trace = trace

    @property
    def trace(self) -> Optional[TraceContext]:
        trace = self._trace
        if type(trace) is tuple:
            trace = self._trace = read_block(*trace)
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MessageHeader(format_id={self.format_id:#x}, "
                f"payload_length={self.payload_length}, flags={self.flags})")


def pack_header(format_id: int, payload_length: int, flags: int = 0) -> bytes:
    return HEADER.pack(MAGIC, WIRE_VERSION, flags, 0, format_id, payload_length)


def unpack_header(data: bytes, offset: int = 0) -> MessageHeader:
    if len(data) - offset < HEADER_SIZE:
        raise DecodeError(
            f"buffer too short for header: need {HEADER_SIZE} bytes, "
            f"have {len(data) - offset}"
        )
    try:
        magic, version, flags, _reserved, format_id, length = HEADER.unpack_from(
            data, offset
        )
    except struct.error as exc:
        raise DecodeError(f"unreadable header: {exc}") from None
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic:#x} (expected {MAGIC:#x})")
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported wire version {version}")
    trace = None
    body = offset + HEADER_SIZE
    if flags & FLAG_TRACE:
        check_block(data, body)  # raises DecodeError when malformed
        trace = (data, body)
        body += TRACE_BLOCK_SIZE
    if len(data) - body < length:
        raise DecodeError(
            f"truncated payload: header declares {length} bytes, "
            f"have {len(data) - body}"
        )
    return MessageHeader(format_id, length, flags, version, trace, body)


def canonical_format_id(wire: bytes) -> Optional[int]:
    """The format id of *wire* when its bytes are what a repro encoder
    writes for it in native order (before a trace block is attached),
    else None.  Never raises.

    That asks for a well-formed header in little-endian order (flags at
    most :data:`FLAG_TRACE`), zero reserved bytes and no byte past the
    declared payload end: the 64-bit id fingerprints the layout, so
    re-encoding the decoded record in that format writes the same body.
    A hand-made body may still differ from its re-encode where the
    decoder maps two byte patterns to one value — a boolean byte other
    than 0/1, a 4-byte signalling NaN — but both decode to the same
    record (docs/PERFORMANCE.md, "Identity pass-through")."""
    if len(wire) < HEADER_SIZE:
        return None
    magic, version, flags, reserved, format_id, length = HEADER.unpack_from(wire)
    if (magic != MAGIC or version != WIRE_VERSION or reserved
            or flags | FLAG_TRACE != FLAG_TRACE):
        return None
    body = HEADER_SIZE + TRACE_BLOCK_SIZE if flags else HEADER_SIZE
    return format_id if len(wire) == body + length else None


# ---------------------------------------------------------------------------
# Trace-context block attachment (the morphing layer's send path calls
# these; encoders themselves never emit the block, keeping every encode
# byte-identical whether tracing exists or not)
# ---------------------------------------------------------------------------


def attach_trace(wire: bytes, ctx: TraceContext) -> bytes:
    """Return *wire* with *ctx* spliced in as its trace-context block
    (header flag set, 26 bytes inserted after the header)."""
    if len(wire) < HEADER_SIZE:
        raise EncodeError("cannot attach a trace block to a truncated message")
    flags = wire[_FLAGS_OFFSET]
    if flags & FLAG_TRACE:
        raise EncodeError("wire message already carries a trace block")
    out = bytearray(wire)
    out[_FLAGS_OFFSET] = flags | FLAG_TRACE
    out[HEADER_SIZE:HEADER_SIZE] = encode_block(ctx)
    return bytes(out)


def strip_trace(wire: bytes) -> Tuple[bytes, Optional[TraceContext]]:
    """Split a wire message into its traceless form and the carried
    context (``(wire, None)`` when no block is present)."""
    if len(wire) < HEADER_SIZE or not wire[_FLAGS_OFFSET] & FLAG_TRACE:
        return wire, None
    ctx = decode_block(wire, HEADER_SIZE)
    out = bytearray(wire)
    out[_FLAGS_OFFSET] &= ~FLAG_TRACE & 0xFF
    del out[HEADER_SIZE : HEADER_SIZE + TRACE_BLOCK_SIZE]
    return bytes(out), ctx


def peek_trace(data: bytes, offset: int = 0) -> Optional[TraceContext]:
    """Best-effort trace-context sniff: the carried context when *data*
    holds a well-formed traced PBIO message at *offset*, else None.
    Never raises — the transport layers call this on arbitrary frames."""
    if len(data) - offset < HEADER_SIZE + TRACE_BLOCK_SIZE:
        return None
    if not data[offset + _FLAGS_OFFSET] & FLAG_TRACE:
        return None
    try:
        magic, version = struct.unpack_from("<IB", data, offset)
    except struct.error:
        return None
    if magic != MAGIC or version != WIRE_VERSION:
        return None
    try:
        return read_block(data, offset + HEADER_SIZE)
    except DecodeError:
        return None


class WireWriter:
    """Append-only binary writer backed by a pre-sized bytearray.

    *order* is the struct prefix for scalar packing (``"<"`` little,
    ``">"`` big — the writer's declared native order).

    Scalars are packed **in place** with :meth:`struct.Struct.pack_into`
    against a capacity-doubling buffer, so the generic encoder's hot loop
    allocates no temporary ``bytes`` per ``write_struct`` call."""

    __slots__ = ("_buffer", "_size", "order")

    _INITIAL_CAPACITY = 256

    def __init__(self, order: str = "<") -> None:
        self._buffer = bytearray(self._INITIAL_CAPACITY)
        self._size = 0
        self.order = order

    def __len__(self) -> int:
        return self._size

    def getvalue(self) -> bytes:
        return bytes(memoryview(self._buffer)[: self._size])

    def _reserve(self, count: int) -> None:
        needed = self._size + count
        capacity = len(self._buffer)
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            self._buffer.extend(bytes(capacity - len(self._buffer)))

    def write_struct(self, packer: struct.Struct, *values: Any) -> None:
        self._reserve(packer.size)
        try:
            packer.pack_into(self._buffer, self._size, *values)
        except struct.error as exc:
            raise EncodeError(f"cannot pack {values!r}: {exc}") from None
        self._size += packer.size

    def write_scalar(self, code: str, value: Any) -> None:
        # struct module-level calls cache the compiled format internally
        fmt = self.order + code
        size = struct.calcsize(fmt)
        self._reserve(size)
        try:
            struct.pack_into(fmt, self._buffer, self._size, value)
        except (struct.error, OverflowError) as exc:
            raise EncodeError(f"cannot pack {value!r} as {code!r}: {exc}") from None
        self._size += size

    def write_string(self, value: str) -> None:
        encoded = value.encode("utf-8")
        length = len(encoded)
        self._reserve(4 + length)
        struct.pack_into(self.order + "I", self._buffer, self._size, length)
        self._buffer[self._size + 4 : self._size + 4 + length] = encoded
        self._size += 4 + length

    def write_bytes(self, data: bytes) -> None:
        count = len(data)
        self._reserve(count)
        self._buffer[self._size : self._size + count] = data
        self._size += count


class WireReader:
    """Sequential binary reader with bounds checking."""

    __slots__ = ("_data", "_view", "_offset", "_end", "order")

    def __init__(self, data: bytes, offset: int = 0, end: int = -1,
                 order: str = "<") -> None:
        self._data = data
        # strings decode straight from a memoryview slice: one copy
        # fewer than slicing the bytes object first
        self._view = memoryview(data)
        self._offset = offset
        self._end = len(data) if end < 0 else end
        self.order = order

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return self._end - self._offset

    def _require(self, count: int) -> None:
        if self._end - self._offset < count:
            raise DecodeError(
                f"truncated buffer: need {count} bytes at offset "
                f"{self._offset}, have {self._end - self._offset}"
            )

    def read_struct(self, packer: struct.Struct) -> Tuple[Any, ...]:
        self._require(packer.size)
        try:
            values = packer.unpack_from(self._data, self._offset)
        except struct.error as exc:
            raise DecodeError(f"unreadable bytes at offset {self._offset}: {exc}") from None
        self._offset += packer.size
        return values

    def read_scalar(self, code: str, size: int) -> Any:
        self._require(size)
        try:
            (value,) = struct.unpack_from(self.order + code, self._data, self._offset)
        except struct.error as exc:
            raise DecodeError(f"unreadable scalar at offset {self._offset}: {exc}") from None
        self._offset += size
        return value

    def read_string(self) -> str:
        self._require(4)
        try:
            (length,) = struct.unpack_from(self.order + "I", self._data, self._offset)
        except struct.error as exc:
            raise DecodeError(f"unreadable string length at offset {self._offset}: {exc}") from None
        self._offset += 4
        self._require(length)
        raw = self._view[self._offset : self._offset + length]
        self._offset += length
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in string field: {exc}") from None

    def read_bytes(self, count: int) -> bytes:
        self._require(count)
        raw = self._data[self._offset : self._offset + count]
        self._offset += count
        return bytes(raw)
