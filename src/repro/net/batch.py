"""BATCH1 — the wire-level message batch frame.

Per-message Python overhead (header peeks, trace splices,
reliable-endpoint bookkeeping) dominates the hot path once the
specialized codecs have flattened marshalling cost.  A BATCH1 frame
amortizes all of it: K complete PBIO messages ride in **one** frame, so
the whole group costs one transport send, one trace splice, one reliable
sequence number and one header peek at every hop that only routes bytes.

Frame layout (all integers big-endian)::

    +----------- BATCH1 header (12 bytes) ---------------------+
    | magic "BATCH1" (6) | version u8 (=1) | flags u8 | count u32 |
    +----------------------------------------------------------+
    | trace-context block (26 bytes, iff flags bit 0)          |
    +----------------------------------------------------------+
    | count x ( length u32 | message bytes )                   |
    +----------------------------------------------------------+

The trace block is the same 26-byte :mod:`repro.obs.tracectx` block the
PBIO header carries for single messages — spliced once per *frame*.
Messages inside a batch are normally published without their own trace
flag; because :class:`repro.obs.tracectx.activate` treats ``None`` as a
passthrough, the frame-level context stays active across every contained
message's processing.

Decoding is strict: short or over-claiming frames, zero counts, counts
that cannot fit the remaining payload, a trace flag without its block,
unknown flag bits and trailing bytes are all clean
:class:`~repro.errors.DecodeError`\\ s — the same contract every other
wire surface honors under the mutation oracle.

:func:`unpack_batch` never copies message bytes: it returns
``(offset, length)`` segments into the caller's buffer, so receivers can
hand ``memoryview`` slices straight to the zero-copy decode path.

This module is a leaf (stdlib + :mod:`repro.errors` +
:mod:`repro.obs`), importable from the morph/echo layers without
creating a cycle through the transports.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import DecodeError
from repro.obs import OBS
from repro.obs.metrics import COUNT_BUCKETS, Handles
from repro.obs.tracectx import (
    TRACE_BLOCK_SIZE,
    TraceContext,
    encode_block,
    read_block,
)

Buffer = Union[bytes, bytearray, memoryview]

#: Frame magic.  Distinct in its first byte from the PBIO header magic
#: and the RLP1 reliable framing, so one cheap prefix check routes a
#: datagram to the right decoder.
BATCH_MAGIC = b"BATCH1"
BATCH_VERSION = 1

#: Frame flag bit 0: a 26-byte trace-context block follows the header.
BATCH_FLAG_TRACE = 0x01
_KNOWN_FLAGS = BATCH_FLAG_TRACE

_HEADER = struct.Struct(">6sBBI")
#: Public alias of the frame-header Struct, referenced by the generated
#: vectorized batch encoders so their frames share this exact layout.
BATCH_HEADER = _HEADER
BATCH_HEADER_SIZE = _HEADER.size  # 12 bytes
_LEN = struct.Struct(">I")
#: Bytes of the u32 length prefix in front of every contained message —
#: with the header (and trace block) sizes, all a sender needs to bound
#: the frame it is about to pack.
BATCH_LENGTH_SIZE = _LEN.size  # 4 bytes

#: Smallest wire footprint of one contained message: its u32 length
#: prefix.  The count guard budgets the declared count against this, so
#: a corrupted count field can never drive a long allocation loop.
_MIN_SEGMENT_SIZE = _LEN.size

# The codec is module-level functions, so the module holds its handles.
_OBS_PACKED_FRAMES = Handles.counter("net.batch.packed_frames")
_OBS_PACKED_MESSAGES = Handles.counter("net.batch.packed_messages")
_OBS_SIZE = Handles.histogram("net.batch.size", bounds=COUNT_BUCKETS)
_OBS_UNPACKED_FRAMES = Handles.counter("net.batch.unpacked_frames")
_OBS_UNPACKED_MESSAGES = Handles.counter("net.batch.unpacked_messages")


@dataclass(frozen=True)
class BatchFrame:
    """The decoded shape of a BATCH1 frame: the frame-level trace (if
    any) and zero-copy ``(offset, length)`` segments into the original
    buffer — one per contained message, in wire order."""

    count: int
    trace: Optional[TraceContext]
    segments: Tuple[Tuple[int, int], ...]


def is_batch(data: Buffer, offset: int = 0) -> bool:
    """Whether *data* starts with the BATCH1 magic at *offset* (a cheap
    routing check; full validation happens in :func:`unpack_batch`)."""
    return bytes(data[offset:offset + len(BATCH_MAGIC)]) == BATCH_MAGIC


def pack_batch(
    messages: Sequence[Buffer], ctx: Optional[TraceContext] = None
) -> bytes:
    """Pack *messages* (complete single-message wires) into one BATCH1
    frame, splicing *ctx* as the frame-level trace block when given.

    Raises :class:`~repro.errors.DecodeError` for an empty batch — a
    zero-count frame is invalid on the wire, so it is never produced
    either."""
    if not messages:
        raise DecodeError("cannot pack an empty BATCH1 frame")
    flags = BATCH_FLAG_TRACE if ctx is not None else 0
    parts: List[bytes] = [
        _HEADER.pack(BATCH_MAGIC, BATCH_VERSION, flags, len(messages))
    ]
    if ctx is not None:
        parts.append(encode_block(ctx))
    for message in messages:
        parts.append(_LEN.pack(len(message)))
        parts.append(bytes(message))
    frame = b"".join(parts)
    record_batch_packed(len(messages))
    return frame


def record_batch_packed(count: int) -> None:
    """Record one packed frame of *count* messages in the obs counters.

    Shared by :func:`pack_batch` and the generated vectorized batch
    encoders (:func:`repro.pbio.codegen.make_batch_encoder`), so counter
    totals stay identical whichever path built the frame."""
    if OBS.enabled:
        _OBS_PACKED_FRAMES().inc()
        _OBS_PACKED_MESSAGES().inc(count)
        _OBS_SIZE().observe(count)


def unpack_batch(data: Buffer, offset: int = 0) -> BatchFrame:
    """Validate a BATCH1 frame and return its :class:`BatchFrame`.

    Every malformed shape — truncation anywhere (header, trace block,
    length prefix, mid-message), a zero or payload-exceeding count,
    unknown flag bits, a trace flag without its block, trailing bytes —
    raises a clean :class:`~repro.errors.DecodeError`."""
    end = len(data)
    if end - offset < BATCH_HEADER_SIZE:
        raise DecodeError(
            f"truncated BATCH1 header: need {BATCH_HEADER_SIZE} bytes, "
            f"have {end - offset}"
        )
    magic, version, flags, count = _HEADER.unpack_from(data, offset)
    if magic != BATCH_MAGIC:
        raise DecodeError(f"bad BATCH1 magic {magic!r}")
    if version != BATCH_VERSION:
        raise DecodeError(f"unsupported BATCH1 version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise DecodeError(f"unknown BATCH1 flags {flags:#04x}")
    if count == 0:
        raise DecodeError("zero-count BATCH1 frame")
    off = offset + BATCH_HEADER_SIZE
    trace: Optional[TraceContext] = None
    if flags & BATCH_FLAG_TRACE:
        if end - off < TRACE_BLOCK_SIZE:
            raise DecodeError(
                "BATCH1 trace flag set but the trace-context block is "
                f"truncated: need {TRACE_BLOCK_SIZE} bytes, have {end - off}"
            )
        trace = read_block(data, off)
        off += TRACE_BLOCK_SIZE
    if count > (end - off) // _MIN_SEGMENT_SIZE:
        raise DecodeError(
            f"BATCH1 count {count} exceeds the remaining payload "
            f"({end - off} bytes)"
        )
    segments: List[Tuple[int, int]] = []
    for index in range(count):
        if end - off < _LEN.size:
            raise DecodeError(
                f"truncated BATCH1 frame: length prefix of message "
                f"{index} cut short"
            )
        (length,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        if length > end - off:
            raise DecodeError(
                f"truncated BATCH1 frame: message {index} claims {length} "
                f"bytes, {end - off} remain"
            )
        segments.append((off, length))
        off += length
    if off != end:
        raise DecodeError(
            f"{end - off} trailing bytes after BATCH1 frame"
        )
    if OBS.enabled:
        _OBS_UNPACKED_FRAMES().inc()
        _OBS_UNPACKED_MESSAGES().inc(count)
    return BatchFrame(count=count, trace=trace, segments=tuple(segments))


def iter_batch(data: Buffer) -> Iterable[memoryview]:
    """Yield each contained message of a validated frame as a zero-copy
    ``memoryview`` slice of *data*."""
    frame = unpack_batch(data)
    view = data if isinstance(data, memoryview) else memoryview(data)
    for off, length in frame.segments:
        yield view[off:off + length]


def peek_batch_trace(data: Buffer, offset: int = 0) -> Optional[TraceContext]:
    """Best-effort read of a frame's trace block; ``None`` for non-batch
    or malformed data (transport-side sniffing must never raise)."""
    try:
        if not is_batch(data, offset):
            return None
        _magic, version, flags, _count = _HEADER.unpack_from(data, offset)
        if version != BATCH_VERSION or not flags & BATCH_FLAG_TRACE:
            return None
        return read_block(data, offset + BATCH_HEADER_SIZE)
    except Exception:  # noqa: BLE001 - sniffing is best-effort by contract
        return None
