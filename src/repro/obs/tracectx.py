"""Distributed trace context — the identity that crosses the wire.

A :class:`TraceContext` is the W3C-traceparent-style triple the morphing
middleware threads through a message's whole cross-process journey:

* a **128-bit trace id** naming the journey (one per published event),
* a **64-bit span id** naming the hop that forwarded it (the sender's
  publish span), and
* a **sampled** flag: the head-sampling decision, taken once where the
  context is minted (:func:`mint` gives one message in every
  ``OBS.sample_every`` a context and the rest none) and read by every
  per-message span site through :func:`recording`.

On the wire the context travels as a fixed 26-byte block between the
PBIO header and the payload, announced by a header flag
(:data:`repro.pbio.buffer.FLAG_TRACE`), so a message published with
tracing disabled is **byte-identical** to one from a build without this
module::

    +------ trace-context block (26 bytes, big-endian) ------+
    | version u8 (=0) | flags u8 (bit0 = sampled) |
    | trace_id: 16 bytes | span_id: u64 |
    +--------------------------------------------------------+

In-process propagation is a per-thread *current context*
(:func:`current` / :class:`activate`); :mod:`repro.obs.tracing` stamps
every span recorded while a context is active with its trace id, and
:class:`repro.obs.metrics.Histogram` keeps the latest traceparent per
bucket as an exemplar.

This module is a leaf (stdlib, :mod:`repro.errors` and the switchboard
:mod:`repro.obs.state` only) so the wire layer, the metrics registry and
the tracer can all import it without cycles.
"""

from __future__ import annotations

import random
import struct
import threading
from contextlib import nullcontext
from typing import Optional

from repro.errors import DecodeError
from repro.obs.state import OBS

#: Trace-context block layout: version u8, flags u8, trace_id 16 bytes,
#: span_id u64 — all big-endian (the W3C traceparent convention).
_BLOCK = struct.Struct(">BB16sQ")
TRACE_BLOCK_SIZE = _BLOCK.size  # 26 bytes
TRACE_BLOCK_VERSION = 0

#: Block flag bit 0: the trace is sampled (recorders should keep spans).
_FLAG_SAMPLED = 0x01


class TraceContext:
    """One message's distributed trace identity.

    ``origin`` is a process-local (never serialized) marker: True on the
    process that *created* the context, until its first root span claims
    ``span_id`` as its own distributed id.  Contexts decoded off the wire
    always have ``origin=False``, so receive-side root spans parent to
    ``span_id`` instead of claiming it.

    ``trace_id`` and ``span_id`` are fixed for a context's life; its
    26-byte wire form is kept once computed (:func:`encode_block`,
    :func:`decode_block`), which is what lets :func:`read_block`
    recognise the active context in a buffer by comparing bytes.
    """

    __slots__ = ("trace_id", "span_id", "sampled", "origin", "_block")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        sampled: bool = True,
        origin: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.origin = origin
        self._block: Optional[bytes] = None

    def traceparent(self) -> str:
        """The W3C ``traceparent`` rendering: ``00-<trace>-<span>-<flags>``."""
        flags = _FLAG_SAMPLED if self.sampled else 0
        return f"00-{self.trace_id:032x}-{self.span_id:016x}-{flags:02x}"

    def child(self, span_id: int) -> "TraceContext":
        """A context for a downstream hop: same trace, new hop span id."""
        return TraceContext(self.trace_id, span_id, self.sampled, origin=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.traceparent()})"


# ---------------------------------------------------------------------------
# Wire block codec
# ---------------------------------------------------------------------------


def encode_block(ctx: TraceContext) -> bytes:
    """The 26-byte wire form of *ctx*."""
    flags = _FLAG_SAMPLED if ctx.sampled else 0
    block = ctx._block
    if block is None or block[1] != flags:
        block = ctx._block = _BLOCK.pack(
            TRACE_BLOCK_VERSION, flags, ctx.trace_id.to_bytes(16, "big"),
            ctx.span_id,
        )
    return block


def check_block(data: bytes, offset: int = 0) -> None:
    """Raise :class:`~repro.errors.DecodeError` — the contract every
    malformed-wire path shares — when the bytes at *offset* are not a
    readable trace-context block: truncated, or of an unknown version."""
    if len(data) - offset < TRACE_BLOCK_SIZE:
        raise DecodeError(
            f"truncated trace-context block: need {TRACE_BLOCK_SIZE} bytes "
            f"at offset {offset}, have {len(data) - offset}"
        )
    if data[offset] != TRACE_BLOCK_VERSION:
        raise DecodeError(f"unsupported trace-context version {data[offset]}")


def decode_block(data: bytes, offset: int = 0) -> TraceContext:
    """Decode a trace-context block at *offset*; raises as
    :func:`check_block` does."""
    check_block(data, offset)
    _version, flags, trace_bytes, span_id = _BLOCK.unpack_from(data, offset)
    ctx = TraceContext(
        int.from_bytes(trace_bytes, "big"), span_id,
        bool(flags & _FLAG_SAMPLED), False,
    )
    ctx._block = bytes(data[offset:offset + TRACE_BLOCK_SIZE])
    return ctx


def read_block(data: bytes, offset: int = 0) -> TraceContext:
    """The context of the block at *offset*, decoding it only when it is
    not the one already active.

    A datagram's block is read by every layer it passes — transport,
    reliable endpoint, fabric/ECho handler, the envelope's and the
    payload's ``unpack_header``, ``MorphReceiver.process`` — and each
    layer runs inside the :class:`activate` of the one below.  When the
    26 bytes are the active context's own wire form, that context *is*
    the decoded result (same ids, same flag, and ``origin`` false like
    every context off the wire), so it is returned as is; any other
    block — another trace, a child hop, a malformed block — goes through
    :func:`decode_block` and raises as it does."""
    active = getattr(_local, "ctx", None)
    if active is not None and not active.origin:
        block = active._block
        if (block is not None and block == data[offset:offset + TRACE_BLOCK_SIZE]
                and block[1] == active.sampled):
            return active
    return decode_block(data, offset)


# ---------------------------------------------------------------------------
# Id generation (seedable, so traced test runs are reproducible)
# ---------------------------------------------------------------------------

_rng = random.Random()
_rng_lock = threading.Lock()


def seed_ids(seed: int) -> None:
    """Re-seed the trace/span id generator (deterministic test runs)."""
    with _rng_lock:
        _rng.seed(seed)


def new_trace_id() -> int:
    with _rng_lock:
        value = _rng.getrandbits(128)
    return value or 1  # zero is the W3C invalid-trace sentinel


def new_span_id() -> int:
    with _rng_lock:
        value = _rng.getrandbits(64)
    return value or 1


def make_context(sampled: bool = True) -> TraceContext:
    """A fresh root context for a newly published message."""
    return TraceContext(new_trace_id(), new_span_id(), sampled, origin=True)


def mint() -> Optional[TraceContext]:
    """The head-sampling decision, taken where a message is published: a
    fresh sampled context for one of every ``OBS.sample_every``
    consecutive calls (the first after :func:`repro.obs.enable`
    included), ``None`` for the rest — those messages carry no trace
    block and no per-message site records a span or a duration for them.
    A plain count: a lost update between threads moves which message is
    sampled, never what an unsampled one costs."""
    count = OBS.minted
    OBS.minted = count + 1
    if count % OBS.sample_every:
        return None
    return make_context()


def recording(ctx: Optional[TraceContext]) -> bool:
    """Whether a per-message site should trace and time the message
    whose context (its own, else the active one) is *ctx* — the one test
    such a site makes before it builds a span, its attributes or an
    :class:`activate`.  Counters and gauges are not behind it."""
    return OBS.sample_every == 1 or (ctx is not None and ctx.sampled)


#: what a site enters in place of an :class:`activate` and a span when it
#: is not recording
UNRECORDED = nullcontext()


# ---------------------------------------------------------------------------
# In-process propagation (per-thread current context)
# ---------------------------------------------------------------------------

_local = threading.local()


def current() -> Optional[TraceContext]:
    """The thread's active trace context, or None."""
    return getattr(_local, "ctx", None)


class activate:
    """Context manager installing *ctx* as the thread's current trace
    context for the duration of the block.  ``activate(None)`` is a
    no-op passthrough, so call sites need no branch."""

    __slots__ = ("ctx", "_prev")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self.ctx = ctx
        self._prev: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            self._prev = getattr(_local, "ctx", None)
            _local.ctx = self.ctx
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.ctx is not None:
            _local.ctx = self._prev


class isolate(activate):
    """:class:`activate` that installs ``None`` too.  The reliable
    layer's reorder buffer hands up payloads that are not the datagram
    whose arrival is the active context; an untraced one among them must
    run under no context, not under that neighbour's."""

    __slots__ = ()

    def __enter__(self) -> Optional[TraceContext]:
        self._prev = getattr(_local, "ctx", None)
        _local.ctx = self.ctx
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        _local.ctx = self._prev
