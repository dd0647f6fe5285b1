"""PBIOContext — one endpoint's encode/decode state.

Ties together the format registry (out-of-band meta-data), the generated
specialized encoders/decoders (cached per format — the DCG behaviour the
paper measures), and the generic interpretive paths.

A coder is generated the *second* time this context encodes or decodes a
format; the first use runs the interpretive routine.  Generating one
costs several conversions (about five decodes of a small ECho record),
so a format seen once — an evolving writer's one-shot revision — would
never repay it, while a format seen twice is one that repeats.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import UnknownFormatError
from repro.obs import OBS
from repro.obs.metrics import Handles, Tallies, collect, counter, gauge
from repro.obs.tracectx import current, recording
from repro.pbio import codegen
from repro.pbio.buffer import MessageHeader, unpack_header
from repro.pbio.decode import decode_record as generic_decode_record
from repro.pbio.encode import encode_record as generic_encode_record
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry


#: Bound on each context's generated encoder/decoder cache.  A decoder is
#: cheap to regenerate but holds compiled code; endpoints that register
#: and unregister formats for years must stay flat.  (The per-order
#: ``payload_decoders`` inside one generated decoder is naturally bounded
#: at two entries — "<" and ">".)
CODEC_CACHE_MAX = 1024

#: A codec table maps a format id to ``(format, coder)`` — a flat
#: format's value coder sits under the id's bitwise complement — and a
#: call runs the coder only for that very format object (an equal one,
#: or a different format with a colliding id, takes the slow path).  A
#: format used once here is marked with ``_UNSEEN``: its next use
#: generates the coder (the mark shares the table's bound and FIFO).
_UNSEEN: Tuple[None, None] = (None, None)

#: by path: a generated coder's, or ("generic") the first use's fallback;
#: coders generated, and the codec tables' sizes
_COLLECTED = (
    counter("pbio.encode.messages", lambda t: {"generic": t.encoded_generic,
            "specialized": t.encoded - t.encoded_generic}, "path"),
    counter("pbio.encode.bytes", "encoded_bytes"),
    counter("pbio.decode.messages", lambda t: {"generic": t.decoded_generic,
            "specialized": t.decoded - t.decoded_generic}, "path"),
    counter("pbio.decode.bytes", "decoded_bytes"),
    counter("pbio.codegen.encoders", "encoders"),
    counter("pbio.codegen.decoders", "decoders"),
    gauge("pbio.context.encoder_cache_size", lambda ctx: len(ctx._encoders)),
    gauge("pbio.context.decoder_cache_size", lambda ctx: len(ctx._decoders)),
)


class PBIOContext:
    """Encode and decode wire messages for one endpoint.

    Parameters
    ----------
    registry:
        The shared (or replicated) :class:`FormatRegistry`; defaults to a
        fresh private registry.
    use_codegen:
        When True (default) encode/decode run through dynamically generated
        specialized routines; when False the generic interpretive paths are
        used.  The flag exists for the DCG ablation benchmarks.
    byte_order:
        The writer's native byte order ("little"/"big"), recorded in every
        outgoing header.  Decoding always honours the *incoming* header's
        flag — PBIO's receiver-makes-right rule — generating an
        opposite-order decoder on first need.

    With ``use_codegen`` a format's first encode (decode) here runs the
    interpretive routine and its second generates the specialized one;
    both produce the same bytes (records), which the ``roundtrip`` and
    ``mutation`` oracles hold them to.
    """

    def __init__(
        self,
        registry: Optional[FormatRegistry] = None,
        use_codegen: bool = True,
        byte_order: str = "little",
    ) -> None:
        self.registry = registry if registry is not None else FormatRegistry()
        self.use_codegen = use_codegen
        self.byte_order = byte_order
        self._lock = threading.Lock()
        #: per format id: ``(format, coder)``, or ``_UNSEEN``
        self._encoders: Dict[int, Any] = {}
        self._decoders: Dict[int, Any] = {}
        self._tally = Tallies(encoded=0, encoded_generic=0, encoded_bytes=0,
                              decoded=0, decoded_generic=0, decoded_bytes=0,
                              encoders=0, decoders=0)
        collect(self, self._tally, _COLLECTED)
        self._encode_seconds = Handles.histogram("pbio.encode.seconds")
        self._decode_seconds = Handles.histogram("pbio.decode.seconds")

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, fmt: IOFormat, rec: Mapping[str, Any]) -> bytes:
        """Encode *rec* as a wire message of *fmt* (registering it on
        this context's first sight of it)."""
        if OBS.enabled and recording(current()):
            return self._observed_encode(fmt.format_id, fmt, rec, False)
        entry = self._encoders.get(fmt.format_id, _UNSEEN)
        if entry[0] is fmt:
            wire = entry[1](rec)
        else:
            wire = self._encode(fmt.format_id, fmt, rec, False)
        self._tally.encoded += 1
        self._tally.encoded_bytes += len(wire)
        return wire

    def encode_values(self, fmt: IOFormat, values: Tuple[Any, ...]) -> bytes:
        """:meth:`encode` of the record of the flat *fmt* (strings and
        fixed-width scalars, :func:`~repro.pbio.codegen.is_flat`) whose
        field values, in declared order, are *values* — the same bytes,
        counted and traced as an encode, with no record built."""
        key = ~fmt.format_id
        if OBS.enabled and recording(current()):
            return self._observed_encode(key, fmt, values, True)
        entry = self._encoders.get(key, _UNSEEN)
        if entry[0] is fmt:
            wire = entry[1](values)
        else:
            wire = self._encode(key, fmt, values, True)
        self._tally.encoded += 1
        self._tally.encoded_bytes += len(wire)
        return wire

    def _observed_encode(
        self, key: int, fmt: IOFormat, rec: Any, values: bool
    ) -> bytes:
        # a format this context has not seen runs the interpretive path
        seen = key in self._encoders
        with OBS.tracer.span("pbio.encode", format=fmt.name, path=(
            "specialized" if seen else "generic"
        )) as active:
            wire = self._encode(key, fmt, rec, values)
        # the span already timed the call: one pair of clock reads
        self._encode_seconds().observe(active.span.duration)
        self._tally.encoded += 1
        self._tally.encoded_bytes += len(wire)
        return wire

    def _encode(self, key: int, fmt: IOFormat, rec: Any, values: bool) -> bytes:
        entry = self._encoders.get(key, _UNSEEN)
        if entry[0] is not fmt:
            # first sight here, or another object under this id: the
            # registry refuses a different format with a colliding id
            self.registry.register(fmt)
            # through the module: instrumentation patches it there
            make = codegen.make_value_encoder if values else codegen.make_encoder
            entry = self._second_sight(
                self._encoders, key, fmt,
                lambda: make(fmt, byte_order=self.byte_order))
            if entry[1] is None:
                if values:
                    codegen.require_flat(fmt)
                    rec = dict(zip(fmt.field_names(), rec))
                wire = generic_encode_record(
                    fmt, rec, byte_order=self.byte_order
                )
                self._tally.encoded_generic += 1
                return wire
        return entry[1](rec)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, data: bytes) -> Tuple[IOFormat, Record]:
        """Decode a wire message, resolving its format via the registry.

        Returns ``(format, record)``; raises :class:`UnknownFormatError`
        for unregistered format ids."""
        header = unpack_header(data)
        fmt = self.registry.lookup_id(header.format_id)
        if fmt is None:
            raise UnknownFormatError(header.format_id)
        return fmt, self.decode_as(fmt, data, header)

    def decode_as(
        self, fmt: IOFormat, data: bytes,
        header: Optional[MessageHeader] = None,
    ) -> Record:
        """Decode *data* with the (possibly generated) decoder for *fmt*.

        *header* is what :func:`~repro.pbio.buffer.unpack_header` gave
        the caller for *data* (or for the buffer *data* is the front of):
        the decoder checks it against *data* — flags and declared length
        (:func:`~repro.pbio.buffer.check_header`), format id — instead of
        parsing the header a second time, and accepts and refuses
        exactly what it does without one.  A header of another message
        is refused with :class:`~repro.errors.DecodeError`."""
        if OBS.enabled and recording(current()):
            return self._observed_decode(
                fmt.format_id, fmt, data, header, False)
        entry = self._decoders.get(fmt.format_id, _UNSEEN)
        if entry[0] is fmt:
            record = entry[1](data, header)
        else:
            record = self._decode(fmt.format_id, fmt, data, header, False)
        self._tally.decoded += 1
        self._tally.decoded_bytes += len(data)
        return record

    def decode_values(
        self, fmt: IOFormat, data: bytes,
        header: Optional[MessageHeader] = None,
    ) -> Tuple[Any, ...]:
        """:meth:`decode_as` of the flat *fmt* that returns the tuple of
        the field values in declared order, with no record built: the
        same checks, the same refusals, counted and traced as a
        decode."""
        key = ~fmt.format_id
        if OBS.enabled and recording(current()):
            return self._observed_decode(key, fmt, data, header, True)
        entry = self._decoders.get(key, _UNSEEN)
        if entry[0] is fmt:
            values = entry[1](data, header)
        else:
            values = self._decode(key, fmt, data, header, True)
        self._tally.decoded += 1
        self._tally.decoded_bytes += len(data)
        return values

    def _observed_decode(
        self, key: int, fmt: IOFormat, data: bytes,
        header: Optional[MessageHeader], values: bool,
    ) -> Any:
        seen = key in self._decoders
        with OBS.tracer.span("pbio.decode", format=fmt.name, path=(
            "specialized" if seen else "generic"
        )) as active:
            decoded = self._decode(key, fmt, data, header, values)
        self._decode_seconds().observe(active.span.duration)
        self._tally.decoded += 1
        self._tally.decoded_bytes += len(data)
        return decoded

    def _decode(
        self, key: int, fmt: IOFormat, data: bytes,
        header: Optional[MessageHeader], values: bool,
    ) -> Any:
        entry = self._decoders.get(key, _UNSEEN)
        if entry[0] is not fmt:
            make = codegen.make_value_decoder if values else codegen.make_decoder
            entry = self._second_sight(
                self._decoders, key, fmt, lambda: make(fmt))
            if entry[1] is None:
                if values:
                    codegen.require_flat(fmt)
                record = generic_decode_record(fmt, data, header)
                self._tally.decoded_generic += 1
                if values:
                    return tuple(record[field.name] for field in fmt.fields)
                return record
        return entry[1](data, header)

    def _second_sight(
        self, cache: Dict[int, Any], key: int, fmt: IOFormat,
        generate: Callable[[], Any],
    ) -> Tuple[Optional[IOFormat], Any]:
        """The ``(format, coder)`` entry of *cache* for *fmt* on its
        second use here (the coder generated then, and counted in the
        tallies), or one whose coder is ``None`` — run the interpretive
        one — for its first (marked in *cache*) and always without
        ``use_codegen``.  An entry made for another object of the same
        id serves *fmt* as it is.  A new entry evicts FIFO at
        :data:`CODEC_CACHE_MAX`, so format churn cannot leak marks or
        compiled code."""
        if not self.use_codegen:
            return _UNSEEN
        with self._lock:
            entry = cache.get(key)
            if entry is None:
                while len(cache) >= CODEC_CACHE_MAX:
                    cache.pop(next(iter(cache)))
                cache[key] = _UNSEEN
                return _UNSEEN
            if entry[1] is None:
                start = time.perf_counter()
                entry = cache[key] = (fmt, generate())
                if cache is self._encoders:
                    self._tally.encoders += 1
                else:
                    self._tally.decoders += 1
                if OBS.enabled:
                    OBS.metrics.histogram("pbio.codegen.seconds").observe(
                        time.perf_counter() - start)
            return entry

    def peek_format(self, data: bytes) -> Optional[IOFormat]:
        """Resolve the format of a wire message without decoding it."""
        return self.registry.lookup_id(unpack_header(data).format_id)

    # ------------------------------------------------------------------
    # Introspection (for tests / ablations)
    # ------------------------------------------------------------------

    @property
    def generated_decoder_count(self) -> int:
        return _generated(self._decoders)

    @property
    def generated_encoder_count(self) -> int:
        return _generated(self._encoders)


def _generated(cache: Dict[int, Any]) -> int:
    return sum(coder is not None for _fmt, coder in cache.values())
