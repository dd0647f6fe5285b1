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
from repro.obs.metrics import Handles
from repro.obs.tracectx import current, recording
from repro.pbio import codegen
from repro.pbio.buffer import unpack_header
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

#: what a codec table holds for a format used once here: its next use
#: generates the coder (it shares the table's bound and its FIFO)
_SEEN_ONCE: Any = object()


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
        #: per format id: the generated coder, or ``_SEEN_ONCE``
        self._encoders: Dict[int, Any] = {}
        self._decoders: Dict[int, Any] = {}
        self._obs_encode_messages = Handles.counter(
            "pbio.encode.messages", "path")
        self._obs_encode_bytes = Handles.counter("pbio.encode.bytes")
        self._obs_encode_seconds = Handles.histogram("pbio.encode.seconds")
        self._obs_decode_messages = Handles.counter(
            "pbio.decode.messages", "path")
        self._obs_decode_bytes = Handles.counter("pbio.decode.bytes")
        self._obs_decode_seconds = Handles.histogram("pbio.decode.seconds")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_format(self, fmt: IOFormat) -> int:
        return self.registry.register(fmt)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, fmt: IOFormat, rec: Mapping[str, Any]) -> bytes:
        """Encode *rec* as a wire message of *fmt* (registering it)."""
        if not OBS.enabled:
            return self._encode(fmt, rec)
        # a format this context has not seen runs the interpretive path
        path = "specialized" if fmt.format_id in self._encoders else "generic"
        if recording(current()):
            with OBS.tracer.span(
                "pbio.encode", format=fmt.name, path=path
            ) as active:
                wire = self._encode(fmt, rec)
            # the span already timed the call: one pair of clock reads
            self._obs_encode_seconds().observe(active.span.duration)
        else:
            wire = self._encode(fmt, rec)
        self._obs_encode_messages(path).inc()
        self._obs_encode_bytes().inc(len(wire))
        return wire

    def _encode(self, fmt: IOFormat, rec: Mapping[str, Any]) -> bytes:
        self.registry.register(fmt)
        encoder = self._encoders.get(fmt.format_id)
        if encoder is None or encoder is _SEEN_ONCE:
            encoder = self._second_sight(
                self._encoders, fmt,
                # through the module: instrumentation patches it there
                lambda: codegen.make_encoder(fmt, byte_order=self.byte_order),
                "pbio.codegen.encoders", "pbio.context.encoder_cache_size",
            )
            if encoder is None:
                return generic_encode_record(
                    fmt, rec, byte_order=self.byte_order
                )
        return encoder(rec)

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
        return fmt, self.decode_as(fmt, data)

    def decode_as(self, fmt: IOFormat, data: bytes) -> Record:
        """Decode *data* with the (possibly generated) decoder for *fmt*."""
        if not OBS.enabled:
            return self._decode_as(fmt, data)
        path = "specialized" if fmt.format_id in self._decoders else "generic"
        if recording(current()):
            with OBS.tracer.span(
                "pbio.decode", format=fmt.name, path=path
            ) as active:
                record = self._decode_as(fmt, data)
            self._obs_decode_seconds().observe(active.span.duration)
        else:
            record = self._decode_as(fmt, data)
        self._obs_decode_messages(path).inc()
        self._obs_decode_bytes().inc(len(data))
        return record

    def _decode_as(self, fmt: IOFormat, data: bytes) -> Record:
        decoder = self._decoders.get(fmt.format_id)
        if decoder is None or decoder is _SEEN_ONCE:
            decoder = self._second_sight(
                self._decoders, fmt, lambda: codegen.make_decoder(fmt),
                "pbio.codegen.decoders", "pbio.context.decoder_cache_size",
            )
            if decoder is None:
                return generic_decode_record(fmt, data)
        return decoder(data)

    def _second_sight(
        self, cache: Dict[int, Any], fmt: IOFormat,
        generate: Callable[[], Any], counter: str, gauge: str,
    ) -> Any:
        """The generated coder for a format's second use here (counted
        in *counter*), or ``None`` — run the interpretive one — for its
        first (marked in *cache*) and always without ``use_codegen``.  A
        new entry evicts FIFO at :data:`CODEC_CACHE_MAX`, so format churn
        cannot leak marks or compiled code; the size is the *gauge*."""
        if not self.use_codegen:
            return None
        format_id = fmt.format_id
        with self._lock:
            codec = cache.get(format_id)
            if codec is _SEEN_ONCE:
                start = time.perf_counter()
                codec = cache[format_id] = generate()
                if OBS.enabled:
                    metrics = OBS.metrics
                    metrics.counter(counter).inc()
                    metrics.histogram("pbio.codegen.seconds").observe(
                        time.perf_counter() - start
                    )
            elif codec is None:
                while len(cache) >= CODEC_CACHE_MAX:
                    cache.pop(next(iter(cache)))
                cache[format_id] = _SEEN_ONCE
                if OBS.enabled:
                    OBS.metrics.gauge(gauge).set(len(cache))
            return codec

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
    return sum(codec is not _SEEN_ONCE for codec in cache.values())
