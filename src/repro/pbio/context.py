"""PBIOContext — one endpoint's encode/decode state.

Ties together the format registry (out-of-band meta-data), the generated
specialized encoders/decoders (cached per format, created on first use —
the DCG behaviour the paper measures), and the generic fallback paths.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple

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
        self._encoders: Dict[int, codegen.EncoderFn] = {}
        self._decoders: Dict[int, codegen.DecoderFn] = {}
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
        path = "specialized" if self.use_codegen else "generic"
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
        if not self.use_codegen:
            return generic_encode_record(fmt, rec, byte_order=self.byte_order)
        encoder = self._encoders.get(fmt.format_id)
        if encoder is None:
            with self._lock:
                encoder = self._encoders.get(fmt.format_id)
                if encoder is None:
                    start = time.perf_counter()
                    encoder = codegen.make_encoder(fmt, byte_order=self.byte_order)
                    if OBS.enabled:
                        metrics = OBS.metrics
                        metrics.counter("pbio.codegen.encoders").inc()
                        metrics.histogram("pbio.codegen.seconds").observe(
                            time.perf_counter() - start
                        )
                    self._cache_codec(self._encoders, fmt.format_id, encoder,
                                      "pbio.context.encoder_cache_size")
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
        path = "specialized" if self.use_codegen else "generic"
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
        if not self.use_codegen:
            return generic_decode_record(fmt, data)
        decoder = self._decoders.get(fmt.format_id)
        if decoder is None:
            with self._lock:
                decoder = self._decoders.get(fmt.format_id)
                if decoder is None:
                    start = time.perf_counter()
                    decoder = codegen.make_decoder(fmt)
                    if OBS.enabled:
                        metrics = OBS.metrics
                        metrics.counter("pbio.codegen.decoders").inc()
                        metrics.histogram("pbio.codegen.seconds").observe(
                            time.perf_counter() - start
                        )
                    self._cache_codec(self._decoders, fmt.format_id, decoder,
                                      "pbio.context.decoder_cache_size")
        return decoder(data)

    def _cache_codec(
        self, cache: Dict[int, Any], format_id: int, codec: Any, gauge: str
    ) -> None:
        """Insert a generated routine under ``self._lock``, evicting FIFO
        at :data:`CODEC_CACHE_MAX` so format churn cannot leak compiled
        code; the cache size is exported as an obs gauge."""
        while len(cache) >= CODEC_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[format_id] = codec
        if OBS.enabled:
            OBS.metrics.gauge(gauge).set(len(cache))

    def peek_format(self, data: bytes) -> Optional[IOFormat]:
        """Resolve the format of a wire message without decoding it."""
        return self.registry.lookup_id(unpack_header(data).format_id)

    # ------------------------------------------------------------------
    # Introspection (for tests / ablations)
    # ------------------------------------------------------------------

    @property
    def generated_decoder_count(self) -> int:
        return len(self._decoders)

    @property
    def generated_encoder_count(self) -> int:
        return len(self._encoders)
