"""Receiver-side message processing — Algorithm 2 of the paper.

The :class:`MorphReceiver` is the morphing middleware layer that sits
between the wire and the application's handlers:

1. the format of an incoming message is resolved from its wire id,
2. if this format was seen before, the **cached** route (decode →
   transform chain → reconciliation → handler) runs immediately,
3. otherwise ``MaxMatch(fm, Fr)`` looks for a direct match among the
   reader's registered formats of the same name; a perfect match
   dispatches straight to its handler,
4. failing that, ``MaxMatch(Ft, Fr)`` runs over the *transform closure*
   ``Ft`` of the incoming format (the format itself plus everything
   reachable through writer-supplied retro-transformations, chains
   included — Figure 1), and the chosen chain is dynamically compiled,
5. an imperfect final pair is reconciled by default-filling missing
   fields and dropping unknown ones,
6. the handler registered for the matched format is invoked; with no
   acceptable match the message goes to the default handler or is
   rejected with :class:`~repro.errors.NoMatchError`.

Every decision is cached per incoming format id, so the expensive steps
run once per format, not once per message — the cost structure the
paper's evaluation relies on.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import (
    MorphError,
    NoMatchError,
    TransformError,
    UnknownFormatError,
)
from repro.morph.compat import (
    coerce_record,
    generate_coercion_ecode,
    reconcile_field_stats,
)
from repro.obs import OBS
from repro.obs.metrics import COUNT_BUCKETS, RATIO_BUCKETS, Handles
from repro.obs.metrics import Registry as MetricsRegistry
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
    MatchResult,
    max_match,
)
from repro.morph.fusion import FusedRoute, plan_fusion
from repro.morph.transform import TransformChain, Transformation, build_chain
from repro.obs.tracectx import activate
from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    HEADER_SIZE,
    peek_trace,
    unpack_header,
)
from repro.pbio.codegen import make_checked_payload_decoder
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat, widen_record
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry, TransformSpec

Handler = Callable[[Record], Any]
DefaultHandler = Callable[[IOFormat, Record], Any]


#: Counter names kept by every receiver, exposed both as legacy
#: attributes (``stats.messages``) and as ``morph.receiver.*`` metrics.
STAT_COUNTERS = (
    "messages",
    "cache_hits",
    "cache_misses",
    "perfect_matches",
    "morphed",
    "reconciled",
    "rejected",
    "compiled_chains",
    "broken_transforms",
)


class ReceiverStats:
    """Per-receiver counters, backed by the observability registry.

    Each receiver owns a private :class:`repro.obs.metrics.Registry`
    holding its ``morph.receiver.*`` counters and the
    ``morph.maxmatch.mismatch_ratio`` histogram; when process-wide
    observability is enabled (:func:`repro.obs.enable`) every update is
    mirrored into the global registry as well, so exporters see the
    aggregate across all receivers.

    The historical attributes (``stats.messages``, ``stats.cache_hits``,
    ...) remain readable as thin properties over the counters.
    """

    __slots__ = ("registry", "_counters", "_mismatch", "_mirror")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"morph.receiver.{name}")
            for name in STAT_COUNTERS
        }
        self._mismatch = self.registry.histogram(
            "morph.maxmatch.mismatch_ratio", bounds=RATIO_BUCKETS
        )
        #: the same counters in the process-wide registry, held the same way
        self._mirror = {
            name: Handles.counter(f"morph.receiver.{name}")
            for name in STAT_COUNTERS
        }

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)
        if OBS.enabled:
            self._mirror[name]().inc(amount)

    def observe_mismatch(self, ratio: float) -> None:
        """Record one MaxMatch decision's mismatch ratio."""
        self._mismatch.observe(ratio)
        if OBS.enabled:
            OBS.metrics.histogram(
                "morph.maxmatch.mismatch_ratio", bounds=RATIO_BUCKETS
            ).observe(ratio)

    @property
    def mismatch_ratios(self):
        """The per-receiver mismatch-ratio histogram."""
        return self._mismatch

    def snapshot(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in self._counters.items()}

    def set_route_cache_size(self, size: int) -> None:
        """Track the bounded route cache's occupancy (a gauge, so it is
        *not* part of :meth:`snapshot` — fused and staged receivers plan
        identical routes but the comparison is over counters)."""
        self.registry.gauge("morph.receiver.route_cache_size").set(size)
        if OBS.enabled:
            OBS.metrics.gauge("morph.receiver.route_cache_size").set(size)


def _stat_property(name: str):
    return property(
        lambda self: self._counters[name].value,
        doc=f"Value of the morph.receiver.{name} counter.",
    )


for _name in STAT_COUNTERS:
    setattr(ReceiverStats, _name, _stat_property(_name))
del _name


class _ReceiverHandles:
    """The instruments a receiver records per message (what it records
    per planned route or per dead letter it asks the registry for)."""

    def __init__(self) -> None:
        self.staged_messages = Handles.counter("morph.receiver.staged_messages")
        self.fused_messages = Handles.counter("morph.receiver.fused_messages")
        self.fused_seconds = Handles.histogram("morph.fused.seconds")
        self.transform_seconds = Handles.histogram("morph.transform.seconds")
        self.transform_applied = Handles.bounded_counter(
            "morph.transform.applied", "format")
        self.dispatch_delivered = Handles.bounded_counter(
            "morph.dispatch.delivered", "format")
        self.fields_dropped = Handles.histogram(
            "morph.reconcile.fields_dropped", bounds=COUNT_BUCKETS)
        self.fields_defaulted = Handles.histogram(
            "morph.reconcile.fields_defaulted", bounds=COUNT_BUCKETS)
        self.widened = Handles.counter("morph.projection.widened")
        self.quarantine_drops = Handles.counter(
            "morph.receiver.quarantine_drops")


@dataclass
class DeadLetter:
    """One message the receiver could not process, parked for forensics
    and retry: the raw wire bytes, the wire format id (when the header
    was readable), the pipeline stage that failed and the error.

    Dead letters are the *Schema Evolution in Interactive Programming
    Systems* stance made concrete: unconvertible data is an inspectable
    state, not a crash."""

    data: bytes
    format_id: Optional[int]
    stage: str  # "decode" | "unknown_format" | "transform" | "no_match" | "dispatch"
    error: str
    attempts: int = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeadLetter(stage={self.stage!r}, format_id={self.format_id}, "
            f"attempts={self.attempts}, error={self.error!r})"
        )


@dataclass
class _Route:
    """The cached per-format processing pipeline."""

    wire_format: IOFormat
    chain: Optional[TransformChain]
    coercion: Optional[Tuple[IOFormat, IOFormat]]  # (from, to) for reconcile
    handler_format: Optional[IOFormat]  # None -> default handler / reject
    match: Optional[MatchResult] = None
    #: when ecode_coercion is enabled and the shapes allow it, the
    #: reconcile step runs as a DCG-compiled generated transform instead
    #: of the structural Python walker
    coercion_transform: Optional[Transformation] = None
    #: top-level fields dropped / default-filled by the reconcile step,
    #: computed once at plan time and recorded per morph by obs
    fields_dropped: int = 0
    fields_defaulted: int = 0
    #: whole-route fusion plan (decode + chain + reconcile compiled into
    #: one function); None keeps the route on the staged pipeline
    fused: Optional[FusedRoute] = None
    #: set on projection routes that fall back to the staged pipeline:
    #: (projection, parent) — the projected record is widened back to the
    #: full parent shape (defaults for dead fields) before the parent's
    #: transform chain runs, since the chain's ECode was compiled against
    #: the parent's field set
    pre_coercion: Optional[Tuple[IOFormat, IOFormat]] = None
    #: per-byte-order checked payload decoders for the batch hot path —
    #: identity routes are never fused (there is nothing to fuse), so the
    #: batch loop decodes them straight from the parsed header instead of
    #: re-entering the per-message pipeline
    payload_decoders: Dict[str, Callable[[bytes, int, int], Tuple[Record, int]]] = field(
        default_factory=dict
    )

    @property
    def is_reject(self) -> bool:
        return self.handler_format is None


class MorphReceiver:
    """Morphing-aware message receiver for one endpoint.

    Parameters
    ----------
    registry:
        Format registry holding out-of-band meta-data (formats and their
        writer-supplied transformations).  Shared or replicated with the
        sending side.
    diff_threshold / mismatch_threshold:
        The MaxMatch acceptance constants.  ``diff_threshold=0,
        mismatch_threshold=0.0`` admits only perfect matches.
    use_codegen:
        False switches both PBIO decoding and ECode transforms to their
        interpretive implementations (ablation).
    use_fusion:
        Whether wire messages run through whole-route fusion — decode,
        transform chain and reconcile compiled into a single generated
        function per route (:mod:`repro.morph.fusion`).  ``None`` (the
        default) follows the class attribute ``DEFAULT_USE_FUSION``;
        False keeps every route on the staged pipeline (ablation
        baseline and differential-test reference).  Fusion requires
        ``use_codegen`` and is disabled under ``validate_transforms``
        (fused chains skip per-step output validation by design).
    validate_transforms:
        Forwarded to :class:`~repro.morph.transform.Transformation`.
        Defaults to False on this hot path — the paper's system writes
        transform output straight into a C struct with no re-check; turn
        it on when debugging new transformations.
    weighted:
        True scores MaxMatch by field *importance*
        (:func:`repro.morph.diff.weighted_diff`) instead of field counts —
        the paper's future-work refinement.  Thresholds then bound
        importance mass.
    ecode_coercion:
        True routes the imperfect-match reconcile step through
        :func:`~repro.morph.compat.generate_coercion_ecode` — the fill/
        drop mapping is emitted as ECode and DCG-compiled like any other
        transform (falling back to the structural Python walker for
        shapes the generator does not support, e.g. resized fixed
        arrays).
    contain_failures:
        True turns :meth:`process` into a total function: instead of
        raising, failed messages (undecodable bytes, unknown formats,
        broken transforms, rejected matches, handler exceptions) land in
        a bounded **dead-letter queue** with the raw bytes and error
        attached, and :meth:`process` returns ``None``.  A format id
        failing *quarantine_threshold* consecutive times is
        **quarantined**: its messages are counted and dropped at the
        header peek, so poison traffic stops paying pipeline costs.
        :meth:`retry_dead_letters` re-processes the queue (e.g. after a
        late format registration), lifting quarantines for the formats
        it retries.
    dlq_limit:
        Dead-letter queue capacity; the oldest entry is evicted (and
        counted) when a new failure arrives at capacity.
    quarantine_threshold:
        Consecutive failures of one format id before it is quarantined.
    """

    #: default for the ``use_fusion`` constructor argument; the test
    #: suite's parametrized fixture flips this to run everything against
    #: both pipelines
    DEFAULT_USE_FUSION = True
    #: bound on the per-format route cache (and thereby on the compiled
    #: fused routines a receiver can hold): format churn through
    #: ``FormatRegistry.unregister`` must not leak generated code
    MAX_ROUTES = 256

    def __init__(
        self,
        registry: Optional[FormatRegistry] = None,
        diff_threshold: int = DEFAULT_DIFF_THRESHOLD,
        mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD,
        use_codegen: bool = True,
        validate_transforms: bool = False,
        weighted: bool = False,
        ecode_coercion: bool = False,
        use_fusion: Optional[bool] = None,
        contain_failures: bool = False,
        dlq_limit: int = 64,
        quarantine_threshold: int = 3,
    ) -> None:
        self.registry = registry if registry is not None else FormatRegistry()
        self.context = PBIOContext(self.registry, use_codegen=use_codegen)
        self.diff_threshold = diff_threshold
        self.mismatch_threshold = mismatch_threshold
        self.use_codegen = use_codegen
        self.validate_transforms = validate_transforms
        self.weighted = weighted
        self.ecode_coercion = ecode_coercion
        if use_fusion is None:
            use_fusion = self.DEFAULT_USE_FUSION
        self.use_fusion = use_fusion and use_codegen and not validate_transforms
        self.stats = ReceiverStats()
        self._obs = _ReceiverHandles()
        self._lock = threading.RLock()
        self._handlers: Dict[int, Handler] = {}
        self._handler_formats: List[IOFormat] = []
        self._default_handler: Optional[DefaultHandler] = None
        self._routes: Dict[int, _Route] = {}
        self.contain_failures = contain_failures
        self.quarantine_threshold = quarantine_threshold
        self._dead_letters: Deque[DeadLetter] = deque(maxlen=dlq_limit)
        self._quarantined: Set[int] = set()
        self._failure_counts: Dict[int, int] = {}
        #: "dispatch" while a handler runs; lets containment attribute a
        #: generic exception to the handler rather than the pipeline
        self._stage = "pipeline"
        self._retrying = False
        self.containment = {
            "dead_lettered": 0,
            "evicted": 0,
            "quarantined_formats": 0,
            "quarantine_drops": 0,
            "retried": 0,
            "retry_failures": 0,
        }

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_handler(self, fmt: IOFormat, handler: Handler) -> None:
        """Declare that this reader understands *fmt*, delivering its
        records to *handler*.  Mirrors PBIO's reader-side format+handler
        registration."""
        with self._lock:
            self.registry.register(fmt)
            self._handlers[fmt.format_id] = handler
            if all(f.format_id != fmt.format_id for f in self._handler_formats):
                self._handler_formats.append(fmt)
            self._routes.clear()  # a new handler can change every route

    def register_default_handler(self, handler: DefaultHandler) -> None:
        """Handler of last resort, called as ``handler(fmt, record)`` for
        messages no match admits (Algorithm 2's "default handler")."""
        with self._lock:
            self._default_handler = handler
            self._routes.clear()

    def known_formats(self) -> List[IOFormat]:
        with self._lock:
            return list(self._handler_formats)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, data: bytes) -> Any:
        """Process one wire message; returns whatever the handler returns.

        Raises :class:`UnknownFormatError` for unregistered wire ids and
        :class:`NoMatchError` for rejected messages when no default
        handler is installed — unless ``contain_failures`` is set, in
        which case failures dead-letter and ``None`` is returned."""
        if self.contain_failures:
            return self._process_contained(data)
        if not OBS.enabled:
            return self._process(data)
        # re-activate the wire-carried trace context (a no-op for
        # untraced messages) so standalone receivers — and replays from
        # queues where the publishing call stack is gone — still join
        # the message's distributed trace
        with activate(peek_trace(data)), OBS.tracer.span("morph.process"):
            return self._process(data)

    def process_batch(self, data: bytes) -> List[Any]:
        """Process one BATCH1 frame (:mod:`repro.net.batch`): validate
        the frame once, activate its frame-level trace context once, then
        run every contained message through :meth:`process` as a
        zero-copy ``memoryview`` slice of the shared receive buffer.

        Containment is per *message*: with ``contain_failures`` set, a
        poisoned message dead-letters alone (its raw bytes are copied out
        of the shared buffer) and the rest of the batch still delivers.
        A malformed *frame* dead-letters whole — there is no trustworthy
        way to split it.  Without containment the first failure raises,
        exactly like :meth:`process`.

        Returns the per-message handler results, in wire order."""
        from repro.net.batch import unpack_batch

        try:
            frame = unpack_batch(data)
        except Exception as exc:  # noqa: BLE001 - malformed frame
            if self.contain_failures:
                self._dead_letter(data, None, "decode", exc)
                return []
            raise
        view = data if isinstance(data, memoryview) else memoryview(data)
        # one trace splice per frame: activate(None) is a passthrough, so
        # the frame context survives each message's own (trace-less)
        # activate in process()
        if not self.contain_failures and not OBS.enabled:
            with activate(frame.trace):
                return self._process_batch_fast(view, frame.segments)
        results: List[Any] = []
        with activate(frame.trace):
            for off, length in frame.segments:
                results.append(self.process(view[off:off + length]))
        return results

    def _process_batch_fast(
        self, view: memoryview, segments: Tuple[Tuple[int, int], ...]
    ) -> List[Any]:
        """The zero-copy decode hot path: successive records are decoded
        straight out of the shared frame buffer through each format's
        cached fused routine — or, for routes with nothing to fuse
        (identity traffic), a cached checked payload decoder driven by
        the already-parsed header — with the per-message wrapper work
        (route lookup, stat increments) hoisted out of the loop.  Counter
        totals stay identical to running :meth:`process` per message —
        the batching differential oracle depends on that.  Segments whose
        route is cold or rejecting, or interpretive-decode receivers
        (``use_codegen=False``), fall back to the normal per-message
        pipeline."""
        results: List[Any] = []
        routes = self._routes
        handlers = self._handlers
        stats = self.stats
        use_codegen = self.use_codegen
        fast = morphed = reconciled = perfect = 0
        last_id = -1
        route: Optional[_Route] = None
        try:
            for off, length in segments:
                seg = view[off:off + length]
                try:
                    header = unpack_header(seg)
                except Exception:
                    # _process counts a message before parsing its header
                    stats.inc("messages")
                    raise
                if header.format_id != last_id:
                    last_id = header.format_id
                    route = routes.get(last_id)
                if route is None or route.is_reject:
                    results.append(self._process(seg))
                    continue
                order = ">" if header.flags & FLAG_BIG_ENDIAN else "<"
                fused = route.fused
                fn = fused.fn_for(order) if fused is not None else None
                if fn is None and not use_codegen:
                    results.append(self._process(seg))
                    continue
                # committed to the fast path: messages/cache_hits count
                # even if decode fails, exactly like _process
                fast += 1
                body = header.body_offset
                end = body + header.payload_length
                if fn is not None:
                    try:
                        record, _consumed = fn(seg, body, end)
                    except TransformError as exc:
                        # mirror _run_fused: a chain that completed before
                        # a failing reconcile still counts as morphed
                        if (
                            getattr(exc, "fused_stage", None) == "coercion"
                            and route.chain is not None
                        ):
                            morphed += 1
                        raise
                    if route.chain is not None:
                        morphed += 1
                else:
                    dec = route.payload_decoders.get(order)
                    if dec is None:
                        dec = make_checked_payload_decoder(
                            route.wire_format, order
                        )
                        route.payload_decoders[order] = dec
                    record, _consumed = dec(seg, body, end)
                    if route.pre_coercion is not None:
                        record = widen_record(*route.pre_coercion, record)
                        if OBS.enabled:
                            self._obs.widened().inc()
                    if route.chain is not None:
                        record = route.chain.apply(record)
                        morphed += 1
                    if route.coercion is not None:
                        record = self._reconcile(route, record)
                if route.coercion is not None:
                    reconciled += 1
                else:
                    perfect += 1
                results.append(
                    self._invoke(handlers[route.handler_format.format_id], record)
                )
        finally:
            if fast:
                stats.inc("messages", fast)
                stats.inc("cache_hits", fast)
                if morphed:
                    stats.inc("morphed", morphed)
                if reconciled:
                    stats.inc("reconciled", reconciled)
                if perfect:
                    stats.inc("perfect_matches", perfect)
        return results

    def _process_contained(self, data: bytes) -> Any:
        """Total-function variant of :meth:`process`: classify failures
        by pipeline stage, dead-letter the message, quarantine repeat
        offenders — and never raise into the transport."""
        try:
            format_id: Optional[int] = unpack_header(data).format_id
        except Exception as exc:  # noqa: BLE001 - malformed header
            self._dead_letter(data, None, "decode", exc)
            return None
        if format_id in self._quarantined and not self._retrying:
            self.containment["quarantine_drops"] += 1
            if OBS.enabled:
                self._obs.quarantine_drops().inc()
            return None
        self._stage = "pipeline"
        try:
            if not OBS.enabled:
                return self._process(data)
            # the DLQ keeps the raw wire bytes, so a retry_dead_letters
            # pass re-enters here with the original trace block intact —
            # the retry's spans resume the original trace
            with activate(peek_trace(data)), OBS.tracer.span("morph.process"):
                return self._process(data)
        except UnknownFormatError as exc:
            self._dead_letter(data, format_id, "unknown_format", exc)
        except NoMatchError as exc:
            self._dead_letter(data, format_id, "no_match", exc)
        except TransformError as exc:
            self._dead_letter(data, format_id, "transform", exc)
        except Exception as exc:  # noqa: BLE001 - defined containment
            stage = "dispatch" if self._stage == "dispatch" else "decode"
            self._dead_letter(data, format_id, stage, exc)
        finally:
            self._stage = "pipeline"
        return None

    def _dead_letter(
        self,
        data: bytes,
        format_id: Optional[int],
        stage: str,
        exc: BaseException,
    ) -> None:
        with self._lock:
            if (
                self._dead_letters.maxlen is not None
                and len(self._dead_letters) == self._dead_letters.maxlen
            ):
                self.containment["evicted"] += 1
                if OBS.enabled:
                    OBS.metrics.counter("morph.receiver.dlq_evicted").inc()
            self._dead_letters.append(
                DeadLetter(
                    # copy: batch receivers hand memoryview slices into a
                    # shared receive buffer; a dead letter must own its
                    # bytes so retry_dead_letters outlives the buffer
                    data=bytes(data),
                    format_id=format_id,
                    stage=stage,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            self.containment["dead_lettered"] += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "morph.receiver.dead_letters", stage=stage
                ).inc()
            if format_id is None:
                return
            count = self._failure_counts.get(format_id, 0) + 1
            self._failure_counts[format_id] = count
            if (
                count >= self.quarantine_threshold
                and format_id not in self._quarantined
            ):
                self._quarantined.add(format_id)
                # drop any cached route: if the quarantine is later
                # lifted, the route is replanned against fresh meta-data
                self._routes.pop(format_id, None)
                self.containment["quarantined_formats"] += 1
                if OBS.enabled:
                    OBS.metrics.counter(
                        "morph.receiver.quarantined_formats"
                    ).inc()

    # ------------------------------------------------------------------
    # Dead-letter queue / quarantine introspection and retry
    # ------------------------------------------------------------------

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """A snapshot of the dead-letter queue, oldest first."""
        with self._lock:
            return list(self._dead_letters)

    @property
    def quarantined_formats(self) -> Set[int]:
        with self._lock:
            return set(self._quarantined)

    def is_quarantined(self, format_id: int) -> bool:
        return format_id in self._quarantined

    def lift_quarantine(self, format_id: int) -> bool:
        """Manually unquarantine a format id (its failure count resets;
        its route is replanned on the next message)."""
        with self._lock:
            self._failure_counts.pop(format_id, None)
            if format_id in self._quarantined:
                self._quarantined.discard(format_id)
                return True
            return False

    def retry_dead_letters(self) -> Tuple[int, int]:
        """Re-process every dead letter — the hook to call after the
        failure cause is fixed (a late format registration, a repaired
        transform, a redeployed handler).  Quarantines and failure
        counts for the retried formats are lifted first; messages that
        fail again re-enter the queue with ``attempts`` bumped.

        Returns ``(succeeded, requeued)``."""
        with self._lock:
            entries = list(self._dead_letters)
            self._dead_letters.clear()
            for entry in entries:
                if entry.format_id is not None:
                    self._quarantined.discard(entry.format_id)
                    self._failure_counts.pop(entry.format_id, None)
        succeeded = 0
        requeued = 0
        self._retrying = True
        try:
            for entry in entries:
                depth_before = len(self._dead_letters)
                self._process_contained(entry.data)
                if len(self._dead_letters) > depth_before:
                    self._dead_letters[-1].attempts = entry.attempts + 1
                    requeued += 1
                    self.containment["retry_failures"] += 1
                else:
                    succeeded += 1
                    self.containment["retried"] += 1
        finally:
            self._retrying = False
        if OBS.enabled and entries:
            OBS.metrics.counter("morph.receiver.dlq_retried").inc(succeeded)
            OBS.metrics.counter("morph.receiver.dlq_requeued").inc(requeued)
        return succeeded, requeued

    def has_exact_route(self, fmt: IOFormat) -> bool:
        """Whether *fmt* reaches a registered handler without falling
        back to MaxMatch reconciliation: either a handler is registered
        for it directly, or a writer-supplied transform chain ends at a
        handled format.  The morphing-aware transports use this to
        decide when to refresh a format's transform closure from the
        format server before processing."""
        with self._lock:
            if fmt.format_id in self._handlers:
                return True
            for chain in self.registry.transform_closure(fmt):
                if chain[-1].target.format_id in self._handlers:
                    return True
        return False

    def _process(self, data: bytes) -> Any:
        self.stats.inc("messages")
        header = unpack_header(data)
        format_id = header.format_id
        route = self._routes.get(format_id)
        if route is not None:
            self.stats.inc("cache_hits")
        else:
            incoming = self.registry.lookup_id(format_id)
            if incoming is None:
                raise UnknownFormatError(format_id)
            self.stats.inc("cache_misses")
            with self._lock:
                route = self._routes.get(format_id)
                if route is None:
                    route = self._plan_route(incoming)
                    self._cache_route(format_id, route)
        if route.fused is not None:
            order = ">" if header.flags & FLAG_BIG_ENDIAN else "<"
            fn = route.fused.fn_for(order)
            if fn is not None:
                return self._run_fused(route, fn, data, header)
        return self._run_route(route, data)

    def process_record(self, fmt: IOFormat, record: Record) -> Any:
        """Process an already-decoded record (used when the transport
        delivers in-process without a wire hop)."""
        self.stats.inc("messages")
        self.registry.register(fmt)
        route = self._routes.get(fmt.format_id)
        if route is not None:
            self.stats.inc("cache_hits")
        else:
            self.stats.inc("cache_misses")
            with self._lock:
                route = self._routes.get(fmt.format_id)
                if route is None:
                    route = self._plan_route(fmt)
                    self._cache_route(fmt.format_id, route)
        return self._deliver(route, record)

    def _cache_route(self, format_id: int, route: _Route) -> None:
        """Insert under ``self._lock``, evicting the oldest entry once the
        cache is full (FIFO: route planning is cheap relative to holding
        compiled routines for formats that stopped arriving)."""
        while len(self._routes) >= self.MAX_ROUTES:
            self._routes.pop(next(iter(self._routes)))
        self._routes[format_id] = route
        self.stats.set_route_cache_size(len(self._routes))

    # ------------------------------------------------------------------
    # Route planning (the expensive, once-per-format part)
    # ------------------------------------------------------------------

    def _plan_route(self, incoming: IOFormat) -> _Route:
        if not OBS.enabled:
            return self._attach_fusion(self._plan_any(incoming))
        with OBS.tracer.span(
            "morph.maxmatch", format=incoming.name, version=incoming.version
        ) as active:
            route = self._plan_any(incoming)
            if route.match is not None:
                active.set_attr("mismatch", route.match.mismatch)
                active.set_attr("diff", route.match.diff_forward)
            active.set_attr("rejected", route.is_reject)
            return self._attach_fusion(route)

    def _plan_any(self, incoming: IOFormat) -> _Route:
        """Projection-aware planning entry: a projection format whose
        parent has a usable route rides that route; everything else (and
        every fallback) goes through ordinary MaxMatch planning."""
        if isinstance(incoming, ProjectionFormat):
            route = self._plan_projection_route(incoming)
            if route is not None:
                return route
        return self._plan_route_inner(incoming)

    def _plan_projection_route(
        self, incoming: ProjectionFormat
    ) -> Optional[_Route]:
        """Route a projected wire format through its *parent's* plan.

        The projection carries only the negotiated live fields, but its
        field declarations are identical to the parent's, so the parent's
        transform chain, reconcile step and handler apply unchanged —
        provided the projection covers every wire field the parent route
        actually reads (its fused liveness set).  When it does, the
        projection route reuses the parent's pipeline with the projection
        as wire format: fusion re-plans against the narrower decode, and
        the staged fallback widens the record back to the parent shape
        first (``pre_coercion``).  When coverage fails — an incoherent
        negotiation window, or a parent route without a provable liveness
        set — ``None`` sends the projection through ordinary MaxMatch
        planning as just another evolved revision."""
        parent = self.registry.lookup_id(incoming.parent_format_id)
        if parent is None or parent.format_id == incoming.format_id:
            return None
        with self._lock:
            parent_route = self._routes.get(parent.format_id)
            if parent_route is None:
                parent_route = self._plan_route(parent)
                self._cache_route(parent.format_id, parent_route)
        if parent_route.is_reject:
            return None
        fused = parent_route.fused
        needed: Set[str] = (
            set(fused.wire_live)
            if fused is not None and fused.wire_live is not None
            else {f.name for f in parent.fields}
        )
        transmitted = {f.name for f in incoming.fields}
        if not needed <= transmitted:
            if OBS.enabled:
                OBS.metrics.counter("morph.projection.fallbacks").inc()
            return None
        if OBS.enabled:
            OBS.metrics.counter("morph.projection.routes").inc()
        return _Route(
            wire_format=incoming,
            chain=parent_route.chain,
            coercion=parent_route.coercion,
            handler_format=parent_route.handler_format,
            match=parent_route.match,
            coercion_transform=parent_route.coercion_transform,
            fields_dropped=parent_route.fields_dropped,
            fields_defaulted=parent_route.fields_defaulted,
            pre_coercion=(incoming, parent),
        )

    def _attach_fusion(self, route: _Route) -> _Route:
        """Plan whole-route fusion for a freshly planned route (liveness
        analysis now, per-order source emission and compile lazily)."""
        if self.use_fusion and not route.is_reject:
            route.fused = plan_fusion(route)
        return route

    def _plan_route_inner(self, incoming: IOFormat) -> _Route:
        # Line 4: Fr -- reader formats with the same name as fm
        reader_formats = [
            fmt for fmt in self._handler_formats if fmt.name == incoming.name
        ]
        # Line 11: direct MaxMatch(fm, Fr)
        direct = max_match(
            incoming,
            reader_formats,
            self.diff_threshold,
            self.mismatch_threshold,
            weighted=self.weighted,
        )
        if direct is not None and direct.is_perfect:
            self.stats.observe_mismatch(direct.mismatch)
            coercion = None
            if direct.f2.format_id != incoming.format_id:
                # perfect structural match but a different declaration
                # (e.g. widened scalar sizes): reshape field-by-field
                coercion = (incoming, direct.f2)
            dropped, defaulted = (
                reconcile_field_stats(*coercion) if coercion else (0, 0)
            )
            return _Route(
                wire_format=incoming,
                chain=None,
                coercion=coercion,
                handler_format=direct.f2,
                match=direct,
                coercion_transform=self._coercion_transform(coercion),
                fields_dropped=dropped,
                fields_defaulted=defaulted,
            )
        # Line 16: MaxMatch(Ft, Fr) over the transform closure.  A chain
        # whose writer-supplied ECode fails to compile is dropped from the
        # candidate set and planning retries — one broken transform must
        # not take the whole receiver down (other candidates, including
        # the untransformed format itself, may still match).
        chains = self.registry.transform_closure(incoming)
        while True:
            candidates: List[IOFormat] = [incoming] + [c[-1].target for c in chains]
            best = max_match(
                candidates,
                reader_formats,
                self.diff_threshold,
                self.mismatch_threshold,
                weighted=self.weighted,
            )
            if best is None:
                return _Route(
                    wire_format=incoming, chain=None, coercion=None,
                    handler_format=None,
                )
            chain: Optional[TransformChain] = None
            if best.f1.format_id != incoming.format_id:
                specs = next(
                    c for c in chains if c[-1].target.format_id == best.f1.format_id
                )
                try:
                    chain = build_chain(
                        specs,
                        use_codegen=self.use_codegen,
                        validate_output=self.validate_transforms,
                    )
                except TransformError:
                    self.stats.inc("broken_transforms")
                    chains = [
                        c for c in chains
                        if c[-1].target.format_id != best.f1.format_id
                    ]
                    continue
                self.stats.inc("compiled_chains")
            self.stats.observe_mismatch(best.mismatch)
            coercion = None
            if not best.is_perfect or best.f1.format_id != best.f2.format_id:
                coercion = (best.f1, best.f2)
            dropped, defaulted = (
                reconcile_field_stats(*coercion) if coercion else (0, 0)
            )
            return _Route(
                wire_format=incoming,
                chain=chain,
                coercion=coercion,
                handler_format=best.f2,
                match=best,
                coercion_transform=self._coercion_transform(coercion),
                fields_dropped=dropped,
                fields_defaulted=defaulted,
            )

    def _coercion_transform(
        self, coercion: Optional[Tuple[IOFormat, IOFormat]]
    ) -> Optional[Transformation]:
        """When enabled, compile the structural reconcile mapping as
        generated ECode (None -> fall back to the Python walker)."""
        if coercion is None or not self.ecode_coercion:
            return None
        src_fmt, dst_fmt = coercion
        try:
            code = generate_coercion_ecode(src_fmt, dst_fmt)
            return Transformation(
                TransformSpec(source=src_fmt, target=dst_fmt, code=code,
                              description="auto-generated reconcile"),
                use_codegen=self.use_codegen,
                validate_output=self.validate_transforms,
            )
        except (MorphError, TransformError):
            return None

    # ------------------------------------------------------------------
    # Route execution (the cheap, per-message part)
    # ------------------------------------------------------------------

    def _run_route(self, route: _Route, data: bytes) -> Any:
        if OBS.enabled:
            self._obs.staged_messages().inc()
        record = self.context.decode_as(route.wire_format, data)
        return self._deliver(route, record)

    def _run_fused(
        self,
        route: _Route,
        fn: Callable[[bytes, int, int], Tuple[Record, int]],
        data: bytes,
        header: Any,
    ) -> Any:
        """Execute one message through the fused routine, keeping counter
        effects identical to the staged pipeline: ``morphed`` counts a
        chain that ran to completion (including when a subsequent ecode
        reconcile step fails), ``reconciled``/``perfect_matches`` count
        deliveries."""
        body = header.body_offset
        end = body + header.payload_length
        observing = OBS.enabled
        try:
            if observing:
                self._obs.fused_messages().inc()
                with OBS.tracer.span(
                    "morph.fused",
                    format=route.wire_format.name,
                    version=route.wire_format.version,
                ) as active:
                    record, _consumed = fn(data, body, end)
                self._obs.fused_seconds().observe(active.span.duration)
            else:
                record, _consumed = fn(data, body, end)
        except TransformError as exc:
            if (
                getattr(exc, "fused_stage", None) == "coercion"
                and route.chain is not None
            ):
                # the staged path counts the chain before reconciling
                self.stats.inc("morphed")
            raise
        if route.chain is not None:
            self.stats.inc("morphed")
            if observing:
                # identical labeled counter to the staged path, so the
                # fused/staged differential oracle sees no divergence
                self._obs.transform_applied(route.wire_format.name).inc()
        if route.coercion is not None:
            self.stats.inc("reconciled")
        else:
            self.stats.inc("perfect_matches")
        handler_format = route.handler_format
        assert handler_format is not None
        handler = self._handlers[handler_format.format_id]
        if observing:
            self._obs.dispatch_delivered(handler_format.name).inc()
            with OBS.tracer.span(
                "morph.dispatch",
                format=handler_format.name,
                version=handler_format.version,
            ):
                return self._invoke(handler, record)
        return self._invoke(handler, record)

    def _invoke(self, handler: Handler, record: Record) -> Any:
        """Run the application handler with the containment stage marked,
        so a handler exception dead-letters as ``dispatch``, not as a
        pipeline failure."""
        self._stage = "dispatch"
        return handler(record)

    def _deliver(self, route: _Route, record: Record) -> Any:
        if route.is_reject:
            self.stats.inc("rejected")
            if self._default_handler is not None:
                self._stage = "dispatch"
                return self._default_handler(route.wire_format, record)
            raise NoMatchError(
                f"no acceptable match for incoming format "
                f"{route.wire_format.name!r} v{route.wire_format.version} "
                f"(diff_threshold={self.diff_threshold}, "
                f"mismatch_threshold={self.mismatch_threshold})"
            )
        observing = OBS.enabled
        if route.pre_coercion is not None:
            record = widen_record(*route.pre_coercion, record)
            if observing:
                self._obs.widened().inc()
        if route.chain is not None:
            if observing:
                with OBS.tracer.span(
                    "morph.transform",
                    source=route.wire_format.version,
                    target=route.chain.target.version,
                    steps=len(route.chain),
                ) as active:
                    record = route.chain.apply(record)
                self._obs.transform_seconds().observe(active.span.duration)
                self._obs.transform_applied(route.wire_format.name).inc()
            else:
                record = route.chain.apply(record)
            self.stats.inc("morphed")
        if route.coercion is not None:
            if observing:
                with OBS.tracer.span(
                    "morph.reconcile",
                    dropped=route.fields_dropped,
                    defaulted=route.fields_defaulted,
                ):
                    record = self._reconcile(route, record)
                self._obs.fields_dropped().observe(route.fields_dropped)
                self._obs.fields_defaulted().observe(route.fields_defaulted)
            else:
                record = self._reconcile(route, record)
            self.stats.inc("reconciled")
        else:
            self.stats.inc("perfect_matches")
        handler_format = route.handler_format
        assert handler_format is not None
        handler = self._handlers[handler_format.format_id]
        if observing:
            self._obs.dispatch_delivered(handler_format.name).inc()
            with OBS.tracer.span(
                "morph.dispatch",
                format=handler_format.name,
                version=handler_format.version,
            ):
                return self._invoke(handler, record)
        return self._invoke(handler, record)

    def _reconcile(self, route: _Route, record: Record) -> Record:
        if route.coercion_transform is not None:
            return route.coercion_transform.apply(record)
        src_fmt, dst_fmt = route.coercion  # type: ignore[misc]
        return coerce_record(src_fmt, dst_fmt, record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def route_for(self, fmt: IOFormat) -> Optional[_Route]:
        """The cached route for *fmt*, if one was planned (tests use this
        to assert which pipeline a message took)."""
        return self._routes.get(fmt.format_id)

    def interest_for(self, fmt: IOFormat) -> Optional[FrozenSet[str]]:
        """The top-level wire fields of *fmt* this receiver's pipeline
        can ever observe — the interest set it announces for projection
        push-down — or ``None`` when it needs the full format.

        The set is the route's fused backward-liveness result; a route
        without a provable liveness set (rejects, identity dispatch,
        interpreter chains, fusion disabled) conservatively reports
        ``None``, which negotiates full-format traffic."""
        with self._lock:
            route = self._routes.get(fmt.format_id)
            if route is None:
                self.registry.register(fmt)
                route = self._plan_route(fmt)
                self._cache_route(fmt.format_id, route)
        if route.is_reject:
            return None
        fused = route.fused
        if fused is None or fused.wire_live is None:
            return None
        return frozenset(fused.wire_live)

    def invalidate_route(self, format_id: int) -> bool:
        """Drop the cached route (and compiled pipeline) for
        *format_id* — the hook a resolver invalidation calls when the
        format server ships different content under a cached id.  The
        next message of that id replans against the fresh meta-data.
        Returns whether a route was dropped."""
        with self._lock:
            removed = self._routes.pop(format_id, None) is not None
            if removed:
                self.stats.set_route_cache_size(len(self._routes))
            return removed

    def compatibility_space(self) -> List[IOFormat]:
        """Every registered format this receiver would accept — its
        *compatibility space* (Section 3.1).  Computed by dry-planning a
        route for each format in the registry."""
        accepted: List[IOFormat] = []
        for fmt in self.registry.formats():
            route = self._routes.get(fmt.format_id)
            if route is None:
                route = self._plan_route(fmt)
            if not route.is_reject:
                accepted.append(fmt)
        return accepted
