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
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.ecode.analyze import writes_param
from repro.ecode.runtime import copy_value
from repro.errors import NoMatchError, TransformError, UnknownFormatError
from repro.morph.compat import coerce_record, reconcile_field_stats
from repro.obs import OBS
from repro.obs.metrics import RATIO_BUCKETS, Handles, Histogram
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
    MatchResult,
    max_match,
)
from repro.morph.fusion import FusedRoute, plan_fusion
from repro.morph.transform import TransformChain, Transformation, build_chain
from repro.obs.tracectx import UNRECORDED, activate, current, recording
from repro.pbio.buffer import FLAG_BIG_ENDIAN, MessageHeader, unpack_header
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat, widen_record
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry

Handler = Callable[[Record], Any]
DefaultHandler = Callable[[IOFormat, Record], Any]
#: one event's memo of stage results (see :meth:`MorphReceiver.process`)
Shared = Optional[Dict[Any, Record]]


#: The tallies every receiver keeps, read as ``stats.<name>`` and
#: together through ``stats.snapshot()``.
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
    """Per-receiver tallies: nine plain integers (``stats.messages``,
    ``stats.cache_hits``, ...) and the receiver's own
    ``mismatch_ratios`` histogram of its MaxMatch decisions.

    With process-wide observability on (:func:`repro.obs.enable`) the
    tallies something reads as metrics are also added to the global
    ``morph.receiver.*`` counters, the aggregate across all receivers;
    with it off an update is one integer add.
    """

    __slots__ = STAT_COUNTERS + ("mismatch_ratios", "_mirror")

    def __init__(self) -> None:
        for name in STAT_COUNTERS:
            setattr(self, name, 0)
        self.mismatch_ratios = Histogram(
            "morph.maxmatch.mismatch_ratio", bounds=RATIO_BUCKETS
        )
        self._mirror = {
            "messages": Handles.counter("morph.receiver.messages"),
            "cache_hits": Handles.counter("morph.receiver.cache_hits"),
            "cache_misses": Handles.counter("morph.receiver.cache_misses"),
            "perfect_matches": Handles.counter(
                "morph.receiver.perfect_matches"),
            "morphed": Handles.counter("morph.receiver.morphed"),
            "compiled_chains": Handles.counter(
                "morph.receiver.compiled_chains"),
        }

    def inc(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)
        if OBS.enabled:
            mirror = self._mirror.get(name)
            if mirror is not None:
                mirror().inc(amount)

    def observe_mismatch(self, ratio: float) -> None:
        """Record one MaxMatch decision's mismatch ratio."""
        self.mismatch_ratios.observe(ratio)
        if OBS.enabled:
            OBS.metrics.histogram(
                "morph.maxmatch.mismatch_ratio", bounds=RATIO_BUCKETS
            ).observe(ratio)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in STAT_COUNTERS}


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
    #: whole-route fusion plan (decode + chain + reconcile compiled into
    #: one function); None keeps the route on the staged pipeline
    fused: Optional[FusedRoute] = None
    #: set on projection routes that fall back to the staged pipeline:
    #: (projection, parent) — the projected record is widened back to the
    #: full parent shape (defaults for dead fields) before the parent's
    #: transform chain runs, since the chain's ECode was compiled against
    #: the parent's field set
    pre_coercion: Optional[Tuple[IOFormat, IOFormat]] = None

    def __post_init__(self) -> None:
        #: top-level fields dropped / default-filled by the reconcile step,
        #: computed once at plan time and recorded per morph by obs
        self.fields_dropped, self.fields_defaulted = (
            reconcile_field_stats(*self.coercion) if self.coercion else (0, 0)
        )

    @property
    def is_reject(self) -> bool:
        return self.handler_format is None

    @cached_property
    def stages(self) -> List[Tuple[Any, Transformation, bool]]:
        """The chain as ``(memo key, step, may it write its input)``,
        made when the route first meets a memo (a lone reader never pays
        for the analysis).  A key names a value — the record under the
        input's key run through this code into this target, from the
        wire format id down (a ``pre_coercion``-widened record is not
        the raw decode) — so routes agree on keys as far as their chains
        agree.  Ids and the code string: no spec is hashed per event."""
        stages = []
        key: Any = self.wire_format.format_id
        if self.pre_coercion is not None:
            key = (key, self.pre_coercion[1].format_id)
        for step in self.chain.steps:
            key = (key, step.target.format_id, step.spec.code)
            program = getattr(step.procedure, "program", None)
            stages.append((key, step, writes_param(program, "new")))
        return stages

    def run_chain(self, record: Record, shared: Shared) -> Record:
        """The transform chain — through one event's memo if there is
        one: a step some reader has run is looked up, the others run and
        are stored, unless they raise.  A step that may write its input
        gets a copy of it (the input is in the memo too)."""
        if shared is None:
            return self.chain.apply(record)
        for key, step, writes_input in self.stages:
            result = shared.get(key)
            if result is None:
                result = shared[key] = step.apply(
                    copy_value(record) if writes_input else record
                )
            record = result
        return record


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
    contain_failures:
        True turns :meth:`process` and :meth:`process_batch` into total
        functions: instead of raising, a failed message (undecodable
        bytes, unknown format, broken transform, rejected match, handler
        exception) lands in a bounded **dead-letter queue** with the raw
        bytes and error attached, its result is ``None``, and the rest of
        its frame still delivers.  A format id
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

    def process(self, data: bytes, shared: Shared = None) -> Any:
        """Process one wire message — a frame of one; returns whatever
        the handler returns.

        Raises :class:`UnknownFormatError` for unregistered wire ids and
        :class:`NoMatchError` for rejected messages when no default
        handler is installed — unless ``contain_failures`` is set, in
        which case failures dead-letter and ``None`` is returned.

        *shared* is a memo the caller makes (``{}``) for **one** event
        and passes to every receiver it feeds that event's bytes: a route
        then runs its staged steps and looks each result up first — the
        payload decode, each transform of the chain — so the readers of
        one wire pay once for what they have in common.  Everything else
        stays per reader, and a failing step stores nothing: each reader
        runs it, and fails, itself.  Handlers fed from one memo must not
        write their record, and the receivers must be configured alike
        (registry, ``use_codegen``, ``validate_transforms``)."""
        return self._receive((data,), shared=shared)[0]

    def process_batch(self, data: bytes) -> List[Any]:
        """Process one BATCH1 frame (:mod:`repro.net.batch`): validate
        the frame once, activate its frame-level trace context once, then
        run every contained message — a zero-copy ``memoryview`` slice of
        the shared receive buffer — through the loop :meth:`process` runs
        for its frame of one.

        Containment is per *message*, as it is there: a poisoned message
        dead-letters alone and the rest of the frame still delivers.  A
        malformed *frame* dead-letters whole — there is no trustworthy
        way to split it.  Without containment the first failure raises.

        Returns the per-message handler results, in wire order."""
        # at call time: benchmarks/e2e/trace.py counts frames by patching it
        from repro.net.batch import unpack_batch

        try:
            frame = unpack_batch(data)
        except Exception as exc:  # noqa: BLE001 - malformed frame
            if self.contain_failures:
                self._dead_letter(data, None, "decode", exc)
                return []
            raise
        view = memoryview(data)
        # one trace splice per frame: a message without a block of its
        # own keeps the frame's context (activate(None) is a passthrough)
        with activate(frame.trace):
            return self._receive(
                [view[off:off + length] for off, length in frame.segments]
            )

    def _receive(
        self, segments: Iterable[bytes], retrying: bool = False,
        shared: Shared = None,
    ) -> List[Any]:
        """Algorithm 2 over the segments of one frame — the one receive
        loop.  Per segment: parse the header (once), drop quarantined
        traffic at that peek, read the cached route — planned on a miss,
        and read per segment, never per run: a handler may register a
        better format in the middle of a frame — run the route's one
        decode step, dispatch.

        Containment is this loop's ``except``: the failed segment is
        dead-lettered (its bytes copied out of the shared buffer only
        now) under the stage it had reached — a local, so a handler that
        re-enters the receiver cannot move it — its result is ``None``
        and the loop goes on; without ``contain_failures`` the same
        ``except`` re-raises.  *retrying* (:meth:`retry_dead_letters`)
        bypasses the quarantine.  Observation wraps the same calls in
        spans and selects nothing.  The per-message counters are tallied
        in locals and flushed when the frame ends, however it ends."""
        contain = self.contain_failures
        # the live set (a format quarantined mid-frame is dropped from the
        # next segment on); nothing is quarantined for a retry
        quarantined = self._quarantined if contain and not retrying else ()
        observing = OBS.enabled
        routes = self._routes
        results: List[Any] = []
        messages = hits = morphed = reconciled = perfect = 0
        try:
            for data in segments:
                format_id: Optional[int] = None
                stage = "decode"
                try:
                    header = unpack_header(data)
                    format_id = header.format_id
                    if format_id in quarantined:
                        self.containment["quarantine_drops"] += 1
                        results.append(None)
                        continue
                    messages += 1
                    context = span = UNRECORDED
                    tracing = False
                    if observing:
                        # under the message's own trace context (None, a
                        # passthrough, if untraced): a standalone receiver,
                        # or a retry of the raw bytes, still joins its trace
                        own = header.trace
                        tracing = recording(own or current())
                        if tracing:
                            context = activate(own)
                            span = OBS.tracer.span("morph.process")
                    with context, span:
                        route = routes.get(format_id)
                        if route is not None:
                            hits += 1
                        else:
                            incoming = self.registry.lookup_id(format_id)
                            if incoming is None:
                                raise UnknownFormatError(format_id)
                            self.stats.inc("cache_misses")
                            route = self._planned(incoming)
                        record = self._decode(
                            route, header, data, observing, tracing, shared
                        )
                        if route.chain is not None:
                            morphed += 1
                        if route.coercion is not None:
                            reconciled += 1
                        elif route.handler_format is not None:
                            perfect += 1
                        stage = "dispatch"
                        results.append(
                            self._dispatch(route, record, observing, tracing)
                        )
                    if self._failure_counts:
                        # quarantine counts *consecutive* failures
                        self._failure_counts.pop(format_id, None)
                except Exception as exc:  # noqa: BLE001 - defined containment
                    if not contain:
                        raise
                    if isinstance(exc, UnknownFormatError):
                        stage = "unknown_format"
                    elif isinstance(exc, NoMatchError):
                        stage = "no_match"
                    elif isinstance(exc, TransformError):
                        stage = "transform"
                    self._dead_letter(data, format_id, stage, exc)
                    results.append(None)
        finally:
            # zeroes skipped: obs must not see a counter nothing was added to
            inc = self.stats.inc
            if messages:
                inc("messages", messages)
            if hits:
                inc("cache_hits", hits)
            if morphed:
                inc("morphed", morphed)
            if reconciled:
                inc("reconciled", reconciled)
            if perfect:
                inc("perfect_matches", perfect)
        return results

    def process_record(self, fmt: IOFormat, record: Record) -> Any:
        """Process an already-decoded record (used when the transport
        delivers in-process without a wire hop): the staged steps and the
        dispatch tail of :meth:`process`, without its decode.  There are
        no wire bytes to dead-letter, so a failure raises even on a
        ``contain_failures`` receiver."""
        self.stats.inc("messages")
        self.registry.register(fmt)
        route = self._routes.get(fmt.format_id)
        if route is not None:
            self.stats.inc("cache_hits")
        else:
            self.stats.inc("cache_misses")
            route = self._planned(fmt)
        observing = OBS.enabled
        tracing = observing and recording(current())
        record = self._morph(route, record, observing, tracing)
        if route.chain is not None:
            self.stats.inc("morphed")
        if route.coercion is not None:
            self.stats.inc("reconciled")
        elif not route.is_reject:
            self.stats.inc("perfect_matches")
        return self._dispatch(route, record, observing, tracing)

    def _planned(self, fmt: IOFormat) -> _Route:
        """The cached route for *fmt*, planned on a miss.  The cache
        evicts its oldest entry once full (FIFO: route planning is cheap
        relative to holding compiled routines for formats that stopped
        arriving)."""
        with self._lock:
            route = self._routes.get(fmt.format_id)
            if route is None:
                route = self._plan_route(fmt)
                while len(self._routes) >= self.MAX_ROUTES:
                    self._routes.pop(next(iter(self._routes)))
                self._routes[fmt.format_id] = route
                self._note_route_cache_size()
            return route

    def _note_route_cache_size(self) -> None:
        if OBS.enabled:
            OBS.metrics.gauge("morph.receiver.route_cache_size").set(
                len(self._routes)
            )

    # ------------------------------------------------------------------
    # Route execution (the cheap, per-message part)
    # ------------------------------------------------------------------

    def _decode(
        self, route: _Route, header: MessageHeader, data: bytes,
        observing: bool, tracing: bool, shared: Shared,
    ) -> Record:
        """The route's one decode step, from wire bytes to the record its
        handler takes: the fused routine compiled for the payload's byte
        order, else ``PBIOContext.decode_as`` and the staged steps.  A
        fused routine has nothing to share: with a *shared* memo the
        route runs staged, and decodes only if no reader has.

        Here and down the route *observing* (``repro.obs`` is on) counts
        every message; *tracing* (:func:`~repro.obs.tracectx.recording`)
        adds the spans and durations of a sampled one."""
        fused = route.fused
        fn = None if fused is None or shared is not None else fused.fn_for(
            ">" if header.flags & FLAG_BIG_ENDIAN else "<"
        )
        if fn is None:
            if observing:
                self._obs.staged_messages().inc()
            record = None if shared is None else shared.get(header.format_id)
            if record is None:
                record = self.context.decode_as(route.wire_format, data)
                if shared is not None:
                    shared[header.format_id] = record
            return self._morph(route, record, observing, tracing, shared)
        body = header.body_offset
        end = body + header.payload_length
        if not observing:
            return fn(data, body, end)[0]
        wire_format = route.wire_format
        self._obs.fused_messages().inc()
        if tracing:
            with OBS.tracer.span(
                "morph.fused", format=wire_format.name,
                version=wire_format.version,
            ) as active:
                record = fn(data, body, end)[0]
            self._obs.fused_seconds().observe(active.span.duration)
        else:
            record = fn(data, body, end)[0]
        if route.chain is not None:
            # identical labeled counter to the staged path, so the
            # fused/staged differential oracle sees no divergence
            self._obs.transform_applied(wire_format.name).inc()
        return record

    def _morph(
        self, route: _Route, record: Record, observing: bool, tracing: bool,
        shared: Shared = None,
    ) -> Record:
        """The staged pipeline after decode, one pass each: widen a
        projected record, run the transform chain, reconcile (what a
        fused route compiles into its decode)."""
        if route.pre_coercion is not None:
            record = widen_record(*route.pre_coercion, record)
        chain = route.chain
        if chain is not None:
            if tracing:
                with OBS.tracer.span(
                    "morph.transform",
                    source=route.wire_format.version,
                    target=chain.target.version,
                    steps=len(chain),
                ) as active:
                    record = route.run_chain(record, shared)
                self._obs.transform_seconds().observe(active.span.duration)
            else:
                record = route.run_chain(record, shared)
            if observing:
                self._obs.transform_applied(route.wire_format.name).inc()
        if route.coercion is not None:
            if tracing:
                with OBS.tracer.span(
                    "morph.reconcile",
                    dropped=route.fields_dropped,
                    defaulted=route.fields_defaulted,
                ):
                    record = coerce_record(*route.coercion, record)
            else:
                record = coerce_record(*route.coercion, record)
        return record

    def _dispatch(
        self, route: _Route, record: Record, observing: bool, tracing: bool,
    ) -> Any:
        """The tail every entry point ends in: hand *record* to the
        handler of the route's matched format — or, for a message no
        match admits, to the default handler (``NoMatchError`` without
        one)."""
        handler_format = route.handler_format
        if handler_format is None:
            self.stats.inc("rejected")
            if self._default_handler is None:
                raise NoMatchError(
                    f"no acceptable match for incoming format "
                    f"{route.wire_format.name!r} v{route.wire_format.version} "
                    f"(diff_threshold={self.diff_threshold}, "
                    f"mismatch_threshold={self.mismatch_threshold})"
                )
            return self._default_handler(route.wire_format, record)
        handler = self._handlers[handler_format.format_id]
        if observing:
            self._obs.dispatch_delivered(handler_format.name).inc()
        if not tracing:
            return handler(record)
        with OBS.tracer.span(
            "morph.dispatch",
            format=handler_format.name,
            version=handler_format.version,
        ):
            return handler(record)

    # ------------------------------------------------------------------
    # Containment: dead-letter queue, quarantine, retry
    # ------------------------------------------------------------------

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
        for entry in entries:
            depth_before = len(self._dead_letters)
            self._receive((entry.data,), retrying=True)
            if len(self._dead_letters) > depth_before:
                self._dead_letters[-1].attempts = entry.attempts + 1
                requeued += 1
                self.containment["retry_failures"] += 1
            else:
                succeeded += 1
                self.containment["retried"] += 1
        if OBS.enabled and entries:
            OBS.metrics.counter("morph.receiver.dlq_retried").inc(succeeded)
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
        parent_route = self._planned(parent)
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
            return _Route(
                wire_format=incoming,
                chain=None,
                coercion=coercion,
                handler_format=direct.f2,
                match=direct,
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
            return _Route(
                wire_format=incoming,
                chain=chain,
                coercion=coercion,
                handler_format=best.f2,
                match=best,
            )

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
        if fmt.format_id not in self._routes:
            self.registry.register(fmt)
        route = self._planned(fmt)
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
                self._note_route_cache_size()
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
