"""EChoProcess — one process participating in ECho event channels.

Wraps a simulated-network node with:

* a **control plane** (`MorphReceiver`) handling ChannelOpenRequest /
  ChannelOpenResponse — each process registers only the response revision
  its own release understands; the morphing layer reconciles everything
  else (the paper's headline scenario),
* a **data plane**: events are PBIO messages prefixed with an
  ``EventEnvelope``; each channel has its own `MorphReceiver`, so
  application event formats evolve independently of the control plane.

Event distribution is peer-to-peer: sources learn the sink set from the
membership replica and push events directly, with the channel creator
only brokering membership (the ECho model, not a hub-and-spoke bus).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.echo.channel import ChannelState
from repro.echo.protocol import (
    DERIVED_INFO,
    EVENT_ENVELOPE,
    LEAVE_REQUEST,
    OPEN_REQUEST,
    RESPONSE_BY_VERSION,
    register_protocol,
)
from repro.ecode.codegen import ECodeProcedure, compile_procedure
from repro.errors import ChannelError, ECodeError
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
)
from repro.morph.receiver import MorphReceiver
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.reliable import EndpointMixin
from repro.net.transport import Network
from repro.obs import OBS
from repro.obs.metrics import Handles
from repro.obs.tracectx import (
    UNRECORDED,
    TraceContext,
    activate,
    current,
    mint,
    recording,
)
from repro.pbio.buffer import (
    HEADER_SIZE,
    MessageHeader,
    attach_trace,
    peek_trace,
    unpack_header,
)
from repro.pbio.codegen import BatchEncoderFn, make_batch_encoder
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import CachingFormatResolver, ProjectionState

EventHandler = Callable[[Record], Any]


class EChoProcess(EndpointMixin):
    """One ECho endpoint.

    Parameters
    ----------
    network:
        The simulated :class:`~repro.net.transport.Network`.
    address:
        This process's contact string (also its network address).
    registry:
        The shared out-of-band meta-data registry.  Optional when a
        *resolver* (or *format_servers*) is supplied — the process then
        works against the resolver's local cache and fetches unknown
        formats from the server fleet on demand.
    version:
        The ECho release this process runs ("0.0", "1.0" or "2.0") —
        selects which ChannelOpenResponse revision it sends and
        understands.
    reliable:
        Wrap the node in a :class:`~repro.net.reliable.ReliableEndpoint`
        so control and event traffic survives lossy links (seq/ack,
        retries, dup suppression).  *reliable_options* is forwarded to
        the endpoint constructor; the default raises the circuit-breaker
        threshold so bursty loss cannot fail-fast event publishes
        mid-run.
    resolver / format_servers:
        Either an existing :class:`CachingFormatResolver` or a server
        address list from which the process builds one (at
        ``<address>:meta``).  Messages whose format id is not locally
        known are parked, the format fetched out-of-band, and the
        message replayed when the meta-data arrives.
    directory:
        A fabric :class:`~repro.fabric.membership.FabricDirectory` (or
        anything with its ``owner_contact``/``register_echo_channel``
        shape).  When set, channels created here are registered with the
        fabric and :meth:`open_channel` can resolve a channel's creator
        by consistent hashing instead of requiring out-of-band contact
        exchange.
    """

    def __init__(
        self,
        network: Network,
        address: str,
        registry: Optional[FormatRegistry] = None,
        version: str = "2.0",
        diff_threshold: int = DEFAULT_DIFF_THRESHOLD,
        mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD,
        reliable: bool = False,
        reliable_options: Optional[Dict[str, Any]] = None,
        resolver: Optional[CachingFormatResolver] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        contain_failures: bool = False,
        directory: Optional[Any] = None,
    ) -> None:
        if version not in RESPONSE_BY_VERSION:
            raise ChannelError(f"unknown ECho version {version!r}")
        self._open_endpoint(
            network, address, registry, reliable, reliable_options,
            resolver, format_servers, resolver_options, ChannelError,
        )
        registry = self.registry
        self.version = version
        self.directory = directory
        self.contain_failures = contain_failures
        #: messages parked while their format is fetched out-of-band
        self.parked = 0
        #: parked messages dropped because no server knew the format
        self.unresolved = 0
        #: format ids whose meta-data was already refreshed from the
        #: server fleet (refresh once, then live with what we got)
        self._refreshed: set = set()
        self.channels: Dict[str, ChannelState] = {}
        self._current_peer: Optional[str] = None
        register_protocol(registry, version)
        if self.resolver is not None:
            # Upload the protocol formats (and anything pre-registered)
            # so peers resolving through the same fleet can morph our
            # control traffic.
            self.resolver.publish()
        self.control = MorphReceiver(
            registry,
            diff_threshold=diff_threshold,
            mismatch_threshold=mismatch_threshold,
            contain_failures=contain_failures,
        )
        self.control.register_handler(OPEN_REQUEST, self._handle_open_request)
        self.control.register_handler(LEAVE_REQUEST, self._handle_leave_request)
        self.control.register_handler(
            RESPONSE_BY_VERSION[version], self._handle_open_response
        )
        self._event_receivers: Dict[str, MorphReceiver] = {}
        self._diff_threshold = diff_threshold
        self._mismatch_threshold = mismatch_threshold
        #: compiled source-side filters, keyed by derived channel id
        self._filters: Dict[str, ECodeProcedure] = {}
        self.filter_errors = 0
        self.filtered_out = 0
        # counted per event; renegotiations ask the registry when they happen
        self._obs_pushed = Handles.bounded_counter(
            "echo.channel.events_pushed", "channel")
        self._obs_delivered = Handles.bounded_counter(
            "echo.channel.events_delivered", "channel")
        self._obs_projected = Handles.counter("net.projection.messages")
        self._obs_bytes_saved = Handles.counter(
            "net.projection.bytes_saved_est")
        # --- projection push-down state -------------------------------
        #: sender side: negotiated projection per (channel, parent format
        #: id) — {"format", "epoch", "pending"}; "pending" holds a
        #: narrowing until the next publish boundary (the epoch fence)
        self._projection_send: Dict[Tuple[str, int], Dict[str, Any]] = {}
        #: sink side: (channel, wire format id) pairs already examined
        #: for an interest announcement
        self._announced: Set[Tuple[str, int]] = set()
        #: parent formats whose interest this process announced, per
        #: (channel, parent format id) — retracted on leave_channel
        self._interest_parents: Dict[Tuple[str, int], IOFormat] = {}
        #: cached vectorized (envelope, payload) batch encoders per
        #: payload wire-format id
        self._batch_encoders: Dict[int, BatchEncoderFn] = {}
        if self.resolver is not None:
            # Chain (don't steal) the invalidation hook: a server reply
            # displacing cached format content must drop every morph
            # route compiled against the stale entry.
            previous = self.resolver.on_invalidate

            def _on_invalidate(format_id: int) -> None:
                if previous is not None:
                    previous(format_id)
                self._invalidate_routes(format_id)

            self.resolver.on_invalidate = _on_invalidate

    # ------------------------------------------------------------------
    # Channel lifecycle
    # ------------------------------------------------------------------

    def create_channel(self, channel_id: str) -> ChannelState:
        """Create a channel owned by this process."""
        if channel_id in self.channels:
            raise ChannelError(f"channel {channel_id!r} already exists here")
        channel = ChannelState(channel_id, creator_contact=self.address)
        channel.ready = True
        self.channels[channel_id] = channel
        if self.directory is not None:
            # Make the channel discoverable through the fabric: peers
            # with the same directory can open it without being told
            # this process's contact string out-of-band.
            self.directory.register_echo_channel(channel_id, self.address)
        return channel

    def create_derived_channel(
        self, parent_id: str, channel_id: str, filter_code: str
    ) -> ChannelState:
        """Create a *derived* channel: a sub-channel of *parent_id* whose
        events are the parent's events passing the ECode *filter*.

        The filter (params: ``input``, returning C-truthy to keep the
        event) is announced to the parent's sources, compiled there by
        DCG, and evaluated **at the source** — events that fail the
        filter never reach the wire, ECode's original role in ECho."""
        parent = self.channel(parent_id)
        if parent.creator_contact != self.address:
            raise ChannelError(
                f"only the creator of {parent_id!r} may derive channels from it"
            )
        if channel_id in self.channels:
            raise ChannelError(f"channel {channel_id!r} already exists here")
        try:
            compile_procedure(filter_code, ("input",), f"filter_{channel_id}")
        except ECodeError as exc:
            raise ChannelError(f"derived-channel filter does not compile: {exc}")
        channel = ChannelState(
            channel_id,
            creator_contact=self.address,
            parent_id=parent_id,
            filter_code=filter_code,
        )
        channel.ready = True
        self.channels[channel_id] = channel
        self._announce_derived(channel)
        return channel

    def _announce_derived(self, channel: ChannelState, only: "Optional[str]" = None) -> None:
        """Send DerivedChannelInfo + the derived channel's current
        membership to the parent's sources (or just to *only*)."""
        parent = self.channels.get(channel.parent_id or "")
        if parent is None:
            return
        info = DERIVED_INFO.make_record(
            parent_id=channel.parent_id,
            channel_id=channel.channel_id,
            filter_code=channel.filter_code or "",
        )
        response_format = RESPONSE_BY_VERSION[self.version]
        wire = self.pbio.encode(DERIVED_INFO, info) + self.pbio.encode(
            response_format, channel.to_response_record(response_format)
        )
        targets = [only] if only is not None else [
            member.contact
            for member in parent.sources()
            if member.contact != self.address
        ]
        for contact in targets:
            self._send(contact, wire)

    def open_channel(
        self,
        channel_id: str,
        creator: Optional[str] = None,
        as_source: bool = False,
        as_sink: bool = False,
    ) -> ChannelState:
        """Join a remote channel by sending a ChannelOpenRequest to its
        creator.  Membership becomes `ready` once the response arrives
        (run the network to completion first in tests).

        *creator* may be omitted when the process has a fabric
        *directory* — the creator contact is then resolved through it
        (registered echo channels first, shard owner otherwise)."""
        if creator is None:
            if self.directory is None:
                raise ChannelError(
                    f"opening {channel_id!r} without a creator contact "
                    "requires a fabric directory"
                )
            creator = self.directory.owner_contact(channel_id)
        channel = self.channels.get(channel_id)
        if channel is None:
            channel = ChannelState(channel_id, creator_contact=creator)
            self.channels[channel_id] = channel
        channel.is_source = channel.is_source or as_source
        channel.is_sink = channel.is_sink or as_sink
        request = OPEN_REQUEST.make_record(
            channel_id=channel_id,
            contact=self.address,
            is_Source=channel.is_source,
            is_Sink=channel.is_sink,
        )
        self._send(creator, self.pbio.encode(OPEN_REQUEST, request))
        return channel

    def leave_channel(self, channel_id: str) -> None:
        """Leave a previously opened channel.  The creator removes this
        process from the membership and refreshes every remaining
        member's replica; local subscriptions stop immediately."""
        channel = self.channel(channel_id)
        channel.is_source = False
        channel.is_sink = False
        channel.ready = False
        self._event_receivers.pop(channel_id, None)
        if channel.creator_contact == self.address:
            raise ChannelError("the channel creator cannot leave its channel")
        # Retract every interest this subscriber announced, so the
        # group's union projection can narrow back down without it.
        if self.resolver is not None:
            for key, parent in list(self._interest_parents.items()):
                chan, _pid = key
                if chan != channel_id:
                    continue
                del self._interest_parents[key]
                self.resolver.announce_interest(
                    channel_id, parent, None, retract=True
                )
            self._announced = {
                k for k in self._announced if k[0] != channel_id
            }
        request = LEAVE_REQUEST.make_record(
            channel_id=channel_id, contact=self.address
        )
        self._send(channel.creator_contact, self.pbio.encode(LEAVE_REQUEST, request))

    def channel(self, channel_id: str) -> ChannelState:
        try:
            return self.channels[channel_id]
        except KeyError:
            raise ChannelError(
                f"{self.address} has not joined channel {channel_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def event_receiver(self, channel_id: str) -> MorphReceiver:
        """The per-channel morphing receiver for application events."""
        receiver = self._event_receivers.get(channel_id)
        if receiver is None:
            receiver = MorphReceiver(
                self.registry,
                diff_threshold=self._diff_threshold,
                mismatch_threshold=self._mismatch_threshold,
                contain_failures=self.contain_failures,
            )
            self._event_receivers[channel_id] = receiver
        return receiver

    def subscribe(
        self, channel_id: str, fmt: IOFormat, handler: EventHandler
    ) -> None:
        """Register *handler* for events of *fmt* on *channel_id*.  The
        channel must have been created or opened as a sink."""
        channel = self.channel(channel_id)
        if not (channel.is_sink or channel.creator_contact == self.address):
            raise ChannelError(
                f"{self.address} did not open channel {channel_id!r} as a sink"
            )
        self.event_receiver(channel_id).register_handler(fmt, handler)
        # A new handler can change the receiver's liveness set; refresh
        # any interest this process already announced for the channel.
        self._reannounce(channel_id)

    # ------------------------------------------------------------------
    # Projection push-down (negotiated selective field transmission)
    # ------------------------------------------------------------------

    def _invalidate_routes(self, format_id: int) -> None:
        """Resolver invalidation: drop every cached morph route planned
        against the displaced format content."""
        self.control.invalidate_route(format_id)
        for receiver in self._event_receivers.values():
            receiver.invalidate_route(format_id)

    def _maybe_announce(self, channel_id: str, payload: Any) -> None:
        """Sink side: on the first event of each wire format per channel,
        announce this subscriber's interest set — the receiver's fused
        backward-liveness result for the (parent) format, or ``None``
        (full format) when no liveness set is provable.  The format
        server unions announcements across the channel's subscriber
        group and derives the projection the sender encodes to."""
        try:
            format_id = unpack_header(payload).format_id
        except Exception:  # noqa: BLE001 - hostile payload: nothing to announce
            return
        key = (channel_id, format_id)
        if key in self._announced:
            return
        self._announced.add(key)
        fmt = self.registry.lookup_id(format_id)
        if fmt is None:
            return
        parent = fmt
        if isinstance(fmt, ProjectionFormat):
            parent = self.registry.lookup_id(fmt.parent_format_id)
            if parent is None:
                return
        if parent.name == EVENT_ENVELOPE.name:
            return  # protocol plumbing is never projected
        parent_key = (channel_id, parent.format_id)
        if parent_key in self._interest_parents:
            return
        self._interest_parents[parent_key] = parent
        receiver = self._event_receivers.get(channel_id)
        if receiver is None:
            return
        interest = receiver.interest_for(parent)
        assert self.resolver is not None
        self.resolver.announce_interest(
            channel_id, parent,
            sorted(interest) if interest is not None else None,
        )

    def _reannounce(self, channel_id: str) -> None:
        """Re-announce every interest held for *channel_id* (after a new
        handler registration changed the receiver's liveness set)."""
        if self.resolver is None:
            return
        receiver = self._event_receivers.get(channel_id)
        if receiver is None:
            return
        for (chan, _pid), parent in list(self._interest_parents.items()):
            if chan != channel_id:
                continue
            interest = receiver.interest_for(parent)
            self.resolver.announce_interest(
                channel_id, parent,
                sorted(interest) if interest is not None else None,
            )

    def heartbeat(self) -> int:
        """Liveness tick: replay every interest announcement so the
        format-server fleet's TTL leases (``interest_ttl``) stay fresh.
        A process that stops heartbeating — crashed, partitioned — stops
        renewing, and its narrow interests age out of the union, widening
        the projection back for the group.  Returns the number of
        announcements replayed."""
        if self.resolver is None:
            return 0
        return self.resolver.reannounce_interests()

    def _projection_for(
        self, channel_id: str, fmt: IOFormat
    ) -> Optional[ProjectionFormat]:
        """Source side: the projection to encode *fmt* to on
        *channel_id*, or ``None`` for full-format sends.  The first call
        per (channel, format) starts watching the server's projection
        state; pending narrowings are promoted here — the publish
        boundary is the epoch fence, so a narrower format is never
        applied retroactively to frames already encoded."""
        if self.resolver is None or isinstance(fmt, ProjectionFormat):
            return None
        key = (channel_id, fmt.format_id)
        state = self._projection_send.get(key)
        if state is None:
            state = {"format": None, "epoch": 0, "pending": None}
            self._projection_send[key] = state
            self.resolver.watch_projection(
                channel_id, fmt,
                lambda update, _key=key, _fmt=fmt: self._on_projection_update(
                    _key, _fmt, update
                ),
            )
        pending = state["pending"]
        if pending is not None:
            state["format"] = pending["format"]
            state["epoch"] = pending["epoch"]
            state["pending"] = None
            self._note_renegotiation("narrowed")
        return state["format"]

    def _on_projection_update(
        self,
        key: Tuple[str, int],
        parent: IOFormat,
        update: Optional[ProjectionState],
    ) -> None:
        """A new projection state arrived (interest_state reply or
        projection_update push).  Widenings — including a return to the
        full format — apply immediately: every live field a subscriber
        could need is still transmitted.  Narrowings are epoch-fenced:
        parked until the next publish boundary, so in-flight frames and
        anything already encoded keep their (wider, still registered)
        format."""
        state = self._projection_send.get(key)
        if update is None or state is None:
            return
        epoch = update["epoch"]
        if epoch <= state["epoch"] and not (
            epoch == state["epoch"] == 0
        ):
            return  # stale or duplicate state: epochs are monotonic
        new_fmt: Optional[ProjectionFormat] = update["format"]
        current: Optional[ProjectionFormat] = state["format"]
        current_fields = (
            None if current is None else set(current.field_names())
        )
        new_fields = None if new_fmt is None else set(new_fmt.field_names())
        widening = new_fields is None or (
            current_fields is not None and new_fields >= current_fields
        )
        if widening:
            state["format"] = new_fmt
            state["epoch"] = epoch
            state["pending"] = None
            self._note_renegotiation("widened")
        else:
            state["pending"] = {"format": new_fmt, "epoch": epoch}

    def _note_renegotiation(self, kind: str) -> None:
        if OBS.enabled:
            OBS.metrics.counter(
                "net.projection.renegotiations", kind=kind
            ).inc()

    def _record_projected_send(
        self, parent: IOFormat, projection: ProjectionFormat, count: int
    ) -> None:
        if not OBS.enabled or not count:
            return
        self._obs_projected().inc(count)
        saved = parent.min_wire_size - projection.min_wire_size
        if saved > 0:
            self._obs_bytes_saved().inc(saved * count)

    def _batch_encoder(self, wire_fmt: IOFormat) -> BatchEncoderFn:
        """The cached vectorized (envelope, payload) batch encoder for
        *wire_fmt* — one generated routine packs K events straight into
        a BATCH1 body with a single buffer reservation."""
        encoder = self._batch_encoders.get(wire_fmt.format_id)
        if encoder is None:
            encoder = make_batch_encoder(
                (EVENT_ENVELOPE, wire_fmt), byte_order=self.pbio.byte_order
            )
            self._batch_encoders[wire_fmt.format_id] = encoder
        return encoder

    def _has_derived(self, channel_id: str) -> bool:
        return any(
            channel.parent_id == channel_id
            for channel in self.channels.values()
        )

    def submit(self, channel_id: str, fmt: IOFormat, record: Record) -> int:
        """Publish an event to the channel; returns the number of remote
        sinks it was pushed to.  Local subscription is delivered in-line."""
        channel = self.channel(channel_id)
        if not (channel.is_source or channel.creator_contact == self.address):
            raise ChannelError(
                f"{self.address} did not open channel {channel_id!r} as a source"
            )
        # A fresh distributed trace per sampled event.  Both the
        # envelope and the payload wires carry the 26-byte context block,
        # so a payload parked in the DLQ or replayed after a format fetch
        # still knows which trace it belongs to.  With tracing off, or
        # for an event the sampler passed over, no block is attached and
        # the wire is byte-identical to an untraced build.
        ctx = mint() if OBS.enabled else None
        # Encode to the channel's negotiated projection when one is
        # active — the projection's generated encoder reads only its own
        # (live) fields straight out of the full record.
        projection = self._projection_for(channel_id, fmt)
        wire_fmt = projection if projection is not None else fmt
        payload = self.pbio.encode(wire_fmt, record)
        if projection is not None:
            self._record_projected_send(fmt, projection, 1)
        envelope = EVENT_ENVELOPE.make_record(
            channel_id=channel_id, seq=channel.next_seq()
        )
        envelope_wire = self.pbio.encode(EVENT_ENVELOPE, envelope)
        context = span = UNRECORDED
        if ctx is not None:
            payload = attach_trace(payload, ctx)
            envelope_wire = attach_trace(envelope_wire, ctx)
            context = activate(ctx)
            span = OBS.tracer.span(
                "echo.publish",
                channel=channel_id,
                process=self.address,
                format=fmt.name,
                vtime=self.network.now,
            )
        datagram = envelope_wire + payload
        with context, span:
            pushed = 0
            for member in channel.sinks():
                if member.contact == self.address:
                    continue
                self._send(member.contact, datagram)
                pushed += 1
            if OBS.enabled and pushed:
                self._obs_pushed(channel_id).inc(pushed)
            if channel.is_sink and channel_id in self._event_receivers:
                self._deliver_event(
                    channel_id, self._event_receivers[channel_id], payload
                )
            if self._has_derived(channel_id):
                # Derived-channel sinks negotiate per *derived* channel,
                # not in the parent's subscriber group: forward the full
                # format, never the parent group's projection.
                derived_payload = payload
                if projection is not None:
                    derived_payload = self.pbio.encode(fmt, record)
                    if ctx is not None:
                        derived_payload = attach_trace(derived_payload, ctx)
                pushed += self._submit_derived(
                    channel_id, record, derived_payload, ctx
                )
        return pushed

    def submit_batch(
        self, channel_id: str, fmt: IOFormat, records: List[Record]
    ) -> int:
        """Publish *records* as **one** BATCH1 frame per remote sink.

        The whole group costs one transport send and one reliable
        sequence number per sink, and — when tracing is on — one
        frame-level trace context instead of one per event (the frame's
        context stays active across every contained message's delivery).
        Each event still gets its own envelope and channel sequence
        number, so per-message identity, ordering and exactly-once
        accounting are unchanged from :meth:`submit`.

        Returns the number of remote pushes, like :meth:`submit`."""
        if not records:
            return 0
        channel = self.channel(channel_id)
        if not (channel.is_source or channel.creator_contact == self.address):
            raise ChannelError(
                f"{self.address} did not open channel {channel_id!r} as a source"
            )
        ctx = mint() if OBS.enabled else None
        projection = self._projection_for(channel_id, fmt)
        wire_fmt = projection if projection is not None else fmt
        local_sink = channel.is_sink and channel_id in self._event_receivers
        has_derived = self._has_derived(channel_id)
        payloads: Optional[List[bytes]] = None
        if not local_sink and not has_derived and self.pbio.use_codegen:
            # Vectorized fast path: one generated routine packs every
            # (envelope, payload) pair straight into the BATCH1 body
            # with a single buffer reservation — byte-identical to the
            # compose-then-concat path below.
            rows = [
                (
                    EVENT_ENVELOPE.make_record(
                        channel_id=channel_id, seq=channel.next_seq()
                    ),
                    record,
                )
                for record in records
            ]
            frame = self._batch_encoder(wire_fmt)(rows, ctx)
        else:
            payloads = []
            datagrams: List[bytes] = []
            for record in records:
                payload = self.pbio.encode(wire_fmt, record)
                envelope = EVENT_ENVELOPE.make_record(
                    channel_id=channel_id, seq=channel.next_seq()
                )
                payloads.append(payload)
                datagrams.append(
                    self.pbio.encode(EVENT_ENVELOPE, envelope) + payload
                )
            frame = pack_batch(datagrams, ctx)
        if projection is not None:
            self._record_projected_send(fmt, projection, len(records))
        context = span = UNRECORDED
        if ctx is not None:
            context = activate(ctx)
            span = OBS.tracer.span(
                "echo.publish_batch",
                channel=channel_id,
                process=self.address,
                format=fmt.name,
                count=len(records),
                vtime=self.network.now,
            )
        with context, span:
            pushed = 0
            for member in channel.sinks():
                if member.contact == self.address:
                    continue
                self._send(member.contact, frame)
                pushed += 1
            if OBS.enabled and pushed:
                # same per-event accounting as the unbatched path, so
                # the batching differential oracle sees no divergence
                self._obs_pushed(channel_id).inc(pushed * len(records))
            if payloads is not None and local_sink:
                receiver = self._event_receivers[channel_id]
                for payload in payloads:
                    self._deliver_event(channel_id, receiver, payload)
            if payloads is not None and has_derived:
                derived_payloads = payloads
                if projection is not None:
                    derived_payloads = [
                        self.pbio.encode(fmt, record) for record in records
                    ]
                for record, payload in zip(records, derived_payloads):
                    pushed += self._submit_derived(
                        channel_id, record, payload, ctx
                    )
        return pushed

    def _deliver_event(
        self, channel_id: str, receiver: MorphReceiver, payload: bytes
    ) -> None:
        """Hand one event payload to the channel's morphing receiver,
        recording per-channel delivery metrics when observability is on."""
        if self.resolver is not None:
            self._maybe_announce(channel_id, payload)
        if not OBS.enabled:
            receiver.process(payload)
            return
        # A sampled payload carries its own trace block (attached at
        # submit), so delivery resumed from a DLQ retry or a format-fetch
        # replay re-joins the original trace even though the publishing
        # call stack is long gone.
        own = peek_trace(payload)
        if recording(own or current()):
            with activate(own), OBS.tracer.span(
                "echo.deliver", channel=channel_id, process=self.address
            ):
                receiver.process(payload)
        else:
            receiver.process(payload)
        self._obs_delivered(channel_id).inc()

    def _submit_derived(
        self,
        parent_id: str,
        record: Record,
        payload: bytes,
        ctx: Optional[TraceContext] = None,
    ) -> int:
        """Run each derived channel's compiled filter on *record* at the
        source; forward the event to the derived sinks only when the
        filter keeps it (events that fail never touch the wire)."""
        pushed = 0
        for derived in list(self.channels.values()):
            if derived.parent_id != parent_id:
                continue
            filter_proc = self._filters.get(derived.channel_id)
            if filter_proc is None:
                if derived.filter_code:
                    try:
                        filter_proc = compile_procedure(
                            derived.filter_code, ("input",),
                            f"filter_{derived.channel_id}",
                        )
                    except ECodeError:
                        self.filter_errors += 1
                        continue
                    self._filters[derived.channel_id] = filter_proc
                else:
                    continue
            try:
                keep = filter_proc(record)
            except ECodeError:
                self.filter_errors += 1
                continue
            if not keep:
                self.filtered_out += 1
                continue
            envelope = EVENT_ENVELOPE.make_record(
                channel_id=derived.channel_id, seq=derived.next_seq()
            )
            envelope_wire = self.pbio.encode(EVENT_ENVELOPE, envelope)
            if ctx is not None:
                envelope_wire = attach_trace(envelope_wire, ctx)
            datagram = envelope_wire + payload
            for member in derived.sinks():
                if member.contact == self.address:
                    continue
                self._send(member.contact, datagram)
                pushed += 1
        return pushed

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _park(self, format_id: int, replay: Callable[[], None]) -> None:
        """Park a message whose meta-data (format or transform closure)
        is missing locally: fetch it from the format-server fleet, then
        *replay*.  Messages whose format no server knows either are
        counted as unresolved and dropped."""
        self.parked += 1

        def _done(found: Optional[IOFormat]) -> None:
            if found is None:
                self.unresolved += 1
                return
            # Processed with whatever meta-data the fetch yielded —
            # never re-parked, so a server missing the transforms
            # degrades to reconciliation instead of looping.
            self._refreshed.add(format_id)
            replay()

        assert self.resolver is not None
        self.resolver.refresh(format_id, _done)

    def _on_message(self, source: str, data: bytes) -> None:
        if is_batch(data):
            self._on_batch(source, data)
            return
        header = unpack_header(data)
        fmt = self.registry.lookup_id(header.format_id)
        if fmt is None and self.resolver is not None:
            self._park(header.format_id,
                       lambda: self._on_message(source, data))
            return
        self._current_peer = source
        # Restore the wire-carried trace context (None when untraced) so
        # every span recorded while dispatching — decode, MaxMatch, the
        # transform chain, handlers — joins the publisher's trace.
        body_end = header.body_offset + header.payload_length
        own = header.trace
        try:
            if own is None:
                self._dispatch_message(source, data, header, fmt, body_end)
            else:
                with activate(own):
                    self._dispatch_message(source, data, header, fmt, body_end)
        finally:
            self._current_peer = None

    def _on_batch(self, source: str, data: bytes) -> None:
        """Decompose one BATCH1 frame: validate it once, activate its
        frame-level trace once, then run every contained message through
        the normal dispatch as a zero-copy ``memoryview`` slice."""
        frame = unpack_batch(data)
        view = data if isinstance(data, memoryview) else memoryview(data)
        span = UNRECORDED
        if OBS.enabled and recording(frame.trace or current()):
            span = OBS.tracer.span(
                "echo.batch.receive", process=self.address, count=frame.count
            )
        with activate(frame.trace), span:
            for off, length in frame.segments:
                self._on_message(source, view[off:off + length])

    def _dispatch_message(
        self,
        source: str,
        data: bytes,
        header: MessageHeader,
        fmt: Optional[IOFormat],
        body_end: int,
    ) -> None:
        if fmt is not None and fmt.name == DERIVED_INFO.name:
            info = self.pbio.decode_as(fmt, data[:body_end])
            trailing = data[body_end:]
            self._handle_derived_info(source, info, trailing)
        elif fmt is not None and fmt.name == EVENT_ENVELOPE.name:
            envelope = self.pbio.decode_as(fmt, data[:body_end])
            payload = data[body_end:]
            channel_id = envelope["channel_id"]
            receiver = self._event_receivers.get(channel_id)
            if receiver is not None:
                if self.resolver is not None and len(payload) > HEADER_SIZE:
                    payload_id = unpack_header(payload).format_id
                    payload_fmt = self.registry.lookup_id(payload_id)
                    if payload_id not in self._refreshed and (
                        payload_fmt is None
                        or not receiver.has_exact_route(payload_fmt)
                    ):
                        self._park(
                            payload_id,
                            lambda: self._deliver_event(
                                channel_id, receiver, payload
                            ),
                        )
                        return
                self._deliver_event(channel_id, receiver, payload)
        else:
            if (
                self.resolver is not None
                and fmt is not None
                and header.format_id not in self._refreshed
                and not self.control.has_exact_route(fmt)
            ):
                # Known format, but no handler and no transform
                # chain reaching one: pull the writer's transform
                # closure from the server before reconciling.
                self._park(header.format_id,
                           lambda: self._on_message(source, data))
                return
            self.control.process(data)

    # ------------------------------------------------------------------
    # Control handlers
    # ------------------------------------------------------------------

    def _handle_derived_info(
        self, source: str, info: Record, response_wire: bytes
    ) -> None:
        """A source's view of a derived channel: store the filter,
        compile it (DCG, cached), and ingest the membership replica."""
        channel_id = info["channel_id"]
        channel = self.channels.get(channel_id)
        if channel is None:
            channel = ChannelState(
                channel_id,
                creator_contact=source,
                parent_id=info["parent_id"],
                filter_code=info["filter_code"],
            )
            self.channels[channel_id] = channel
        else:
            channel.parent_id = info["parent_id"]
            channel.filter_code = info["filter_code"]
        try:
            self._filters[channel_id] = compile_procedure(
                info["filter_code"], ("input",), f"filter_{channel_id}"
            )
        except ECodeError:
            self.filter_errors += 1
            return
        if response_wire:
            self.control.process(response_wire)

    def _handle_open_request(self, record: Record) -> None:
        channel_id = record["channel_id"]
        channel = self.channels.get(channel_id)
        if channel is None or channel.creator_contact != self.address:
            return  # not the creator; drop (simulates a misrouted request)
        channel.add_member(
            record["contact"],
            is_source=bool(record["is_Source"]),
            is_sink=bool(record["is_Sink"]),
        )
        if record["is_Source"]:
            # a new source must learn this channel's derived children
            for child in self.channels.values():
                if child.parent_id == channel_id:
                    self._announce_derived(child, only=record["contact"])
        if channel.is_derived:
            # derived membership changed: refresh the parent's sources
            self._announce_derived(channel)
        response_format = RESPONSE_BY_VERSION[self.version]
        response = channel.to_response_record(response_format)
        wire = self.pbio.encode(response_format, response)
        # reply to the requester and refresh every other member's replica
        # (sorted: set iteration depends on string hash randomization,
        # and send order must be reproducible across processes for the
        # seeded fault-injection harness)
        targets = {record["contact"]}
        targets.update(
            member.contact
            for member in channel.member_list()
            if member.contact != self.address
        )
        for contact in sorted(targets):
            self._send(contact, wire)

    def _handle_leave_request(self, record: Record) -> None:
        channel = self.channels.get(record["channel_id"])
        if channel is None or channel.creator_contact != self.address:
            return
        removed = channel.remove_member(record["contact"])
        if removed is None:
            return
        response_format = RESPONSE_BY_VERSION[self.version]
        wire = self.pbio.encode(
            response_format, channel.to_response_record(response_format)
        )
        for member in channel.member_list():
            if member.contact != self.address:
                self._send(member.contact, wire)

    def _handle_open_response(self, record: Record) -> None:
        channel = self.channels.get(record["channel_id"])
        if channel is None:
            return
        channel.update_from_response(record)
        # keep our own declared roles (the response reflects them anyway,
        # but a racing update may predate our join)
        if channel.local_member_id is None:
            for member in channel.member_list():
                if member.contact == self.address:
                    channel.local_member_id = member.member_id
                    break
