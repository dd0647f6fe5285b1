"""EChoProcess — one process participating in ECho event channels.

Wraps a simulated-network node, through its
:class:`~repro.net.reliable.ReliableEndpoint`, with:

* a **control plane** (`MorphReceiver`) handling ChannelOpenRequest /
  ChannelOpenResponse — each process registers only the response revision
  its own release understands; the morphing layer reconciles everything
  else (the paper's headline scenario),
* a **data plane**: events are PBIO messages prefixed with an
  ``EventEnvelope``; each channel has its own `MorphReceiver`, so
  application event formats evolve independently of the control plane.

Everything the process knows about a channel is one
:class:`~repro.echo.channel.ChannelState` in ``channels``: the
membership replica, the roles, the event receiver, the derived channels
it filters for, the projection it sends each format in and the interest
it announced.  Leaving a channel resets that record.

Event distribution is peer-to-peer: sources learn the sink set from the
membership replica and push events directly, with the channel creator
only brokering membership (the ECho model, not a hub-and-spoke bus).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.echo.channel import ChannelState, ProjectionSend
from repro.echo.protocol import (
    DERIVED_INFO,
    EVENT_ENVELOPE,
    LEAVE_REQUEST,
    OPEN_REQUEST,
    RESPONSE_BY_VERSION,
    register_protocol,
)
from repro.ecode.codegen import compile_procedure
from repro.errors import ChannelError, ECodeError
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
)
from repro.morph.receiver import MorphReceiver
# unpack_batch stays for benchmarks/e2e/trace.py's patch list
from repro.net.batch import (
    BatchFrame,
    pack_batch,
    split_batch,
    unpack_batch,
)
from repro.net.reliable import EndpointMixin, refuse_removed_modes
from repro.net.transport import Network
from repro.obs import OBS
from repro.obs.metrics import Tallies, collect, counter
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
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import ProjectionState

EventHandler = Callable[[Record], Any]

#: formats the endpoint decodes itself (the rest go to ``control``)
_PLUMBING = (DERIVED_INFO.name, EVENT_ENVELOPE.name)

_COLLECTED = (
    counter("echo.channel.events_pushed", "pushed", "channel", bounded=True),
    counter("echo.channel.events_delivered", "delivered", "channel",
            bounded=True),
    counter("net.projection.messages", "projected"),
    counter("net.projection.bytes_saved_est", "bytes_saved"),
    counter("net.projection.renegotiations", "renegotiations", "kind"),
)


class EChoProcess(EndpointMixin):
    """One ECho endpoint.

    Parameters
    ----------
    network:
        The simulated :class:`~repro.net.transport.Network`.
    address:
        This process's contact string (also its network address).
    registry:
        The shared out-of-band meta-data registry.  Optional when
        *format_servers* is supplied — the process then works against
        its resolver's local cache and fetches unknown formats from the
        server fleet on demand.
    version:
        The ECho release this process runs ("0.0", "1.0" or "2.0") —
        selects which ChannelOpenResponse revision it sends and
        understands.
    reliable_options:
        The node always runs wrapped in a
        :class:`~repro.net.reliable.ReliableEndpoint` (``reliable``), so
        control and event traffic survives lossy links (seq/ack,
        retries, dup suppression); these options are forwarded to its
        constructor, and the default raises the circuit-breaker
        threshold so bursty loss cannot fail-fast event publishes
        mid-run.  Its control receiver and every event receiver contain
        their failures: a message that fails lands in that receiver's
        dead-letter queue and counts in ``errors`` / ``last_error``.
        ``reliable=`` and ``contain_failures=`` accept only ``True``.
    format_servers:
        A server address list from which the process builds its
        :class:`~repro.pbio.server.CachingFormatResolver` (at
        ``<address>:meta``, read back as ``resolver``).  A message whose
        format id is not locally known is held, the format fetched
        out-of-band, and the message replayed when the meta-data
        arrives; the peer's later messages wait behind it
        (:meth:`~repro.net.reliable.EndpointMixin._hold`).
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
        reliable: bool = True,
        reliable_options: Optional[Dict[str, Any]] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        contain_failures: bool = True,
        directory: Optional[Any] = None,
    ) -> None:
        refuse_removed_modes(
            reliable=reliable, contain_failures=contain_failures)
        if version not in RESPONSE_BY_VERSION:
            raise ChannelError(f"unknown ECho version {version!r}")
        self._open_endpoint(
            network, address, registry, reliable_options,
            format_servers, resolver_options, ChannelError,
        )
        registry = self.registry
        self.version = version
        self.directory = directory
        self.channels: Dict[str, ChannelState] = {}
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
        )
        self.control.register_handler(OPEN_REQUEST, self._handle_open_request)
        self.control.register_handler(LEAVE_REQUEST, self._handle_leave_request)
        self.control.register_handler(
            RESPONSE_BY_VERSION[version], self._handle_open_response
        )
        #: the control receiver's failures already counted in ``errors``
        self._control_failed = 0
        self._diff_threshold = diff_threshold
        self._mismatch_threshold = mismatch_threshold
        self.filter_errors = 0
        self.filtered_out = 0
        #: per channel: events pushed to sinks / delivered here; events
        #: sent projected, the wire bytes that saved, and renegotiations
        self._tally = Tallies("pushed", "delivered", "renegotiations",
                              projected=0, bytes_saved=0)
        collect(self, self._tally, _COLLECTED)
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
            filter_proc = compile_procedure(
                filter_code, ("input",), f"filter_{channel_id}"
            )
        except ECodeError as exc:
            raise ChannelError(f"derived-channel filter does not compile: {exc}")
        channel = ChannelState(
            channel_id,
            creator_contact=self.address,
            parent_id=parent_id,
            filter_code=filter_code,
        )
        channel.ready = True
        channel.filter_proc = filter_proc
        self.channels[channel_id] = channel
        parent.children.append(channel)
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
            self.reliable.send(contact, wire)

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
        self.reliable.send(creator, self.pbio.encode(OPEN_REQUEST, request))
        return channel

    def leave_channel(self, channel_id: str) -> None:
        """Leave a previously opened channel.  The creator removes this
        process from the membership and refreshes every remaining
        member's replica; local subscriptions stop immediately
        (:meth:`ChannelState.leave`).  The creator is refused before
        anything changes."""
        channel = self.channel(channel_id)
        if channel.creator_contact == self.address:
            raise ChannelError("the channel creator cannot leave its channel")
        # Retract every interest this subscriber announced, so the
        # group's union projection can narrow back down without it.
        for parent in channel.leave():
            self.resolver.announce_interest(
                channel_id, parent, None, retract=True)
        request = LEAVE_REQUEST.make_record(
            channel_id=channel_id, contact=self.address
        )
        self.reliable.send(
            channel.creator_contact, self.pbio.encode(LEAVE_REQUEST, request))

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
        """The morphing receiver for application events on a channel
        this process has joined (made on first use)."""
        channel = self.channel(channel_id)
        if channel.receiver is None:
            channel.receiver = MorphReceiver(
                self.registry,
                diff_threshold=self._diff_threshold,
                mismatch_threshold=self._mismatch_threshold,
            )
        return channel.receiver

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
        for parent in channel.interest_parents.values():
            self._announce_interest(channel, parent)

    # ------------------------------------------------------------------
    # Projection push-down (negotiated selective field transmission)
    # ------------------------------------------------------------------

    def _invalidate_routes(self, format_id: int) -> None:
        """Resolver invalidation: drop every cached morph route planned
        against the displaced format content."""
        self.control.invalidate_route(format_id)
        for channel in self.channels.values():
            if channel.receiver is not None:
                channel.receiver.invalidate_route(format_id)

    def _maybe_announce(
        self, channel: ChannelState, payload: Any,
        header: Optional[MessageHeader] = None,
    ) -> None:
        """Sink side: on the first event of each wire format per channel,
        announce this subscriber's interest set — the receiver's fused
        backward-liveness result for the (parent) format, or ``None``
        (full format) when no liveness set is provable.  The format
        server unions announcements across the channel's subscriber
        group and derives the projection the sender encodes to."""
        if header is None:
            try:
                header = unpack_header(payload)
            except Exception:  # noqa: BLE001 - hostile payload: nothing to announce
                return
        format_id = header.format_id
        if format_id in channel.announced:
            return
        channel.announced.add(format_id)
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
        if parent.format_id in channel.interest_parents:
            return
        channel.interest_parents[parent.format_id] = parent
        self._announce_interest(channel, parent)

    def _announce_interest(
        self, channel: ChannelState, parent: IOFormat
    ) -> None:
        """Announce the channel receiver's interest set for *parent*."""
        interest = channel.receiver.interest_for(parent)
        self.resolver.announce_interest(
            channel.channel_id, parent,
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
        self, channel: ChannelState, fmt: IOFormat
    ) -> Optional[ProjectionFormat]:
        """Source side: the projection to encode *fmt* to on *channel*,
        or ``None`` for full-format sends.  The first call per (channel,
        format) starts watching the server's projection state; pending
        narrowings are promoted here — the publish boundary is the epoch
        fence, so a narrower format is never applied retroactively to
        frames already encoded."""
        if self.resolver is None or isinstance(fmt, ProjectionFormat):
            return None
        send = channel.projections.get(fmt.format_id)
        if send is None:
            send = channel.projections[fmt.format_id] = ProjectionSend()
            self.resolver.watch_projection(
                channel.channel_id, fmt,
                lambda update: self._on_projection_update(
                    channel, fmt.format_id, send, update),
            )
        if send.pending is not None:
            send.format, send.epoch = send.pending
            send.pending = None
            self._tally.renegotiations["narrowed"] += 1
        return send.format

    def _on_projection_update(
        self,
        channel: ChannelState,
        format_id: int,
        send: ProjectionSend,
        update: Optional[ProjectionState],
    ) -> None:
        """A new projection state arrived (interest_state reply or
        projection_update push) for *send*, unless leaving the channel
        has dropped it.  Widenings — including a return to the full
        format — apply immediately: every live field a subscriber could
        need is still transmitted.  Narrowings are epoch-fenced: parked
        until the next publish boundary, so in-flight frames and
        anything already encoded keep their (wider, still registered)
        format."""
        if update is None or channel.projections.get(format_id) is not send:
            return
        epoch = update["epoch"]
        if epoch <= send.epoch and not (epoch == send.epoch == 0):
            return  # stale or duplicate state: epochs are monotonic
        new_fmt: Optional[ProjectionFormat] = update["format"]
        current_fields = (
            None if send.format is None else set(send.format.field_names())
        )
        new_fields = None if new_fmt is None else set(new_fmt.field_names())
        widening = new_fields is None or (
            current_fields is not None and new_fields >= current_fields
        )
        if widening:
            send.format = new_fmt
            send.epoch = epoch
            send.pending = None
            self._tally.renegotiations["widened"] += 1
        else:
            send.pending = (new_fmt, epoch)

    def _record_projected_send(
        self, parent: IOFormat, projection: ProjectionFormat, count: int
    ) -> None:
        self._tally.projected += count
        self._tally.bytes_saved += count * max(
            0, parent.min_wire_size - projection.min_wire_size)

    def submit(self, channel_id: str, fmt: IOFormat, record: Record) -> int:
        """Publish an event to the channel as a bare message; returns the
        number of remote sinks it was pushed to.  Local subscription is
        delivered in-line."""
        return self._submit(channel_id, fmt, [record], "echo.publish")

    def submit_batch(
        self, channel_id: str, fmt: IOFormat, records: List[Record]
    ) -> int:
        """Publish *records* to each remote sink in BATCH1 frames split
        at the ceiling (:func:`~repro.net.batch.split_batch`).

        The group costs one transport send and one reliable sequence
        number per frame and sink, and — when tracing is on — one
        frame-level trace context instead of one per event (the frame's
        context stays active across every contained message's delivery).
        Each event still gets its own envelope and channel sequence
        number, so per-message identity, ordering and exactly-once
        accounting are unchanged from :meth:`submit`; one record leaves
        bare, as :meth:`submit`.

        Returns the number of remote pushes, like :meth:`submit`."""
        if not records:
            return 0
        return self._submit(channel_id, fmt, records, "echo.publish_batch")

    def _submit(
        self, channel_id: str, fmt: IOFormat, records: List[Record], span: str
    ) -> int:
        channel = self.channel(channel_id)
        if not (channel.is_source or channel.creator_contact == self.address):
            raise ChannelError(
                f"{self.address} did not open channel {channel_id!r} as a source"
            )
        # A fresh distributed trace per sampled call.  A lone event's
        # envelope and payload wires both carry the 26-byte context
        # block, so a payload parked in the DLQ or replayed after a
        # format fetch still knows which trace it belongs to; a frame
        # carries it once for every event inside.  With tracing off, or
        # for a call the sampler passed over, no block is attached and
        # the wire is byte-identical to an untraced build.
        ctx = mint() if OBS.enabled else None
        framed = len(records) > 1
        own = None if framed else ctx
        # Encode to the channel's negotiated projection when one is
        # active — the projection's generated encoder reads only its own
        # (live) fields straight out of the full record.
        projection = self._projection_for(channel, fmt)
        wire_fmt = projection if projection is not None else fmt
        payloads: List[bytes] = []
        datagrams: List[bytes] = []
        for record in records:
            payload = self.pbio.encode(wire_fmt, record)
            envelope_wire = self.pbio.encode_values(
                EVENT_ENVELOPE, (channel_id, channel.next_seq()))
            if own is not None:
                payload = attach_trace(payload, own)
                envelope_wire = attach_trace(envelope_wire, own)
            payloads.append(payload)
            datagrams.append(envelope_wire + payload)
        wires = [
            pack_batch(group, ctx) for group in split_batch(datagrams)
        ] if framed else datagrams
        if projection is not None:
            self._record_projected_send(fmt, projection, len(records))
        context = recorded = UNRECORDED
        if ctx is not None:
            context = activate(ctx)
            recorded = OBS.tracer.span(
                span,
                channel=channel_id,
                process=self.address,
                format=fmt.name,
                count=len(records),
                vtime=self.network.now,
            )
        with context, recorded:
            pushed = 0
            for member in channel.sinks():
                if member.contact == self.address:
                    continue
                for wire in wires:
                    self.reliable.send(member.contact, wire)
                pushed += 1
            # per-event accounting, so the batching differential oracle
            # sees no divergence between the entries
            self._tally.pushed[channel_id] += pushed * len(records)
            if channel.is_sink and channel.receiver is not None:
                for payload in payloads:
                    self._deliver_event(channel, payload)
            if channel.children:
                # Derived-channel sinks negotiate per *derived* channel,
                # not in the parent's subscriber group: forward the full
                # format, never the parent group's projection.
                if projection is not None:
                    payloads = [
                        self.pbio.encode(fmt, record) for record in records
                    ]
                    if own is not None:
                        payloads = [attach_trace(p, own) for p in payloads]
                for record, payload in zip(records, payloads):
                    pushed += self._submit_derived(
                        channel, record, payload, ctx
                    )
        return pushed

    def _deliver_event(
        self, channel: ChannelState, payload: bytes,
        header: Optional[MessageHeader] = None,
    ) -> None:
        """Hand one event payload — with its *header*, when dispatch
        parsed it — to the channel's morphing receiver, count the
        delivery per channel and what the receiver contained
        (:meth:`_account`).  A channel left since the payload arrived
        (a replay after a format fetch) has no receiver: nothing runs."""
        receiver = channel.receiver
        if receiver is None:
            return
        if self.resolver is not None:
            self._maybe_announce(channel, payload, header)
        # A sampled payload carries its own trace block (attached at
        # submit), so delivery resumed from a DLQ retry or a format-fetch
        # replay re-joins the original trace even though the publishing
        # call stack is long gone.
        if OBS.enabled and recording((own := peek_trace(payload)) or current()):
            with activate(own), OBS.tracer.span(
                "echo.deliver", channel=channel.channel_id,
                process=self.address,
            ):
                receiver.process(payload, None, header)
        else:
            receiver.process(payload, None, header)
        channel.failed = self._account(receiver, channel.failed)
        self._tally.delivered[channel.channel_id] += 1

    def _control(
        self, data: bytes, header: Optional[MessageHeader] = None
    ) -> None:
        """Run *data* through the control receiver; what it contained
        counts here (:meth:`_account`)."""
        self.control.process(data, None, header)
        self._control_failed = self._account(
            self.control, self._control_failed)

    def _submit_derived(
        self,
        parent: ChannelState,
        record: Record,
        payload: bytes,
        ctx: Optional[TraceContext] = None,
    ) -> int:
        """Run each derived channel's compiled filter on *record* at the
        source; forward the event to the derived sinks only when the
        filter keeps it (events that fail never touch the wire)."""
        pushed = 0
        for derived in parent.children:
            filter_proc = derived.filter_proc
            if filter_proc is None:
                continue
            try:
                keep = filter_proc(record)
            except ECodeError:
                self.filter_errors += 1
                continue
            if not keep:
                self.filtered_out += 1
                continue
            envelope_wire = self.pbio.encode_values(
                EVENT_ENVELOPE, (derived.channel_id, derived.next_seq()))
            if ctx is not None:
                envelope_wire = attach_trace(envelope_wire, ctx)
            datagram = envelope_wire + payload
            for member in derived.sinks():
                if member.contact == self.address:
                    continue
                self.reliable.send(member.contact, datagram)
                pushed += 1
        return pushed

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_segments(self, source: str, segments: List[bytes]) -> None:
        """Dispatch each message of a frame (a bare message is a frame of
        one) as a control message, a derived-channel announcement or an
        event, each contained on its own."""
        for data in segments:
            try:
                if source in self._holds:
                    self._hold(source, lambda d=data: self._on_segments(
                        source, [d]))
                    continue
                header = unpack_header(data)
                fmt = self.registry.lookup_id(header.format_id)
                name = fmt.name if fmt is not None else None
                if name not in _PLUMBING and self._needs_meta(
                        header.format_id, fmt, self.control):
                    # Unknown, or with no handler and no transform chain
                    # reaching one: pull it and the writer's transform
                    # closure first.
                    self._hold(source, lambda d=data: self._on_segments(
                        source, [d]), header.format_id)
                    continue
                # Restore the wire-carried trace context (None when
                # untraced) so every span recorded while dispatching —
                # decode, MaxMatch, the transform chain, handlers — joins
                # the publisher's trace.
                if header.trace is None:
                    self._dispatch_message(source, data, header, fmt, name)
                else:
                    with activate(header.trace):
                        self._dispatch_message(
                            source, data, header, fmt, name)
            except Exception as exc:  # noqa: BLE001 - contained per message
                self._contain(exc)

    def _frame_span(self, frame: BatchFrame) -> Any:
        if OBS.enabled and recording(frame.trace or current()):
            return OBS.tracer.span(
                "echo.batch.receive", process=self.address, count=frame.count
            )
        return UNRECORDED

    def _dispatch_message(
        self,
        source: str,
        data: bytes,
        header: MessageHeader,
        fmt: Optional[IOFormat],
        name: Optional[str],
    ) -> None:
        body_end = header.body_offset + header.payload_length
        if name == DERIVED_INFO.name:
            info = self.pbio.decode_as(fmt, data[:body_end], header)
            self._handle_derived_info(source, info, data[body_end:])
            return
        if name != EVENT_ENVELOPE.name:
            self._control(data, header)
            return
        channel_id, _seq = self.pbio.decode_values(
            fmt, data[:body_end], header)
        payload = data[body_end:]
        channel = self.channels.get(channel_id)
        if channel is None or channel.receiver is None:
            return
        payload_header = None
        if self.resolver is not None and len(payload) > HEADER_SIZE:
            payload_header = unpack_header(payload)
            pid = payload_header.format_id
            if self._needs_meta(
                    pid, self.registry.lookup_id(pid), channel.receiver):
                self._hold(source, lambda: self._deliver_event(
                    channel, payload, payload_header), pid)
                return
        self._deliver_event(channel, payload, payload_header)

    # ------------------------------------------------------------------
    # Control handlers
    # ------------------------------------------------------------------

    def _handle_derived_info(
        self, source: str, info: Record, response_wire: bytes
    ) -> None:
        """A source's view of a derived channel: store the filter,
        compile it (DCG, cached), list the channel among its parent's
        children, and ingest the membership replica."""
        channel_id = info["channel_id"]
        parent_id = info["parent_id"]
        channel = self.channels.get(channel_id)
        if channel is None:
            channel = self.channels[channel_id] = ChannelState(
                channel_id, creator_contact=source)
        elif channel.parent_id != parent_id:
            old = self.channels.get(channel.parent_id or "")
            if old is not None and channel in old.children:
                old.children.remove(channel)
        channel.parent_id = parent_id
        channel.filter_code = info["filter_code"]
        parent = self.channels.get(parent_id)
        if parent is not None and channel not in parent.children:
            parent.children.append(channel)
        try:
            channel.filter_proc = compile_procedure(
                info["filter_code"], ("input",), f"filter_{channel_id}"
            )
        except ECodeError:
            self.filter_errors += 1
            return
        if response_wire:
            self._control(response_wire)

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
            for child in channel.children:
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
            self.reliable.send(contact, wire)

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
                self.reliable.send(member.contact, wire)

    def _handle_open_response(self, record: Record) -> None:
        channel = self.channels.get(record["channel_id"])
        if channel is not None:
            channel.update_from_response(record)
