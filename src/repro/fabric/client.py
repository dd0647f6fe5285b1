"""Fabric client — publish/subscribe against the sharded worker fleet.

Clients cache a ``(owner, epoch)`` route per channel: the directory is
consulted once on first use, then the cache is maintained entirely by
:data:`FABRIC_REDIRECT` corrections from workers.  A stale route is not
an error — the old owner forwards, the redirect catches the cache up,
and the per-``(channel, publisher)`` receive ledger keeps delivery
exactly-once regardless of how many hops a message took.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import FabricError
from repro.fabric.protocol import (
    FABRIC_DELIVER,
    FABRIC_PUBLISH,
    FABRIC_REDIRECT,
    FABRIC_SUBSCRIBE,
    register_fabric_protocol,
)
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.ledger import SeqLedger
from repro.net.reliable import EndpointMixin
from repro.obs import OBS
from repro.obs.metrics import Handles
from repro.obs.tracectx import UNRECORDED, activate, current, mint, recording
from repro.pbio.buffer import attach_trace, peek_trace, unpack_header
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import CachingFormatResolver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.membership import FabricDirectory

EventHandler = Callable[[str, str, int, Record], Any]


#: first redrive delay after a failed publish; doubles per attempt
REDRIVE_BASE_DELAY = 0.05


class FabricClient(EndpointMixin):
    """One application endpoint on the fabric.

    *handler* signature: ``handler(channel_id, publisher, seq, record)``
    — publisher and seq are surfaced so tests can ledger-reconcile
    end-to-end.
    """

    def __init__(
        self,
        directory: "FabricDirectory",
        network: Any,
        address: str,
        registry: Optional[FormatRegistry] = None,
        reliable: bool = False,
        reliable_options: Optional[Dict[str, Any]] = None,
        resolver: Optional[CachingFormatResolver] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        publish_buffer_limit: int = 256,
        redrive_max_attempts: int = 8,
    ) -> None:
        self.directory = directory
        self._open_endpoint(
            network, address, registry, reliable, reliable_options,
            resolver, format_servers, resolver_options, FabricError,
        )
        register_fabric_protocol(self.registry)
        if self.resolver is not None:
            self.resolver.publish()
        #: channel -> (owner, epoch) route cache
        self._routes: Dict[str, Tuple[str, int]] = {}
        #: channel -> next publish sequence number
        self._next_seq: Dict[str, int] = {}
        #: channel -> (fmt, handler) local subscription
        self._subscriptions: Dict[str, Tuple[IOFormat, EventHandler]] = {}
        #: (channel, publisher) -> receive-side exactly-once ledger
        self.received: Dict[Tuple[str, str], SeqLedger] = {}
        #: publishes whose reliable send failed (dead owner, open
        #: breaker) awaiting redrive once the successor is live
        self._publish_buffer: List[Tuple[str, bytes]] = []
        self.publish_buffer_limit = publish_buffer_limit
        self.redrive_max_attempts = redrive_max_attempts
        self._redrive_timer: Optional[Any] = None
        self._redrive_attempts = 0
        self.published = 0
        self.delivered = 0
        self.duplicates = 0
        self.redirects = 0
        self.buffered = 0
        self.redrives = 0
        self.dropped = 0
        self.errors = 0
        #: the most recent contained receive failure, for debugging
        self.last_error: Optional[BaseException] = None
        self._obs_published = Handles.bounded_counter(
            "fabric.published", "channel")
        self._obs_delivered = Handles.bounded_counter(
            "fabric.delivered", "channel")

    # ------------------------------------------------------------------
    # Graceful degradation across an ownership gap
    # ------------------------------------------------------------------

    def _send_publish(self, channel_id: str, destination: str,
                      data: bytes) -> None:
        """Send publish traffic with crash awareness.  In reliable mode
        a failed or breaker-rejected send parks the datagram in a
        bounded buffer and schedules a backoff redrive that re-routes
        through a *fresh* directory lookup — by the time the retry
        fires, lease expiry has usually moved the shard to a live
        successor.  Raw mode has no failure signal, so it keeps the
        original fire-and-forget behavior."""
        if self.reliable is None:
            self.node.send(destination, data)
            return

        def _on_result(ticket: Any) -> None:
            if ticket.state == "acked":
                self._redrive_attempts = 0
            elif ticket.state in ("failed", "rejected"):
                self._buffer_publish(channel_id, data)

        self.reliable.send(destination, data, on_result=_on_result)

    def _buffer_publish(self, channel_id: str, data: bytes) -> None:
        # Drop the cached route: the owner we just failed against is
        # gone (or unreachable); the redrive must ask the directory.
        self._routes.pop(channel_id, None)
        if len(self._publish_buffer) >= self.publish_buffer_limit:
            self.dropped += 1
            return
        self._publish_buffer.append((channel_id, data))
        self.buffered += 1
        self._schedule_redrive()

    def _schedule_redrive(self) -> None:
        if self._redrive_timer is not None:
            return
        delay = REDRIVE_BASE_DELAY * (2 ** self._redrive_attempts)
        self._redrive_timer = self.network.call_later(delay, self._redrive)

    def _redrive(self) -> None:
        self._redrive_timer = None
        if not self._publish_buffer:
            return
        self._redrive_attempts += 1
        if self._redrive_attempts > self.redrive_max_attempts:
            # The fleet never came back within the backoff budget:
            # surface the loss explicitly rather than buffering forever.
            self.dropped += len(self._publish_buffer)
            self._publish_buffer.clear()
            self._redrive_attempts = 0
            return
        batch, self._publish_buffer = self._publish_buffer, []
        self.redrives += 1
        for channel_id, data in batch:
            try:
                owner, _epoch = self._route(channel_id)
            except FabricError:
                self._publish_buffer.append((channel_id, data))
                continue
            # Failures re-buffer through _on_result and reschedule with
            # the next (longer) backoff step.
            self._send_publish(channel_id, owner, data)
        if self._publish_buffer:
            self._schedule_redrive()

    def _route(self, channel_id: str) -> Tuple[str, int]:
        route = self._routes.get(channel_id)
        if route is None:
            # First use: one directory lookup.  From here on the cache
            # is maintained only by worker redirects, so a membership
            # change after this point exercises the stale-route path.
            route = self.directory.route(channel_id)
            self._routes[channel_id] = route
        return route

    # ------------------------------------------------------------------
    # Publish / subscribe
    # ------------------------------------------------------------------

    def publish(self, channel_id: str, fmt: IOFormat, record: Record) -> int:
        """Publish one event; returns the sequence number used."""
        owner, epoch = self._route(channel_id)
        seq = self._next_seq.get(channel_id, 0) + 1
        self._next_seq[channel_id] = seq
        ctx = mint() if OBS.enabled else None
        payload = self.pbio.encode(fmt, record)
        envelope = FABRIC_PUBLISH.make_record(
            channel_id=channel_id,
            publisher=self.address,
            seq=seq,
            epoch=epoch,
        )
        envelope_wire = self.pbio.encode(FABRIC_PUBLISH, envelope)
        if ctx is None:  # obs off, or not the sampled one: a bare wire
            self._send_publish(channel_id, owner, envelope_wire + payload)
        else:
            payload = attach_trace(payload, ctx)
            envelope_wire = attach_trace(envelope_wire, ctx)
            with activate(ctx), OBS.tracer.span(
                "fabric.publish",
                channel=channel_id,
                publisher=self.address,
                format=fmt.name,
            ):
                self._send_publish(channel_id, owner, envelope_wire + payload)
        self.published += 1
        if OBS.enabled:
            self._obs_published(channel_id).inc()
        return seq

    def publish_batch(
        self, channel_id: str, fmt: IOFormat, records: List[Record]
    ) -> List[int]:
        """Publish *records* as one BATCH1 frame to the channel's owner:
        one transport send and one reliable sequence number for the whole
        group.  Each event keeps its own ``FABRIC_PUBLISH`` envelope and
        publish sequence number, so the owner's exactly-once ledger and
        any reroute/handoff races stay per-message.

        Returns the publish sequence numbers used, in order."""
        if not records:
            return []
        owner, epoch = self._route(channel_id)
        ctx = mint() if OBS.enabled else None
        seqs: List[int] = []
        datagrams: List[bytes] = []
        for record in records:
            seq = self._next_seq.get(channel_id, 0) + 1
            self._next_seq[channel_id] = seq
            seqs.append(seq)
            envelope = FABRIC_PUBLISH.make_record(
                channel_id=channel_id,
                publisher=self.address,
                seq=seq,
                epoch=epoch,
            )
            datagrams.append(
                self.pbio.encode(FABRIC_PUBLISH, envelope)
                + self.pbio.encode(fmt, record)
            )
        frame = pack_batch(datagrams, ctx)
        if ctx is None:
            self._send_publish(channel_id, owner, frame)
        else:
            with activate(ctx), OBS.tracer.span(
                "fabric.publish_batch",
                channel=channel_id,
                publisher=self.address,
                format=fmt.name,
                count=len(records),
            ):
                self._send_publish(channel_id, owner, frame)
        self.published += len(records)
        if OBS.enabled:
            self._obs_published(channel_id).inc(len(records))
        return seqs

    def subscribe(
        self, channel_id: str, fmt: IOFormat, handler: EventHandler
    ) -> None:
        """Subscribe to *channel_id* in *fmt*; the owning worker morphs
        every published event into *fmt* before delivery."""
        if fmt not in self.registry:
            self.registry.register(fmt)
        if self.resolver is not None:
            # Make the subscription format resolvable by whichever
            # worker ends up owning (or inheriting) the shard.
            self.resolver.publish()
        self._subscriptions[channel_id] = (fmt, handler)
        owner, epoch = self._route(channel_id)
        record = FABRIC_SUBSCRIBE.make_record(
            channel_id=channel_id,
            contact=self.address,
            format_id=fmt.format_id,
            epoch=epoch,
        )
        self._send(owner, self.pbio.encode(FABRIC_SUBSCRIBE, record))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, source: str, data: bytes) -> None:
        """Transport entry point: a BATCH1 frame's messages, or one bare
        message (a frame of one), walked once by :meth:`_on_segments`."""
        if not is_batch(data):
            self._on_segments([data])
            return
        try:
            frame = unpack_batch(data)
        except Exception as exc:  # noqa: BLE001 - malformed frame from a peer
            self.errors += 1
            self.last_error = exc
            return
        view = memoryview(data)
        with activate(frame.trace):
            self._on_segments(
                [view[off:off + n] for off, n in frame.segments]
            )

    def _on_segments(self, segments: List[bytes]) -> None:
        """Dispatch each segment; the envelope format is looked up when
        it changes, not per segment, and envelope and payload are sliced
        out of the shared buffer without a copy.  Failures are contained
        per segment: a poisoned one counts an error and its neighbours
        still deliver (the reliable layer acked the whole frame; nothing
        would resend them)."""
        format_id = fmt = None
        for data in segments:
            try:
                header = unpack_header(data)
                if header.format_id != format_id:
                    format_id = header.format_id
                    fmt = self.registry.lookup_id(format_id)
                if fmt is None:
                    self.errors += 1
                    continue
                view = memoryview(data)
                body_end = header.body_offset + header.payload_length
                record = self.pbio.decode_as(fmt, view[:body_end])
                if fmt.name == FABRIC_DELIVER.name:
                    self._on_deliver(record, view[body_end:])
                elif fmt.name == FABRIC_REDIRECT.name:
                    self._on_redirect(record)
                else:
                    self.errors += 1
            except Exception as exc:  # noqa: BLE001 - contained per segment
                self.errors += 1
                self.last_error = exc

    def _on_redirect(self, record: Record) -> None:
        channel_id = record["channel_id"]
        current = self._routes.get(channel_id)
        route = (record["owner"], record["epoch"])
        # Epochs are monotonic; never let a late redirect roll the
        # cache backwards.
        if current is None or route[1] >= current[1]:
            self._routes[channel_id] = route
            self.redirects += 1

    def _on_deliver(self, record: Record, payload: bytes) -> None:
        channel_id = record["channel_id"]
        publisher = record["publisher"]
        seq = record["seq"]
        subscription = self._subscriptions.get(channel_id)
        if subscription is None:
            self.errors += 1
            return
        key = (channel_id, publisher)
        ledger = self.received.get(key)
        if ledger is None:
            ledger = self.received[key] = SeqLedger()
        if not ledger.admit(seq):
            self.duplicates += 1
            return
        fmt, handler = subscription
        context = span = UNRECORDED
        if OBS.enabled:
            own = peek_trace(payload)
            if recording(own or current()):
                context = activate(own)
                span = OBS.tracer.span(
                    "fabric.deliver",
                    channel=channel_id,
                    subscriber=self.address,
                )
        with context, span:
            payload_header = unpack_header(payload)
            body_end = (
                payload_header.body_offset + payload_header.payload_length
            )
            event = self.pbio.decode_as(fmt, payload[:body_end])
            handler(channel_id, publisher, seq, event)
        self.delivered += 1
        if OBS.enabled:
            self._obs_delivered(channel_id).inc()
