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

from repro.errors import DecodeError, FabricError
from repro.fabric.protocol import (
    FABRIC_DELIVER,
    FABRIC_PUBLISH,
    FABRIC_REDIRECT,
    FABRIC_SUBSCRIBE,
    register_fabric_protocol,
)
# unpack_batch stays for benchmarks/e2e/trace.py's patch list
from repro.net.batch import pack_batch, split_batch, unpack_batch
from repro.net.ledger import SeqLedger
from repro.net.reliable import EndpointMixin
from repro.obs import OBS
from repro.obs.metrics import Tallies, collect, counter
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

_COLLECTED = (
    counter("fabric.published", "published", "channel", bounded=True),
    counter("fabric.delivered", "delivered", "channel", bounded=True),
)


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
        #: events published / delivered here, per channel
        self._tally = Tallies("published", "delivered")
        collect(self, self._tally, _COLLECTED)
        self.duplicates = 0
        self.redirects = 0
        self.buffered = 0
        self.redrives = 0
        self.dropped = 0

    published = property(lambda self: sum(self._tally.published.values()))
    delivered = property(lambda self: sum(self._tally.delivered.values()))

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
        """Publish one event as a bare message (its envelope and payload
        each carry the trace block when it is sampled); returns the
        sequence number used."""
        return self._publish(channel_id, fmt, [record], "fabric.publish")[0]

    def publish_batch(
        self, channel_id: str, fmt: IOFormat, records: List[Record]
    ) -> List[int]:
        """Publish *records* to the channel's owner in BATCH1 frames split
        at the ceiling (:func:`~repro.net.batch.split_batch`): one
        transport send and one reliable sequence number per frame, each
        frame carrying the call's trace context once.  Each event keeps
        its own ``FABRIC_PUBLISH`` envelope and publish sequence number,
        so the owner's exactly-once ledger and any reroute/handoff races
        stay per-message.  One record leaves bare, as :meth:`publish`.

        Returns the publish sequence numbers used, in order."""
        if not records:
            return []
        return self._publish(channel_id, fmt, records, "fabric.publish_batch")

    def _publish(
        self, channel_id: str, fmt: IOFormat, records: List[Record], span: str
    ) -> List[int]:
        owner, epoch = self._route(channel_id)
        ctx = mint() if OBS.enabled else None
        # One record leaves bare with its trace block on envelope and
        # payload; more leave as frames carrying the block once each.
        framed = len(records) > 1
        own = None if framed else ctx
        seqs: List[int] = []
        datagrams: List[bytes] = []
        for record in records:
            seq = self._next_seq.get(channel_id, 0) + 1
            self._next_seq[channel_id] = seq
            seqs.append(seq)
            envelope = self.pbio.encode(
                FABRIC_PUBLISH,
                FABRIC_PUBLISH.make_record(
                    channel_id=channel_id, publisher=self.address, seq=seq,
                    epoch=epoch,
                ),
            )
            payload = self.pbio.encode(fmt, record)
            if own is not None:
                envelope = attach_trace(envelope, own)
                payload = attach_trace(payload, own)
            datagrams.append(envelope + payload)
        wires = [
            pack_batch(group, ctx) for group in split_batch(datagrams)
        ] if framed else datagrams
        context = recorded = UNRECORDED
        if ctx is not None:
            context = activate(ctx)
            recorded = OBS.tracer.span(
                span, channel=channel_id, publisher=self.address,
                format=fmt.name, count=len(records),
            )
        with context, recorded:
            for wire in wires:
                self._send_publish(channel_id, owner, wire)
        self._tally.published[channel_id] += len(records)
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

    def _on_segments(self, source: str, segments: List[bytes]) -> None:
        """Dispatch each message of a frame; the envelope format is
        looked up when it changes, not per message, and envelope and
        payload are sliced out of the shared buffer without a copy."""
        format_id = fmt = None
        for data in segments:
            try:
                header = unpack_header(data)
                if header.format_id != format_id:
                    format_id = header.format_id
                    fmt = self.registry.lookup_id(format_id)
                if fmt is None:
                    raise DecodeError(
                        f"unknown envelope format id {format_id:#x}")
                view = memoryview(data)
                body_end = header.body_offset + header.payload_length
                record = self.pbio.decode_as(fmt, view[:body_end])
                if fmt.name == FABRIC_DELIVER.name:
                    self._on_deliver(record, view[body_end:])
                elif fmt.name == FABRIC_REDIRECT.name:
                    self._on_redirect(record)
                else:
                    raise FabricError(
                        f"unexpected {fmt.name!r} message at a client")
            except Exception as exc:  # noqa: BLE001 - contained per segment
                self._contain(exc)

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
            raise FabricError(f"delivery on {channel_id!r} without a "
                              "subscription")
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
        self._tally.delivered[channel_id] += 1
