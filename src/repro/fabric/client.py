"""Fabric client — publish/subscribe against the sharded worker fleet.

A client keeps one record per channel (:class:`_Channel`): the cached
``(owner, epoch)`` route, the next publish sequence number, the local
subscription and one receive ledger per publisher.  The route is asked
of the directory once on first use, then maintained entirely by
:data:`FABRIC_REDIRECT` corrections from workers.  A stale route is not
an error — the old owner forwards, the redirect catches the cache up,
and the publisher's ledger keeps delivery exactly-once regardless of
how many hops a message took.
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.membership import FabricDirectory

EventHandler = Callable[[str, str, int, Record], Any]


#: first redrive delay after a failed publish; doubles per attempt
REDRIVE_BASE_DELAY = 0.05
#: redrives of one buffer before its publishes are dropped
REDRIVE_MAX_ATTEMPTS = 8
#: failed publishes buffered for redrive; one more is dropped
PUBLISH_BUFFER_LIMIT = 256

_COLLECTED = (
    counter("fabric.published", "published", "channel", bounded=True),
    counter("fabric.delivered", "delivered", "channel", bounded=True),
)


class _Channel:
    """What a client knows of one channel."""

    __slots__ = ("route", "seq", "subscription", "ledgers")

    def __init__(self) -> None:
        #: ``(owner, epoch)``; ``None`` until asked, or after a failed send
        self.route: Optional[Tuple[str, int]] = None
        #: the last publish sequence number used
        self.seq = 0
        #: ``(fmt, handler)`` once subscribed
        self.subscription: Optional[Tuple[IOFormat, EventHandler]] = None
        #: publisher address -> receive-side exactly-once ledger
        self.ledgers: Dict[str, SeqLedger] = {}


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
        reliable_options: Optional[Dict[str, Any]] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.directory = directory
        self._open_endpoint(
            network, address, registry, reliable_options,
            format_servers, resolver_options, FabricError,
        )
        register_fabric_protocol(self.registry)
        if self.resolver is not None:
            self.resolver.publish()
        self._channels: Dict[str, _Channel] = {}
        #: publishes whose reliable send failed (dead owner, open
        #: breaker) awaiting redrive once the successor is live
        self._publish_buffer: List[Tuple[str, bytes]] = []
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
        """Send publish traffic with crash awareness: a failed or
        breaker-rejected send parks the datagram in a bounded buffer
        (:data:`PUBLISH_BUFFER_LIMIT`) and schedules a backoff redrive
        that re-routes through a *fresh* directory lookup — by the time
        the retry fires, lease expiry has usually moved the shard to a
        live successor."""

        def _on_result(ticket: Any) -> None:
            if ticket.state == "acked":
                self._redrive_attempts = 0
            elif ticket.state in ("failed", "rejected"):
                self._buffer_publish(channel_id, data)

        self.reliable.send(destination, data, on_result=_on_result)

    def _buffer_publish(self, channel_id: str, data: bytes) -> None:
        # Drop the cached route: the owner we just failed against is
        # gone (or unreachable); the redrive must ask the directory.
        self._channels[channel_id].route = None
        if len(self._publish_buffer) >= PUBLISH_BUFFER_LIMIT:
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
        if self._redrive_attempts > REDRIVE_MAX_ATTEMPTS:
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
                owner, _epoch = self._routed(channel_id).route
            except FabricError:
                self._publish_buffer.append((channel_id, data))
                continue
            # Failures re-buffer through _on_result and reschedule with
            # the next (longer) backoff step.
            self._send_publish(channel_id, owner, data)
        if self._publish_buffer:
            self._schedule_redrive()

    def _routed(self, channel_id: str) -> _Channel:
        """The channel's record, made on first use, with a route."""
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = self._channels[channel_id] = _Channel()
        if channel.route is None:
            # One directory lookup.  From here on the cache is
            # maintained only by worker redirects, so a membership
            # change after this point exercises the stale-route path.
            channel.route = self.directory.route(channel_id)
        return channel

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
        channel = self._channels.get(channel_id)
        if channel is None or channel.route is None:
            channel = self._routed(channel_id)
        owner, epoch = channel.route
        ctx = mint() if OBS.enabled else None
        # One record leaves bare with its trace block on envelope and
        # payload; more leave as frames carrying the block once each.
        framed = len(records) > 1
        own = None if framed else ctx
        seqs: List[int] = []
        datagrams: List[bytes] = []
        for record in records:
            seq = channel.seq = channel.seq + 1
            seqs.append(seq)
            envelope = self.pbio.encode_values(
                FABRIC_PUBLISH, (channel_id, self.address, seq, epoch))
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
        channel = self._routed(channel_id)
        channel.subscription = (fmt, handler)
        owner, epoch = channel.route
        record = FABRIC_SUBSCRIBE.make_record(
            channel_id=channel_id,
            contact=self.address,
            format_id=fmt.format_id,
            epoch=epoch,
        )
        self.reliable.send(owner, self.pbio.encode(FABRIC_SUBSCRIBE, record))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_segments(self, source: str, segments: List[bytes]) -> None:
        """Dispatch each message of a frame; the envelope format is
        looked up when it changes, not per message, envelope and payload
        are sliced out of the shared buffer without a copy, and each
        header is parsed once and handed to its decode."""
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
                if fmt.name == FABRIC_DELIVER.name:
                    channel_id, publisher, seq = self.pbio.decode_values(
                        fmt, view[:body_end], header)
                    self._on_deliver(
                        channel_id, publisher, seq, view[body_end:])
                elif fmt.name == FABRIC_REDIRECT.name:
                    self._on_redirect(
                        self.pbio.decode_as(fmt, view[:body_end], header))
                else:
                    raise FabricError(
                        f"unexpected {fmt.name!r} message at a client")
            except Exception as exc:  # noqa: BLE001 - contained per segment
                self._contain(exc)

    def _on_redirect(self, record: Record) -> None:
        channel = self._channels.setdefault(record["channel_id"], _Channel())
        route = (record["owner"], record["epoch"])
        # Epochs are monotonic; never let a late redirect roll the
        # cache backwards.
        if channel.route is None or route[1] >= channel.route[1]:
            channel.route = route
            self.redirects += 1

    def _on_deliver(
        self, channel_id: str, publisher: str, seq: int, payload: bytes
    ) -> None:
        channel = self._channels.get(channel_id)
        if channel is None or channel.subscription is None:
            raise FabricError(f"delivery on {channel_id!r} without a "
                              "subscription")
        ledger = channel.ledgers.get(publisher)
        if ledger is None:
            ledger = channel.ledgers[publisher] = SeqLedger()
        if not ledger.admit(seq):
            self.duplicates += 1
            return
        fmt, handler = channel.subscription
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
            event = self.pbio.decode_as(
                fmt, payload[:body_end], payload_header)
            handler(channel_id, publisher, seq, event)
        self._tally.delivered[channel_id] += 1
