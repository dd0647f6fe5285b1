"""Reliable delivery over the lossy simulated transport.

:class:`ReliableEndpoint` wraps a :class:`~repro.net.transport.Node`
with the recovery machinery real middleware runs on top of a lossy
datagram fabric:

* **sequence-numbered sends** with positive acknowledgements,
* **retransmission** on ack timeout, with exponential backoff and
  seeded jitter (all timers ride the network's virtual-time event
  queue, so every run is deterministic for a given seed),
* **bounded retries** — a send that exhausts its retry budget is
  reported as failed, never retried forever,
* **duplicate suppression** on the receive side (retransmits whose
  original did arrive, or whose ack was lost, are dropped and counted),
* **in-order delivery** per peer: frames that arrive ahead of a gap are
  buffered and handed to the application strictly in send order.  A
  retransmitted *old* message can therefore never overtake (or, worse,
  follow and clobber) a newer one — last-writer-wins state like the
  channel membership replicas depends on this.  A sender that exhausts
  the retry budget for a sequence number emits a best-effort ``GAP``
  frame so receivers can skip the hole instead of stalling; a receiver
  whose hole stays unfilled longer than any same-configured sender
  could still be retrying (the GAP itself was lost — e.g. the sender
  gave up while this node was down) skips it on a **stall timeout**,
  so crash recovery never wedges a peer's stream,
* a per-peer **circuit breaker**: after N consecutive ack timeouts the
  peer is declared down and new sends fail fast; after a cooldown one
  half-open probe is admitted, and a successful ack closes the circuit.

Framing: reliable traffic is prefixed with a 13-byte header (magic +
frame type + sequence number).  Frames without the magic pass straight
through to the application handler, so reliable and raw traffic can
share one node.

Observability: every endpoint counts retries, duplicate drops, breaker
openings and the rest locally (plain attributes, always on,
:meth:`ReliableEndpoint.counters`); the four something reads as metrics
(sends, acked, retries, dup_drops) and the in-flight gauge are mirrored
into ``repro.obs`` as ``net.reliable.*`` when it is enabled.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.transport import Network, Node, peek_frame_trace
from repro.obs import OBS
from repro.obs.metrics import Handles
from repro.obs.tracectx import activate, current, isolate, recording

#: Frame magic: deliberately distinct from PBIO's header magic and from
#: the ``{``-prefixed JSON of the meta-data plane.
MAGIC = b"RLP1"
_FRAME_DATA = 0
_FRAME_ACK = 1
_FRAME_GAP = 2  # "I gave up on this seq; deliver around it"
_HEADER = struct.Struct(">4sBQ")  # magic, frame type, sequence number
HEADER_SIZE = _HEADER.size

#: Reorder-buffer marker for a sequence number the sender abandoned.
_SKIPPED = object()

MessageHandler = Callable[[str, bytes], None]


class CircuitBreaker:
    """Per-peer failure detector with the classic three states.

    ``closed`` (healthy) -> ``open`` after *threshold* consecutive ack
    timeouts -> ``half_open`` after *cooldown* virtual seconds, admitting
    a single probe -> back to ``closed`` on ack, back to ``open`` on
    another timeout.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("threshold", "cooldown", "state", "failures", "opened_at",
                 "opens", "probe_in_flight")

    def __init__(self, threshold: int = 5, cooldown: float = 1.0) -> None:
        if threshold < 1:
            raise TransportError("breaker threshold must be >= 1")
        if cooldown < 0:
            raise TransportError("breaker cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        #: closed->open transitions (tests and obs reconcile against it)
        self.opens = 0
        self.probe_in_flight = False

    def allow(self, now: float) -> bool:
        """May a new send go to this peer at virtual time *now*?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                self.probe_in_flight = True
                return True
            return False
        # half-open: exactly one probe may be outstanding
        if not self.probe_in_flight:
            self.probe_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.probe_in_flight = False
        self.state = self.CLOSED

    def record_failure(self, now: float) -> bool:
        """Record one ack timeout; returns True when this transition
        opened the circuit."""
        self.failures += 1
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = now
            self.opens += 1
            self.probe_in_flight = False
            return True
        if self.state == self.CLOSED and self.failures >= self.threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.opens += 1
            return True
        return False


class SendTicket:
    """The fate of one reliable send.

    ``state`` moves ``pending`` -> ``acked`` | ``failed`` (retry budget
    exhausted) | ``rejected`` (circuit open, never transmitted).  The
    optional ``on_result`` callback fires exactly once, with the ticket,
    when the state becomes final.
    """

    __slots__ = ("destination", "seq", "payload", "state", "attempts",
                 "retry_times", "on_result")

    def __init__(
        self,
        destination: str,
        seq: int,
        payload: bytes,
        on_result: Optional[Callable[["SendTicket"], None]] = None,
    ) -> None:
        self.destination = destination
        self.seq = seq
        self.payload = payload
        self.state = "pending"
        self.attempts = 0
        #: virtual times at which (re)transmissions happened — the
        #: backoff schedule, asserted deterministic by the tests
        self.retry_times: List[float] = []
        self.on_result = on_result

    @property
    def final(self) -> bool:
        return self.state != "pending"

    def _finish(self, state: str) -> None:
        self.state = state
        if self.on_result is not None:
            callback, self.on_result = self.on_result, None
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SendTicket(to={self.destination!r}, seq={self.seq}, "
                f"state={self.state!r}, attempts={self.attempts})")


class ReliableEndpoint:
    """Sequence/ack/retry reliability layered over one network node.

    Parameters
    ----------
    network / address:
        Where to attach.  Pass ``node=`` instead of *address* to wrap a
        node that already exists (the ECho integration does this).
    base_timeout:
        Ack timeout of the first transmission, in virtual seconds.
        Retry *k* waits ``base_timeout * backoff_factor**k`` plus jitter.
    backoff_factor / retry_jitter:
        Exponential backoff multiplier and the maximum uniform jitter
        added per retry (drawn from this endpoint's own seeded RNG).
    max_retries:
        Retransmissions after the initial send before giving up.
    breaker_threshold / breaker_cooldown:
        Consecutive ack timeouts that open a peer's circuit, and how
        long the circuit stays open before a half-open probe.
    stall_timeout:
        How long (virtual seconds) in-order delivery waits on an
        unfilled sequence hole before skipping it.  ``None`` derives a
        safe value from this endpoint's own retry schedule: 1.25x the
        full retransmission span, so a frame is only ever skipped after
        a same-configured sender must have given up on it.
    seed:
        Jitter RNG seed; combined with the address so distinct endpoints
        draw distinct (but reproducible) schedules.
    """

    def __init__(
        self,
        network: Network,
        address: Optional[str] = None,
        *,
        node: Optional[Node] = None,
        base_timeout: float = 0.05,
        backoff_factor: float = 2.0,
        retry_jitter: float = 0.005,
        max_retries: int = 8,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        stall_timeout: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if (address is None) == (node is None):
            raise TransportError(
                "ReliableEndpoint needs exactly one of address= or node="
            )
        if base_timeout <= 0:
            raise TransportError("base_timeout must be > 0")
        if backoff_factor < 1.0:
            raise TransportError("backoff_factor must be >= 1")
        if max_retries < 0:
            raise TransportError("max_retries must be >= 0")
        self.network = network
        self.node = node if node is not None else network.add_node(address)
        self.node.set_handler(self._on_raw)
        self.base_timeout = base_timeout
        self.backoff_factor = backoff_factor
        self.retry_jitter = retry_jitter
        self.max_retries = max_retries
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        if stall_timeout is None:
            # 1.25x the full retransmission span of a sender with this
            # configuration: by then the missing frame can never arrive.
            span = base_timeout * sum(
                backoff_factor ** k for k in range(max_retries + 1)
            )
            stall_timeout = 1.25 * span + (max_retries + 1) * retry_jitter
        self.stall_timeout = stall_timeout
        self._rng = random.Random(f"{seed}:{self.node.address}")
        self._handler: Optional[MessageHandler] = None
        self._next_seq: Dict[str, int] = {}
        self._pending: Dict[Tuple[str, int], SendTicket] = {}
        #: next sequence number to *deliver* from each peer
        self._expected: Dict[str, int] = {}
        #: frames received ahead of a gap, keyed peer -> seq -> payload
        self._reorder: Dict[str, Dict[int, object]] = {}
        #: per-peer stall watchdog: (timer, expected-seq when scheduled)
        self._stall_watch: Dict[str, Tuple[object, int]] = {}
        #: sequence numbers this sender abandoned, per peer — their GAP
        #: frames ride along with every later transmit until the peer
        #: acknowledges them, so a receiver that was down when the
        #: original GAP was sent unstalls on the next contact instead of
        #: waiting out its stall timeout
        self._holes: Dict[str, set] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        # -- counters (always-on attributes; repro.obs mirrors four) ----
        self.sent = 0
        self.acked = 0
        self.failed = 0
        self.rejected = 0
        self.retries = 0
        self.dup_drops = 0
        self.delivered = 0
        self.reordered = 0
        self.gap_skips = 0
        self.stall_skips = 0
        self.passthrough = 0
        self.breaker_opens = 0
        #: ``net.reliable.<name>`` handles, made on a name's first count
        self._obs_counts: Dict[str, Handles] = {}
        self._obs_in_flight = Handles.gauge(
            "net.reliable.in_flight", endpoint=self.node.address
        )

    @property
    def address(self) -> str:
        return self.node.address

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the application receive callback ``handler(source,
        payload)`` — called exactly once per distinct reliable payload,
        and once per raw (non-reliable) message."""
        self._handler = handler

    def breaker(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_threshold,
                                     self.breaker_cooldown)
            self._breakers[peer] = breaker
        return breaker

    def send(
        self,
        destination: str,
        payload: bytes,
        on_result: Optional[Callable[[SendTicket], None]] = None,
    ) -> SendTicket:
        """Send *payload* reliably; returns the :class:`SendTicket`.

        When the destination's circuit is open the ticket is finished as
        ``rejected`` immediately (fail fast — the caller decides whether
        to queue, fail over, or drop)."""
        if not isinstance(payload, bytes):
            # normalize memoryview/bytearray payloads (e.g. a batch-frame
            # slice forwarded raw by the fabric) so framing can prepend
            # the RLP1 header and retransmits own their bytes
            payload = bytes(payload)
        breaker = self.breaker(destination)
        if not breaker.allow(self.network.now):
            # Rejected before a sequence number is consumed: admitted
            # sends must stay gap-free or the peer's in-order delivery
            # would stall on a seq that was never transmitted.
            ticket = SendTicket(
                destination, self._next_seq.get(destination, 0), payload,
                on_result,
            )
            self.rejected += 1
            ticket._finish("rejected")
            return ticket
        seq = self._next_seq.get(destination, 0)
        self._next_seq[destination] = seq + 1
        ticket = SendTicket(destination, seq, payload, on_result)
        self.sent += 1
        self._count("sends", peer=destination)
        self._pending[(destination, seq)] = ticket
        self._gauge_in_flight()
        self._transmit(ticket)
        return ticket

    def _transmit(self, ticket: SendTicket) -> None:
        ticket.attempts += 1
        ticket.retry_times.append(self.network.now)
        for hole in sorted(self._holes.get(ticket.destination, ())):
            self.node.send(
                ticket.destination, _HEADER.pack(MAGIC, _FRAME_GAP, hole)
            )
        frame = _HEADER.pack(MAGIC, _FRAME_DATA, ticket.seq) + ticket.payload
        if OBS.enabled and recording(ctx := peek_frame_trace(ticket.payload)):
            # A traced payload makes every (re)transmission a span of its
            # trace, so the flight recorder can show loss recovery and
            # backoff as part of the message's journey.  A BATCH1 payload
            # carries one frame-level block covering all its messages.
            name = (
                "net.reliable.send" if ticket.attempts == 1
                else "net.reliable.retransmit"
            )
            with activate(ctx), OBS.tracer.span(
                name,
                peer=ticket.destination,
                process=self.address,
                seq=ticket.seq,
                attempt=ticket.attempts,
                vtime=self.network.now,
            ):
                self.node.send(ticket.destination, frame)
        else:
            self.node.send(ticket.destination, frame)
        timeout = self.base_timeout * (
            self.backoff_factor ** (ticket.attempts - 1)
        )
        if self.retry_jitter:
            timeout += self._rng.uniform(0.0, self.retry_jitter)
        self.network.call_later(timeout, lambda: self._on_timeout(ticket))

    def abort_in_flight(self) -> int:
        """Finish every pending ticket as ``failed`` without any wire
        traffic — the process-kill model.  A crashed process sends no
        GAP farewell and schedules no retransmits; its already-armed
        retry timers become no-ops because the tickets are final when
        they fire.  Peers discover the holes through their own stall
        watchdogs, exactly as with a real dead process.  Returns the
        number of sends aborted."""
        aborted = 0
        for ticket in list(self._pending.values()):
            if ticket.final:
                continue
            aborted += 1
            self.failed += 1
            ticket._finish("failed")
        self._pending.clear()
        self._gauge_in_flight()
        return aborted

    def _on_timeout(self, ticket: SendTicket) -> None:
        if ticket.final:
            return  # acked (or failed) before this timer fired
        breaker = self.breaker(ticket.destination)
        if breaker.record_failure(self.network.now):
            self.breaker_opens += 1
        if ticket.attempts > self.max_retries:
            self._pending.pop((ticket.destination, ticket.seq), None)
            self._gauge_in_flight()
            self.failed += 1
            # Tell the peer to deliver around this seq so its in-order
            # pipeline doesn't stall on the hole; the hole is remembered
            # and re-advertised with every later transmit until acked.
            self._holes.setdefault(ticket.destination, set()).add(ticket.seq)
            self.node.send(
                ticket.destination,
                _HEADER.pack(MAGIC, _FRAME_GAP, ticket.seq),
            )
            ticket._finish("failed")
            return
        self.retries += 1
        self._count("retries", peer=ticket.destination)
        self._transmit(ticket)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_raw(self, source: str, data: bytes) -> None:
        if len(data) < HEADER_SIZE or bytes(data[:4]) != MAGIC:
            # raw traffic sharing the node: hand through untouched
            self.passthrough += 1
            if self._handler is not None:
                self._handler(source, data)
            return
        magic, frame_type, seq = _HEADER.unpack_from(data)
        payload = data[HEADER_SIZE:]
        if frame_type == _FRAME_ACK:
            self._on_ack(source, seq)
        elif frame_type == _FRAME_DATA:
            self._on_data(source, seq, payload)
        elif frame_type == _FRAME_GAP:
            self._on_gap(source, seq)
        # unknown frame types are dropped: forward compatibility

    def _on_data(self, source: str, seq: int, payload: bytes) -> None:
        # Always re-ack: the retransmit may mean our previous ack was lost.
        self.node.send(source, _HEADER.pack(MAGIC, _FRAME_ACK, seq))
        buffered = self._reorder.setdefault(source, {})
        if seq < self._expected.get(source, 0) or seq in buffered:
            self.dup_drops += 1
            self._count("dup_drops", peer=source)
            return
        if seq != self._expected.get(source, 0):
            self.reordered += 1
        buffered[seq] = payload
        self._drain(source)

    def _on_gap(self, source: str, seq: int) -> None:
        """The sender abandoned *seq*: mark the hole deliverable-around."""
        # Ack the gap too, so the sender can stop re-advertising it.
        self.node.send(source, _HEADER.pack(MAGIC, _FRAME_ACK, seq))
        buffered = self._reorder.setdefault(source, {})
        if seq < self._expected.get(source, 0) or seq in buffered:
            return  # already delivered or already buffered (stale gap)
        self.gap_skips += 1
        buffered[seq] = _SKIPPED
        self._drain(source)

    def _drain(self, source: str) -> None:
        """Deliver every consecutively-buffered frame, in seq order."""
        buffered = self._reorder.get(source)
        if buffered:
            while True:
                expected = self._expected.get(source, 0)
                if expected not in buffered:
                    break
                payload = buffered.pop(expected)
                self._expected[source] = expected + 1
                if payload is _SKIPPED:
                    continue
                self.delivered += 1
                if self._handler is not None:
                    # The handler may send (and even receive, via
                    # zero-delay deliveries) reentrantly; re-reading
                    # _expected each iteration keeps the drain
                    # consistent under that.
                    # Under the payload's own context, None included:
                    # it need not be the datagram whose arrival (and
                    # active context) started this drain.
                    if OBS.enabled and recording(
                        ctx := peek_frame_trace(payload)
                    ):
                        with isolate(ctx), OBS.tracer.span(
                            "net.reliable.deliver",
                            peer=source,
                            process=self.address,
                            seq=expected,
                            vtime=self.network.now,
                        ):
                            self._handler(source, payload)
                    elif OBS.enabled and current() is not None:
                        with isolate(None):
                            self._handler(source, payload)
                    else:
                        self._handler(source, payload)
        self._watch_stall(source)

    def _watch_stall(self, source: str) -> None:
        """Arm (or re-arm) the stall watchdog while frames sit behind an
        unfilled hole; disarm it once the buffer is clear."""
        buffered = self._reorder.get(source)
        watch = self._stall_watch.get(source)
        if not buffered:
            if watch is not None:
                watch[0].cancel()
                del self._stall_watch[source]
            return
        if watch is not None:
            return  # already armed; _on_stall re-arms after it fires
        timer = self.network.call_later(
            self.stall_timeout, lambda: self._on_stall(source)
        )
        self._stall_watch[source] = (timer, self._expected.get(source, 0))

    def _on_stall(self, source: str) -> None:
        _timer, marked_expected = self._stall_watch.pop(source)
        buffered = self._reorder.get(source)
        if not buffered:
            return
        expected = self._expected.get(source, 0)
        if expected == marked_expected:
            # No progress for a full stall_timeout: the hole can never
            # fill (every retransmission window has passed).  Skip to
            # the oldest buffered frame and deliver from there.
            target = min(buffered)
            self.stall_skips += target - expected
            self._expected[source] = target
        self._drain(source)

    def _on_ack(self, source: str, seq: int) -> None:
        holes = self._holes.get(source)
        if holes is not None:
            # The peer saw this seq (as data or as a gap notice): the
            # hole can no longer stall it, stop re-advertising.
            holes.discard(seq)
            if not holes:
                del self._holes[source]
        ticket = self._pending.pop((source, seq), None)
        if ticket is None or ticket.final:
            return  # duplicate or stale ack
        self._gauge_in_flight()
        self.acked += 1
        self._count("acked", peer=source)
        self.breaker(source).record_success()
        ticket._finish("acked")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Sends still awaiting an ack."""
        return len(self._pending)

    def counters(self) -> Dict[str, int]:
        """Snapshot of the endpoint's reliability counters."""
        return {
            "sent": self.sent,
            "acked": self.acked,
            "failed": self.failed,
            "rejected": self.rejected,
            "retries": self.retries,
            "dup_drops": self.dup_drops,
            "delivered": self.delivered,
            "reordered": self.reordered,
            "gap_skips": self.gap_skips,
            "stall_skips": self.stall_skips,
            "passthrough": self.passthrough,
            "breaker_opens": self.breaker_opens,
        }

    def _count(self, name: str, peer: str) -> None:
        if OBS.enabled:
            handles = self._obs_counts.get(name)
            if handles is None:
                handles = self._obs_counts[name] = Handles.counter(
                    f"net.reliable.{name}", "peer", endpoint=self.address
                )
            handles(peer).inc()

    def _gauge_in_flight(self) -> None:
        if OBS.enabled:
            self._obs_in_flight().set(len(self._pending))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReliableEndpoint({self.address!r}, sent={self.sent}, "
                f"acked={self.acked}, in_flight={self.in_flight})")


class EndpointMixin:
    """The prologue ``EChoProcess``, ``FabricClient`` and ``FabricWorker``
    share: one transport node, meta-data from a shared registry or a
    resolver over the format-server fleet, a ``PBIOContext`` over it, and
    ``_on_message`` receiving either straight from the node or through a
    :class:`ReliableEndpoint` wrapped around it."""

    def _open_endpoint(
        self, network, address, registry, reliable, reliable_options,
        resolver, format_servers, resolver_options, error,
    ) -> None:
        """Set ``network``, ``node``, ``resolver``, ``registry``,
        ``pbio`` and ``reliable`` (``None`` when raw); *error* is the
        caller's exception class for "no source of meta-data"."""
        # late: importing the pbio package imports pbio.server, which
        # builds its own endpoints from this module
        from repro.pbio.context import PBIOContext
        from repro.pbio.server import CachingFormatResolver

        self.network = network
        self.node = network.add_node(address)
        if resolver is None and format_servers:
            options = dict(resolver_options or {})
            options.setdefault("breaker_threshold", 1_000_000)
            resolver = CachingFormatResolver(
                network, f"{address}:meta", servers=format_servers,
                registry=registry, **options,
            )
        self.resolver = resolver
        if registry is None:
            if resolver is None:
                raise error(
                    f"{type(self).__name__} needs a registry, a resolver, "
                    "or format_servers"
                )
            registry = resolver.registry
        self.registry = registry
        self.pbio = PBIOContext(registry)
        self.reliable: Optional[ReliableEndpoint] = None
        if reliable:
            options = dict(reliable_options or {})
            # Event bursts over lossy links produce consecutive timeouts
            # that are retried successfully; don't let them trip the
            # breaker into rejecting publishes unless explicitly tuned.
            options.setdefault("breaker_threshold", 1_000_000)
            self.reliable = ReliableEndpoint(network, node=self.node, **options)
            self.reliable.set_handler(self._on_message)
        else:
            self.node.set_handler(self._on_message)

    @property
    def address(self) -> str:
        return self.node.address

    def _send(self, destination: str, data: bytes) -> None:
        """Send through the reliable endpoint when configured, raw
        otherwise."""
        if self.reliable is not None:
            self.reliable.send(destination, data)
        else:
            self.node.send(destination, data)
