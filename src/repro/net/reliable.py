"""Reliable delivery over the lossy simulated transport.

:class:`ReliableEndpoint` wraps a :class:`~repro.net.transport.Node`
with the recovery machinery real middleware runs on top of a lossy
datagram fabric.  Everything it keeps about a peer is one record
(:class:`_Peer`), made on first contact and looked up once per send,
data, gap or ack frame:

* **sequence-numbered sends** with **cumulative acknowledgements**: a
  receiver owes each peer one ``ACK`` per receive burst, meaning "every
  seq below N", flushed by one zero-delay timer once the burst is over
  (TCP's delayed cumulative ACK, RFC 1122 §4.2.3.2); what the
  application holds for the burst's end
  (:meth:`ReliableEndpoint.after_burst`) runs there first,
* **retransmission** on ack timeout, with exponential backoff and
  seeded jitter per send, driven by **one timer per peer** armed at the
  earliest pending deadline (RFC 6298 §5).  Every timer rides the
  network's virtual-time event queue, so every run is deterministic for
  a given seed,
* **bounded retries** — a send that exhausts its retry budget is
  reported as failed, never retried forever,
* **duplicate suppression** on the receive side (retransmits whose
  original did arrive, or whose ack was lost, are dropped and counted),
* a **receive window**: a frame whose seq lies :data:`RECEIVE_WINDOW`
  or more past the next seq to deliver is refused, not buffered and not
  acked — its source is only what the frame claims,
* **in-order delivery** per peer: frames that arrive ahead of a gap are
  buffered and handed to the application strictly in send order.  A
  retransmitted *old* message can therefore never overtake (or, worse,
  follow and clobber) a newer one — last-writer-wins state like the
  channel membership replicas depends on this.  A sender that exhausts
  the retry budget for a sequence number emits a best-effort ``GAP``
  frame so receivers can skip the hole instead of stalling,
* **one receive watch per peer**, a timer at the earlier of two
  deadlines.  Frames still buffered behind a hole ``base_timeout / 4``
  after the ack that found it are reported as ranges (QUIC's ACK
  ranges, RFC 9000 §19.3), before a same-configured sender's first
  retransmission, so only the missing frame is resent; a hole unfilled
  longer than any same-configured sender could still be retrying (the
  GAP itself was lost — e.g. the sender gave up while this node was
  down) is skipped on a **stall timeout**, so crash recovery never
  wedges a peer's stream,
* a per-peer **circuit breaker**: after N consecutive expiries of the
  peer's retransmission timer the peer is declared down and new sends
  fail fast; after a cooldown one half-open probe is admitted, and a
  successful ack closes the circuit.

A crash (:meth:`ReliableEndpoint.abort_in_flight` with the node closed)
loses the pending sends, their timers and the burst's flush.  The rest
of each record is session state and survives: the seqs, the reorder
buffer and its watch, the holes and the breaker.  While the node is
closed the watch neither delivers nor reports ranges; what it holds is
delivered, in order, once :meth:`ReliableEndpoint.reopen` reopens it.

Framing: reliable traffic is prefixed with a 13-byte header (magic +
frame type + sequence number, defined once in
:mod:`repro.net.transport`, which sniffs data frames); an ``ACK`` may
add a range list.  Frames without the magic pass straight through to
the application handler, so reliable and raw traffic can share one node.

Observability: every endpoint counts retries, duplicate drops, breaker
openings and the rest locally (plain attributes, always on,
:meth:`ReliableEndpoint.counters`); the four something reads as metrics
(sends, acked, retries, dup_drops) are plain integers per endpoint,
read — with the in-flight gauge, the number of pending sends — as
``net.reliable.*`` by whichever registry is read.  Per-peer detail is
the ``net.reliable.send`` / ``.retransmit`` spans' ``peer``.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import TransportError
from repro.net import batch
from repro.net.batch import BatchFrame, is_batch
from repro.net.scheduler import Timer
from repro.net.transport import RELIABLE_HEADER as _HEADER
from repro.net.transport import RELIABLE_MAGIC as MAGIC
from repro.net.transport import Network, Node, peek_frame_trace
from repro.obs import OBS
from repro.obs.metrics import Tallies, collect, counter, gauge
from repro.obs.tracectx import (
    UNRECORDED,
    activate,
    current,
    isolate,
    recording,
)

_FRAME_DATA = 0
_FRAME_ACK = 1  # "every seq below this one", then optional ranges above it
_FRAME_GAP = 2  # "I gave up on this seq; deliver around it"
HEADER_SIZE = _HEADER.size
#: An ACK's optional tail: a range count, then that many half-open
#: ``[start, end)`` runs of seqs received above the cumulative point,
#: ascending and disjoint.
_RANGE_COUNT = struct.Struct(">I")
_RANGE = struct.Struct(">QQ")
_RANGES_AT = HEADER_SIZE + _RANGE_COUNT.size
#: Most ranges one ACK carries: 13 + 4 + 64 x 16 = 1041 bytes, one
#: datagram under a 1500-byte MTU.  A receiver reports its lowest runs.
ACK_RANGES_MAX = 64

#: Reorder-buffer marker for a sequence number the sender abandoned.
_SKIPPED = object()

#: Receive window: a ``DATA`` or ``GAP`` frame whose seq lies this far or
#: further past the next seq to deliver is refused — not buffered, not
#: acked — so a frame that only claims to come from a peer cannot park a
#: far-future seq that a stall skip would later jump the stream to.  A
#: real sender further ahead than this (past a hole) resends once the
#: hole fills; no sender in the repository gets near it.
RECEIVE_WINDOW = 1 << 12

MessageHandler = Callable[[str, bytes], None]

#: Per-key cap on messages an endpoint holds (:meth:`EndpointMixin._hold`).
PENDING_LIMIT = 1024

#: the endpoint modes that are gone, by the keyword that chose them
_REMOVED_MODES = {
    "reliable": "raw transport",
    "contain_failures": "uncontained receive",
}

_COLLECTED = (
    counter("net.reliable.sends", "sends"),
    counter("net.reliable.acked", "acked"),
    counter("net.reliable.retries", "retries"),
    counter("net.reliable.dup_drops", "dup_drops"),
    gauge("net.reliable.in_flight", "in_flight"),
)


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
                 "retry_times", "due", "on_result")

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
        #: when the latest transmission times out (its backoff + jitter)
        self.due = 0.0
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


class _Peer:
    """What an endpoint keeps about one peer (:attr:`address`).

    Send side: the next seq to send, the unacked sends in seq order, the
    one retransmission timer, the seqs this sender abandoned — their GAP
    frames ride along with every later transmit until the peer acks
    them, so a receiver that was down when the original GAP was sent
    unstalls on the next contact instead of waiting out its stall
    timeout — and the circuit breaker.

    Receive side: the next seq to deliver, the frames received ahead of
    a gap (seq -> payload, or :data:`_SKIPPED`), and the one receive
    watch: a timer at the earlier of two deadlines, each with the next
    seq to deliver when it was set — the hole grace (``hole_at``, set by
    the ack that finds frames buffered) and the stall timeout
    (``stall_at``, set when frames start to wait).
    """

    __slots__ = ("address", "next_seq", "pending", "timer", "holes",
                 "breaker", "expected", "reorder", "watch", "hole_at",
                 "hole_mark", "stall_at", "stall_mark")

    def __init__(self, address: str, breaker: CircuitBreaker) -> None:
        self.address = address
        self.next_seq = 0
        self.pending: Dict[int, SendTicket] = {}
        self.timer: Optional[Timer] = None
        self.holes: Set[int] = set()
        self.breaker = breaker
        self.expected = 0
        self.reorder: Dict[int, object] = {}
        self.watch: Optional[Timer] = None
        self.hole_at: Optional[float] = None
        self.stall_at: Optional[float] = None
        self.hole_mark = self.stall_mark = 0


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
        A quarter of it is the grace a receive hole gets before its
        ack reports ranges.
    backoff_factor / retry_jitter:
        Exponential backoff multiplier and the maximum uniform jitter
        added per retry (drawn from this endpoint's own seeded RNG).
    max_retries:
        Retransmissions after the initial send before giving up.
    breaker_threshold / breaker_cooldown:
        Consecutive expiries of a peer's retransmission timer that open
        its circuit (one per expiry, however many sends it retransmits),
        and how long the circuit stays open before a half-open probe.
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
        #: one record per peer, made on first contact (:meth:`_peer`)
        self._peers: Dict[str, _Peer] = {}
        #: peers owed an ack when this receive burst is over, in arrival
        #: order (a seeded run sends its acks in a reproducible order),
        #: what runs before they leave (:meth:`after_burst`), and the one
        #: zero-delay timer that flushes both
        self._ack_due: Dict[_Peer, None] = {}
        self._after: Dict[Callable[[], None], None] = {}
        self._flush: Optional[Timer] = None
        # -- counters (always-on attributes) ----------------------------
        self._tally = Tallies(sends=0, acked=0, retries=0, dup_drops=0)
        collect(self, self._tally, _COLLECTED, endpoint=self.node.address)
        self.failed = 0
        self.rejected = 0
        self.delivered = 0
        self.reordered = 0
        self.gap_skips = 0
        self.stall_skips = 0
        self.passthrough = 0
        self.breaker_opens = 0

    @property
    def address(self) -> str:
        return self.node.address

    sent = property(lambda self: self._tally.sends)
    acked = property(lambda self: self._tally.acked)
    retries = property(lambda self: self._tally.retries)
    dup_drops = property(lambda self: self._tally.dup_drops)

    def _peer(self, address: str) -> _Peer:
        """The record of a peer on first contact."""
        peer = self._peers[address] = _Peer(address, CircuitBreaker(
            self.breaker_threshold, self.breaker_cooldown))
        return peer

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the application receive callback ``handler(source,
        payload)`` — called exactly once per distinct reliable payload,
        and once per raw (non-reliable) message."""
        self._handler = handler

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
        peer = self._peers.get(destination) or self._peer(destination)
        seq = peer.next_seq
        ticket = SendTicket(destination, seq, payload, on_result)
        if not peer.breaker.allow(self.network.now):
            # Rejected before a sequence number is consumed: admitted
            # sends must stay gap-free or the peer's in-order delivery
            # would stall on a seq that was never transmitted.
            self.rejected += 1
            ticket._finish("rejected")
            return ticket
        peer.next_seq = seq + 1
        peer.pending[seq] = ticket
        self._tally.sends += 1
        self._transmit(peer, ticket)
        self._arm(peer, ticket.due)
        return ticket

    def _transmit(self, peer: _Peer, ticket: SendTicket) -> None:
        ticket.attempts += 1
        ticket.retry_times.append(self.network.now)
        for hole in sorted(peer.holes):
            self.node.send(peer.address, _HEADER.pack(MAGIC, _FRAME_GAP, hole))
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
                peer=peer.address,
                process=self.address,
                seq=ticket.seq,
                attempt=ticket.attempts,
                vtime=self.network.now,
            ):
                self.node.send(peer.address, frame)
        else:
            self.node.send(peer.address, frame)
        timeout = self.base_timeout * (
            self.backoff_factor ** (ticket.attempts - 1)
        )
        if self.retry_jitter:
            timeout += self._rng.uniform(0.0, self.retry_jitter)
        ticket.due = self.network.now + timeout

    def _arm(self, peer: _Peer, due: float) -> None:
        """Arm *peer*'s retransmission timer at *due*, unless the armed
        one fires at most ``retry_jitter`` after it: an expiry
        retransmits whatever is due within ``retry_jitter`` of it, so a
        burst of sends shares one timer."""
        timer = peer.timer
        if timer is not None:
            if timer.when - self.retry_jitter <= due:
                return
            timer.cancel()
        peer.timer = self.network.call_at(due, lambda: self._on_expiry(peer))

    def abort_in_flight(self) -> int:
        """Finish every pending ticket as ``failed`` without any wire
        traffic — the process-kill model.  A crashed process sends no
        GAP farewell, no retransmit and no ack: from each peer's record
        its pending sends and its retransmission timer go, and so do the
        pending ack flush and what waits on it (:meth:`after_burst`).
        The rest of the record survives as session state: the seqs, the
        reorder buffer and its watch (idle while the node is closed),
        the holes and the breaker.  Peers discover the holes through
        their own stall watches, exactly as with a real dead process.
        Returns the number of sends aborted."""
        aborted = 0
        for peer in list(self._peers.values()):
            tickets, peer.pending = peer.pending, {}
            if peer.timer is not None:
                peer.timer.cancel()
                peer.timer = None
            if peer.watch is None:
                # the flush that would arm it goes below: the deadline
                # lapses, as an armed one does while the node is closed
                peer.stall_at = None
            for ticket in tickets.values():
                if not ticket.final:
                    aborted += 1
                    self.failed += 1
                    ticket._finish("failed")
        if self._flush is not None:
            self._flush.cancel()
            self._flush = None
        self._ack_due.clear()
        self._after.clear()
        return aborted

    def reopen(self) -> None:
        """Reopen the node after a crash.  A buffer whose watch lapsed
        while the node was closed gets a fresh stall deadline: a hole its
        sender still retries fills before it, one the sender gave up on
        (the GAP lost with the crash) is skipped at it, and the frames
        behind it are delivered in order."""
        self.node.reopen()
        for peer in self._peers.values():
            if peer.reorder and peer.stall_at is None:
                peer.stall_at = self.network.now + self.stall_timeout
                peer.stall_mark = peer.expected
                self._watch(peer)

    def _on_expiry(self, peer: _Peer) -> None:
        """*peer*'s retransmission timer fired: one breaker failure,
        then every send due within ``retry_jitter`` of now is
        retransmitted (or, its budget spent, given up); the timer is
        re-armed at the earliest deadline left."""
        peer.timer = None
        now = self.network.now
        horizon = now + self.retry_jitter
        due = [ticket for ticket in peer.pending.values()
               if ticket.due <= horizon]
        if due:
            if peer.breaker.record_failure(now):
                self.breaker_opens += 1
            for ticket in due:
                if ticket.final:
                    continue  # finished by an earlier one's callback
                if ticket.attempts > self.max_retries:
                    self._give_up(peer, ticket)
                else:
                    self._tally.retries += 1
                    self._transmit(peer, ticket)
        if peer.pending:
            self._arm(peer, min(t.due for t in peer.pending.values()))

    def _give_up(self, peer: _Peer, ticket: SendTicket) -> None:
        """Fail *ticket*, its retry budget spent, and tell the peer to
        deliver around its seq so the peer's in-order pipeline does not
        stall on the hole; the hole is remembered and re-advertised with
        every later transmit until acked."""
        peer.pending.pop(ticket.seq, None)
        self.failed += 1
        peer.holes.add(ticket.seq)
        self.node.send(peer.address,
                       _HEADER.pack(MAGIC, _FRAME_GAP, ticket.seq))
        ticket._finish("failed")

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
        _magic, kind, seq = _HEADER.unpack_from(data)
        peer = self._peers.get(source)
        if kind == _FRAME_ACK:
            if peer is not None:  # a stranger's ack retires nothing
                self._on_ack(peer, seq, data)
            return
        if kind != _FRAME_DATA and kind != _FRAME_GAP:
            return  # unknown frame types are dropped: forward compatibility
        if seq - (peer.expected if peer is not None else 0) >= RECEIVE_WINDOW:
            return
        if peer is None:
            peer = self._peer(source)
        # Always ack, once this burst is over: a retransmit may mean our
        # previous ack was lost, and an acked gap stops its re-advertising.
        self._ack_due[peer] = None
        if self._flush is None:
            self._flush = self.network.call_later(0.0, self._flush_acks)
        buffered = peer.reorder
        if seq < peer.expected or seq in buffered:
            if kind == _FRAME_DATA:
                self._tally.dup_drops += 1
            return  # a stale gap: already delivered or buffered
        if kind == _FRAME_GAP:
            # the sender abandoned seq: deliver around the hole
            self.gap_skips += 1
            buffered[seq] = _SKIPPED
        else:
            if seq != peer.expected:
                self.reordered += 1
            buffered[seq] = data[HEADER_SIZE:]
        self._drain(peer)

    def _drain(self, peer: _Peer) -> None:
        """Deliver every consecutively-buffered frame, in seq order; a
        buffer left waiting on a hole sets the stall deadline, and one
        left empty clears it."""
        buffered = peer.reorder
        # The handler may send (and even receive, via zero-delay
        # deliveries) reentrantly; re-reading expected each iteration
        # keeps the drain consistent under that.
        while (expected := peer.expected) in buffered:
            payload = buffered.pop(expected)
            peer.expected = expected + 1
            if payload is _SKIPPED:
                continue
            self.delivered += 1
            if self._handler is None:
                continue
            # Under the payload's own context, None included: it need not
            # be the datagram whose arrival (and active context) started
            # this drain.
            if OBS.enabled and recording(ctx := peek_frame_trace(payload)):
                with isolate(ctx), OBS.tracer.span(
                    "net.reliable.deliver",
                    peer=peer.address,
                    process=self.address,
                    seq=expected,
                    vtime=self.network.now,
                ):
                    self._handler(peer.address, payload)
            elif OBS.enabled and current() is not None:
                with isolate(None):
                    self._handler(peer.address, payload)
            else:
                self._handler(peer.address, payload)
        if not buffered:
            peer.stall_at = None
        elif peer.stall_at is None:
            peer.stall_at = self.network.now + self.stall_timeout
            peer.stall_mark = peer.expected

    def after_burst(self, fn: Callable[[], None]) -> None:
        """Run *fn* once this receive burst is over, in the zero-delay
        callback that flushes its acks, before they leave; outside a
        burst that callback is scheduled now.  *fn* registered again
        before then still runs once."""
        self._after[fn] = None
        if self._flush is None:
            self._flush = self.network.call_later(0.0, self._flush_acks)

    def _flush_acks(self) -> None:
        """What waits on the burst (:meth:`after_burst`), then one
        cumulative ack per peer owed one.  Frames buffered behind a hole
        get a grace of ``base_timeout / 4`` first: reordering fills the
        hole within it, and a hole that outlives it is reported as
        ranges (:meth:`_on_watch`) before a same-configured sender's
        first retransmission."""
        self._flush = None
        if self._after:
            after, self._after = self._after, {}
            for fn in after:
                fn()
        owed, self._ack_due = self._ack_due, {}
        for peer in owed:
            self.node.send(peer.address, _HEADER.pack(
                MAGIC, _FRAME_ACK, peer.expected))
            if peer.reorder:
                if peer.hole_at is None:
                    peer.hole_at = self.network.now + self.base_timeout / 4
                    peer.hole_mark = peer.expected
                self._watch(peer)

    def _watch(self, peer: _Peer) -> None:
        """Arm *peer*'s receive watch at its earlier deadline, unless it
        is armed at or before it."""
        due = peer.hole_at
        if due is None or (peer.stall_at is not None and peer.stall_at < due):
            due = peer.stall_at
        if due is None:
            return
        watch = peer.watch
        if watch is not None:
            if watch.when <= due:
                return
            watch.cancel()
        peer.watch = self.network.call_at(due, lambda: self._on_watch(peer))

    def _on_watch(self, peer: _Peer) -> None:
        """*peer*'s receive watch fired: act on each deadline due, then
        re-arm at the next.  A hole still open since its grace began is
        reported as ranges (one that filled gives the hole frames wait
        behind now a grace of its own); a stall with no progress for a
        full ``stall_timeout`` skips to the oldest buffered frame (every
        retransmission window has passed).  While the node is closed
        neither happens: the deadlines lapse and the buffer waits for
        :meth:`reopen`."""
        peer.watch = None
        if self.node.closed:
            peer.hole_at = peer.stall_at = None
            return
        now = self.network.now
        buffered = peer.reorder
        if peer.hole_at is not None and peer.hole_at <= now:
            peer.hole_at = None
            if buffered and peer.expected != peer.hole_mark:
                peer.hole_at = now + self.base_timeout / 4
                peer.hole_mark = peer.expected
            elif buffered:
                self._send_ranges(peer)
        if peer.stall_at is not None and peer.stall_at <= now:
            peer.stall_at = None
            if buffered and peer.expected == peer.stall_mark:
                target = min(buffered)
                self.stall_skips += target - peer.expected
                peer.expected = target
            self._drain(peer)
        self._watch(peer)

    def _send_ranges(self, peer: _Peer) -> None:
        """An ACK at the hole's mark with the lowest runs buffered above
        it, at most :data:`ACK_RANGES_MAX`."""
        ranges: List[List[int]] = []
        for seq in sorted(peer.reorder):
            if ranges and ranges[-1][1] == seq:
                ranges[-1][1] = seq + 1
            elif len(ranges) < ACK_RANGES_MAX:
                ranges.append([seq, seq + 1])
            else:
                break
        self.node.send(peer.address, b"".join([
            _HEADER.pack(MAGIC, _FRAME_ACK, peer.hole_mark),
            _RANGE_COUNT.pack(len(ranges)),
            *(_RANGE.pack(start, end) for start, end in ranges),
        ]))

    def _on_ack(self, peer: _Peer, floor: int, data: bytes) -> None:
        """Retire every send and hole an ACK covers: each seq below
        *floor*, and each seq in its ranges.  The frame is a peer's
        bytes: a malformed range list refuses the whole frame, and what
        it claims is clipped to the seqs this endpoint has sent — an ack
        from a peer never sent to retires nothing.  The walk is over the
        pending sends, never over the claimed seqs."""
        ranges = _ack_ranges(data, floor)
        if ranges is None:
            return
        sent = peer.next_seq
        floor = min(floor, sent)
        ranges = [(start, min(end, sent)) for start, end in ranges
                  if start < sent]
        holes = peer.holes
        if holes:
            # The peer saw these seqs (as data or as a gap notice): the
            # holes can no longer stall it, stop re-advertising them.
            holes.difference_update([
                hole for hole in holes if hole < floor or any(
                    start <= hole < end for start, end in ranges)
            ])
        pending = peer.pending
        if not pending:
            return
        acked: List[SendTicket] = []
        spans = iter(ranges + [(sent, sent)])  # every pending seq < sent
        start, end = 0, floor
        for seq, ticket in pending.items():
            while seq >= end:
                start, end = next(spans)
            if start == sent:
                break
            if seq >= start:
                acked.append(ticket)
        if not acked:
            return  # duplicate or stale ack
        for ticket in acked:
            del pending[ticket.seq]
        if not pending and peer.timer is not None:
            peer.timer.cancel()
            peer.timer = None
        self._tally.acked += len(acked)
        peer.breaker.record_success()
        for ticket in acked:
            ticket._finish("acked")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Sends still awaiting an ack."""
        return sum(len(peer.pending) for peer in list(self._peers.values()))

    def counters(self) -> Dict[str, int]:
        """Snapshot of the endpoint's reliability counters."""
        return {name: getattr(self, name) for name in (
            "sent", "acked", "failed", "rejected", "retries", "dup_drops",
            "delivered", "reordered", "gap_skips", "stall_skips",
            "passthrough", "breaker_opens",
        )}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReliableEndpoint({self.address!r}, sent={self.sent}, "
                f"acked={self.acked}, in_flight={self.in_flight})")


def _ack_ranges(data: bytes, floor: int) -> Optional[List[Tuple[int, int]]]:
    """The ranges an ACK with cumulative point *floor* carries, or
    ``None`` when its tail is not a whole list of at most
    :data:`ACK_RANGES_MAX` non-empty runs, ascending, disjoint and above
    *floor*."""
    if len(data) == HEADER_SIZE:
        return []
    if len(data) < _RANGES_AT:
        return None
    (count,) = _RANGE_COUNT.unpack_from(data, HEADER_SIZE)
    if count > ACK_RANGES_MAX or len(data) != _RANGES_AT + count * _RANGE.size:
        return None
    ranges = list(_RANGE.iter_unpack(memoryview(data)[_RANGES_AT:]))
    for start, end in ranges:
        if not floor <= start < end:
            return None
        floor = end
    return ranges


def refuse_removed_modes(**chosen: Any) -> None:
    """Raise ``TypeError`` for a keyword that asks for a removed mode.
    Every endpoint runs reliable and contained; ``reliable=`` and
    ``contain_failures=`` remain on two signatures for callers that
    still pass ``True``."""
    for name, value in chosen.items():
        if value is not True:
            raise TypeError(
                f"{name}={value!r} asks for the removed "
                f"{_REMOVED_MODES[name]} mode: every endpoint runs "
                "reliable and contained"
            )


class EndpointMixin:
    """The prologue ``EChoProcess``, ``FabricClient`` and ``FabricWorker``
    share: one transport node wrapped in a :class:`ReliableEndpoint`
    (``reliable``, the one send path), meta-data from a shared registry
    or a resolver over the format-server fleet, a ``PBIOContext`` over
    it, and ``_on_message`` receiving through the endpoint.

    * **Frame walk.**  :meth:`_on_message` is the one frame shell: a bare
      message is a frame of one; a ``BATCH1`` frame is unpacked inside
      containment, its trace activated once (under :meth:`_frame_span`)
      and its messages handed to the endpoint's ``_on_segments`` as
      zero-copy views.  ``_on_segments`` contains each message on its
      own (the reliable layer acked the whole frame) and never tests one
      for a frame again, so a nested frame is one failure.  A failure
      counts one ``errors``, keeps ``last_error`` (:meth:`_contain`) and
      never reaches the transport.
    * **Contained receivers.**  Every ``MorphReceiver`` an endpoint
      feeds contains its failures; what one dead-letters or drops in
      quarantine counts in the endpoint's ``errors`` and ``last_error``
      too (:meth:`_account`, the one rule).

    It is also the one place traffic waits (:meth:`_hold`): on a shard's
    handoff state, or on meta-data fetched from the format-server fleet
    for a message that *needs* it — a fleet to ask, its format id not
    refreshed yet, and its format unknown or without an exact route in
    the receiver that will take it (:meth:`_needs_meta`, the one rule).

    * **Per-stream order.**  A hold is per key — the peer for anything
      that arrived from one; the shard for traffic that outran a handoff
      and for a subscriber installed from handoff or journal state.
      While a key is held every later message of it queues behind the
      head (the rest of a BATCH1 frame too, message by message; in the
      fabric before ``SeqLedger.admit``, so admit and journal order are
      stream order).
    * **Bound.**  :data:`PENDING_LIMIT` messages per key; one more is
      dropped and counted ``unresolved``, once.
    * **Fetch reply.**  The head replays, then the queue in order; a
      replay that holds the key again keeps the rest behind it, and one
      that fails is contained.  A format no server knows drops the head
      (``unresolved``) and releases the queue.  A hold cleared from
      ``_holds`` (a crash) replays nothing.

    ``parked`` counts messages held; a format is refreshed once a fetch
    brought it back.  With no hold open, traffic pays one dict
    membership test per message and no call into the hold."""

    def _open_endpoint(
        self, network, address, registry, reliable_options,
        format_servers, resolver_options, error,
    ) -> None:
        """Set ``network``, ``node``, ``resolver`` (``None`` without
        *format_servers*), ``registry``, ``pbio`` and ``reliable``; *error*
        is the caller's exception class for "no source of meta-data"."""
        # late: importing the pbio package imports pbio.server, which
        # builds its own endpoints from this module
        from repro.pbio.context import PBIOContext
        from repro.pbio.server import CachingFormatResolver

        self.network = network
        self.node = network.add_node(address)
        resolver = None
        if format_servers:
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
                    f"{type(self).__name__} needs a registry or "
                    "format_servers"
                )
            registry = resolver.registry
        self.registry = registry
        self.pbio = PBIOContext(registry)
        options = dict(reliable_options or {})
        # Event bursts over lossy links produce consecutive timeouts
        # that are retried successfully; don't let them trip the
        # breaker into rejecting publishes unless explicitly tuned.
        options.setdefault("breaker_threshold", 1_000_000)
        self.reliable = ReliableEndpoint(network, node=self.node, **options)
        self.reliable.set_handler(self._on_message)
        #: key -> replays held in stream order, the head first
        self._holds: Dict[Any, Deque[Any]] = {}
        #: format ids a fetch brought back: never fetched again
        self._refreshed: Set[int] = set()
        #: messages held; held messages dropped unprocessed
        self.parked = 0
        self.unresolved = 0
        #: received messages that failed, and the last failure
        self.errors = 0
        self.last_error: Optional[BaseException] = None

    @property
    def address(self) -> str:
        return self.node.address

    def _on_message(self, source: str, data: bytes) -> None:
        if not is_batch(data):
            self._on_segments(source, [data])
            return
        try:
            # through the module: benchmarks/e2e/trace.py patches it
            frame = batch.unpack_batch(data)
        except Exception as exc:  # noqa: BLE001 - malformed frame from a peer
            self._contain(exc)
            return
        with activate(frame.trace), self._frame_span(frame):
            self._on_segments(source, frame.views(data))

    def _frame_span(self, frame: BatchFrame) -> Any:
        """The span a frame's walk runs under: none unless overridden."""
        return UNRECORDED

    def _contain(self, exc: BaseException) -> None:
        self.errors += 1
        self.last_error = exc

    def _account(self, receiver: Any, seen: int) -> int:
        """Count what *receiver* dead-lettered or dropped in quarantine
        beyond *seen* in ``errors``, its newest dead letter's exception
        as ``last_error``; returns the receiver's count, the next
        *seen*."""
        tally = receiver.containment
        failed = tally["dead_lettered"] + tally["quarantine_drops"]
        if failed != seen:
            self.errors += failed - seen
            self.last_error = receiver.last_error
        return failed

    def _needs_meta(self, format_id: int, fmt, receiver=None) -> bool:
        """The one rule for holding a message to fetch its meta-data."""
        return (
            self.resolver is not None
            and format_id not in self._refreshed
            and (fmt is None or (
                receiver is not None and not receiver.has_exact_route(fmt)
            ))
        )

    def _hold(self, key: Any, replay: Callable[[], None],
              format_id: Optional[int] = None) -> None:
        """Queue *replay* on *key*, or make it the head of a new hold
        that fetches *format_id* (without one: until :meth:`_release`)."""
        queue = self._holds.setdefault(key, deque())
        if len(queue) >= PENDING_LIMIT:
            self.unresolved += 1
            return
        queue.append(replay)
        self.parked += 1
        if len(queue) == 1 and format_id is not None:
            # last: a degraded resolver answers synchronously
            self.resolver.refresh(format_id, lambda found: self._fetched(
                key, queue, format_id, found))

    def _fetched(self, key: Any, queue: Deque[Any], format_id: int,
                 found: Any) -> None:
        if self._holds.get(key) is not queue:
            return  # cleared (a crash) while the fetch was in flight
        del self._holds[key]
        if found is None:
            self.unresolved += 1
            queue.popleft()
        else:
            self._refreshed.add(format_id)
        self._release(key, queue)

    def _release(self, key: Any, queue: Optional[Deque[Any]]) -> None:
        """Replay *queue*, a hold taken off *key*, in order; once a
        replay holds *key* again, the rest waits behind that head.  A
        replay that fails is contained and the rest still replays."""
        while queue:
            held = self._holds.get(key)
            if held is not None:
                held.extend(queue)
                return
            try:
                queue.popleft()()
            except Exception as exc:  # noqa: BLE001 - a peer's message
                self._contain(exc)
