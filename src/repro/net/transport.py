"""In-memory simulated transport.

A deterministic discrete-event network: nodes register under string
addresses, messages are scheduled onto a virtual-time event queue with
per-link latency/serialization delays, and :meth:`Network.run` drains the
queue delivering messages in timestamp order.  Handlers may send further
messages during delivery; those are scheduled and processed in the same
run.

This substitutes for the paper's real sockets: it gives the middleware
layers (ECho, B2B broker) an honest asynchronous message-passing
substrate with measurable per-message transmission times, while keeping
every test fully deterministic.
"""

from __future__ import annotations

import random
import struct
from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import TransportError
from repro.net.batch import peek_batch_trace
from repro.net.link import LinkSpec
from repro.net.scheduler import Timer, VirtualScheduler
from repro.obs import OBS
from repro.obs.metrics import Tallies, collect, counter, gauge
from repro.obs.tracectx import activate, recording

MessageHandler = Callable[[str, bytes], None]

#: Most recent :class:`Delivery` records a network keeps in ``trace`` —
#: a debugging window, not a log: older entries fall off the front, so a
#: long-lived network's memory stays flat.
TRACE_LIMIT = 4096

#: The reliable layer's frame header (magic, frame type, sequence
#: number), defined here because :mod:`repro.net.reliable` sits *above*
#: this module and :func:`_sniff_trace` must find a traced PBIO message
#: inside a data frame; reliable imports both names.  The magic is
#: distinct from PBIO's header magic and from the ``{``-prefixed JSON of
#: the meta-data plane.
RELIABLE_MAGIC = b"RLP1"
RELIABLE_HEADER = struct.Struct(">4sBQ")


#: :func:`repro.pbio.buffer.peek_trace`, bound on first use: pbio's
#: package imports this module, so it cannot be imported at the top, and
#: an import statement per datagram is not free either.
_peek_trace = None


def peek_frame_trace(data: bytes, offset: int = 0):
    """Best-effort trace-context sniff of a frame at *offset*: a BATCH1
    frame (whose trace block covers every contained message) or a bare
    PBIO message.  Never raises."""
    global _peek_trace
    if _peek_trace is None:
        from repro.pbio.buffer import peek_trace as _peek_trace
    ctx = peek_batch_trace(data, offset)
    if ctx is not None:
        return ctx
    return _peek_trace(data, offset)


def _sniff_trace(data: bytes):
    """:func:`peek_frame_trace` for a raw datagram, which may wrap the
    frame in a reliable-layer data frame."""
    if bytes(data[:4]) == RELIABLE_MAGIC:
        return peek_frame_trace(data, RELIABLE_HEADER.size)
    return peek_frame_trace(data)


class Delivery(NamedTuple):
    """One message outcome, as recorded in the network trace.  Messages
    arriving at a closed node are recorded with ``dropped=True`` instead
    of vanishing silently; deliveries whose handler raised are recorded
    with ``handler_error=True`` (the exception never unwinds out of
    :meth:`Network.run` — handler failures are an endpoint property, not
    a fabric property).  A tuple, built positionally: every datagram
    makes one."""

    time: float
    source: str
    destination: str
    size: int
    dropped: bool = False
    handler_error: bool = False


class Node:
    """One endpoint of the simulated network."""

    def __init__(self, network: "NodeTable", address: str) -> None:
        self.network = network
        self.address = address
        self._handler: Optional[MessageHandler] = None
        self.received: List[Tuple[str, bytes]] = []
        self.closed = False

    #: messages this node dropped because it was closed
    drops = property(lambda self: self.network._tally.drops[self.address])
    #: deliveries whose handler raised (contained by the network)
    handler_errors = property(
        lambda self: self.network._tally.handler_errors[self.address]
    )

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the receive callback ``handler(source, data)``.  Without
        one, messages accumulate in :attr:`received` for polling."""
        self._handler = handler

    def send(self, destination: str, data: bytes) -> float:
        """Send *data* to *destination*; returns the scheduled delivery
        time (virtual seconds)."""
        return self.network.send(self.address, destination, data)

    def close(self) -> None:
        """Closed nodes drop incoming messages (failure injection).  Every
        drop is counted per node (:attr:`drops`, summed by
        :attr:`Network.dropped`) and recorded in the trace."""
        self.closed = True

    def reopen(self) -> None:
        """Undo :meth:`close` — the node receives again (recovery
        scenarios: a format server coming back after a crash)."""
        self.closed = False

    def _deliver(self, source: str, data: bytes) -> None:
        """Hand one message to the handler, or drop it when closed."""
        if self.closed:
            self.network._tally.drops[self.address] += 1
        elif self._handler is not None:
            self._handler(source, data)
        else:
            self.received.append((source, data))

    def deliver(self, source: str, data: bytes) -> bool:
        """What a network, simulated or socket, does with an arrived
        datagram: :meth:`_deliver` it (under a ``net.deliver`` span when
        observed) and **contain** an exception escaping the handler.
        Returns whether the handler raised."""
        network = self.network
        try:
            if OBS.enabled and recording(ctx := _sniff_trace(data)):
                # every physical delivery of a traced message becomes a
                # child span of that message's trace — including each
                # retransmission of the same payload
                with activate(ctx), OBS.tracer.span(
                    "net.deliver",
                    source=source,
                    destination=self.address,
                    process=self.address,
                    size=len(data),
                    vtime=network.now,
                ):
                    self._deliver(source, data)
            else:
                self._deliver(source, data)
        except Exception as exc:  # noqa: BLE001 - defined containment
            network._tally.handler_errors[self.address] += 1
            network.last_handler_error = (self.address, exc)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.address!r})"


def _column(index: int) -> Callable[[Tallies], Dict]:
    """One column of the per-link rows, by (source, destination)."""
    return lambda tally: {
        link: row[index] for link, row in list(tally.links.items())
    }


_COLLECTED = (
    counter("net.transport.messages", _column(0), "source", "destination"),
    counter("net.transport.bytes", _column(1), "source", "destination"),
    counter("net.transport.lost", _column(2), "source", "destination"),
    counter("net.transport.dropped", "drops", "node"),
    counter("net.transport.handler_errors", "handler_errors", "node"),
    gauge("net.transport.queue_depth", "pending"),
)


class NodeTable:
    """What the simulated :class:`Network` and the
    :class:`~repro.net.socket.SocketNetwork` keep alike: the nodes, the
    links and the tallies — per (source, destination) a row of datagrams
    and bytes handed on, then lost; drops and handler errors per node."""

    def _open_tables(self, default_link: LinkSpec) -> None:
        self.default_link = default_link
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._tally = Tallies("drops", "handler_errors",
                              links=defaultdict(lambda: [0, 0, 0, 0]))
        collect(self, self._tally, _COLLECTED)
        #: the most recent contained handler failure, for debugging:
        #: ``(destination, exception)`` or None
        self.last_handler_error: Optional[Tuple[str, BaseException]] = None
        self.trace: Deque[Delivery] = deque(maxlen=TRACE_LIMIT)

    #: whether :attr:`trace` records anything
    record_trace = True

    def _sent(self, source: str, destination: str, size: int,
              lost_at: Optional[float]) -> None:
        """Tally a datagram handed to its link; trace one lost in flight
        (at *lost_at*), so fault-injection harnesses can reconcile sends
        with deliveries."""
        row = self._tally.links[source, destination]
        if lost_at is None:
            row[0] += 1
            row[1] += size
            return
        row[2] += 1
        row[3] += size
        if self.record_trace:
            self.trace.append(
                Delivery(lost_at, source, destination, size, True))

    def _arrived(self, node: Node, source: str, data: bytes) -> None:
        """Hand an arrived datagram to *node* and trace the outcome."""
        dropped = node.closed
        handler_error = node.deliver(source, data)
        if self.record_trace:
            self.trace.append(Delivery(
                self.now, source, node.address, len(data), dropped,
                handler_error,
            ))

    def _total(self, *columns: int) -> int:
        rows = list(self._tally.links.values())
        return sum(row[column] for row in rows for column in columns)

    messages_sent = property(lambda self: self._total(0, 2))
    bytes_sent = property(lambda self: self._total(1, 3))
    #: datagrams lost in flight by link ``loss_rate`` injection
    lost = property(lambda self: self._total(2))
    #: datagrams that arrived at a closed node
    dropped = property(lambda self: sum(self._tally.drops.values()))
    #: deliveries whose handler raised (contained, never re-raised)
    handler_errors = property(
        lambda self: sum(self._tally.handler_errors.values()))

    def node(self, address: str) -> Node:
        try:
            return self._nodes[address]
        except KeyError:
            raise TransportError(f"no node at address {address!r}") from None

    def set_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Configure the link between *a* and *b* (both directions)."""
        self._links[(a, b)] = link
        self._links[(b, a)] = link

    def link_between(self, a: str, b: str) -> LinkSpec:
        return self._links.get((a, b), self.default_link)

    def drops_by_node(self) -> Dict[str, int]:
        """Per-node drop counts (only nodes that dropped something)."""
        return {node: n for node, n in self._tally.drops.items() if n}


class Network(NodeTable):
    """The simulated network fabric.

    Parameters
    ----------
    default_link:
        Link used between node pairs with no explicit link configured.
    seed:
        Seed for the fault-injection RNG.  Links with non-zero
        ``loss_rate`` or ``jitter`` draw from this generator, so the same
        seed reproduces the same losses and reorderings exactly.
    """

    def __init__(
        self, default_link: Optional[LinkSpec] = None, seed: int = 0
    ) -> None:
        self._open_tables(
            default_link if default_link is not None else LinkSpec()
        )
        self._scheduler = VirtualScheduler()
        self._rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current virtual time (seconds) — the scheduler's clock."""
        return self._scheduler.now

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(self, address: str) -> Node:
        if address in self._nodes:
            raise TransportError(f"address {address!r} already in use")
        node = Node(self, address)
        self._nodes[address] = node
        return node

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, source: str, destination: str, data: bytes) -> float:
        if destination not in self._nodes:
            raise TransportError(f"no node at address {destination!r}")
        link = self.link_between(source, destination)
        arrival, lost = link.draw(len(data), self._rng, self.now)
        self._sent(source, destination, len(data), arrival if lost else None)
        if not lost:  # a lost datagram is never enqueued
            self._scheduler.schedule(arrival, (source, destination, data))
        return arrival

    # ------------------------------------------------------------------
    # Timers (virtual-time callbacks on the same event queue)
    # ------------------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule *callback* to fire at virtual time *when* (clamped to
        now).  Timers share the event queue with messages, so retries and
        timeouts interleave deterministically with deliveries.  Returns a
        cancellable :class:`Timer` handle."""
        return self._scheduler.call_at(when, callback)

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule *callback* after *delay* virtual seconds."""
        return self._scheduler.call_later(delay, callback)

    def run(self, max_time: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Deliver queued messages (and fire due timers) in timestamp
        order until the queue is empty (or *max_time* / *max_events* is
        hit).  Returns the number of message deliveries performed.

        Handler-failure semantics: an exception escaping a node's handler
        is **contained** — counted on the node, recorded in the trace as
        ``handler_error=True``, read by ``repro.obs`` as
        ``net.transport.handler_errors`` — and never propagates out of
        ``run``.  A crashing receiver is an endpoint failure, not a
        fabric failure; subsequent traffic keeps flowing.
        """
        delivered = 0
        events = 0
        while self._scheduler:
            arrival = self._scheduler.peek_when()
            if max_time is not None and arrival > max_time:
                break
            if events >= max_events:
                raise TransportError(
                    f"network did not quiesce within {max_events} events "
                    "(possible message loop)"
                )
            _when, payload = self._scheduler.pop()
            events += 1
            if isinstance(payload, Timer):
                if not payload.cancelled:
                    payload.callback()
                continue
            source, destination, data = payload
            self._arrived(self._nodes[destination], source, data)
            delivered += 1
        return delivered

    @property
    def pending(self) -> int:
        return len(self._scheduler)
