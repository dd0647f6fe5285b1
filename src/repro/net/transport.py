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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.batch import peek_batch_trace
from repro.net.link import LinkSpec
from repro.net.scheduler import Timer, VirtualScheduler
from repro.obs import OBS
from repro.obs.metrics import Handles
from repro.obs.tracectx import activate, recording

MessageHandler = Callable[[str, bytes], None]

#: Most recent :class:`Delivery` records a network keeps in ``trace`` —
#: a debugging window, not a log: older entries fall off the front, so a
#: long-lived network's memory stays flat.
TRACE_LIMIT = 4096

#: Reliable-layer frame prefix (mirrors :data:`repro.net.reliable.MAGIC`
#: without importing it — reliable sits *above* this module): a traced
#: PBIO message inside a data frame starts after the 13-byte RLP1 header.
_RELIABLE_MAGIC = b"RLP1"
_RELIABLE_HEADER_SIZE = 13


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
    if bytes(data[:4]) == _RELIABLE_MAGIC:
        return peek_frame_trace(data, _RELIABLE_HEADER_SIZE)
    return peek_frame_trace(data)


class TransportHandles:
    """The ``net.transport.*`` instruments one network — simulated or
    socket — records into, held per network."""

    __slots__ = ("messages", "bytes", "lost", "dropped", "handler_errors",
                 "queue_depth")

    def __init__(self) -> None:
        self.messages = Handles.counter(
            "net.transport.messages", "source", "destination")
        self.bytes = Handles.counter(
            "net.transport.bytes", "source", "destination")
        self.lost = Handles.counter(
            "net.transport.lost", "source", "destination")
        self.dropped = Handles.counter("net.transport.dropped", "node")
        self.handler_errors = Handles.counter(
            "net.transport.handler_errors", "node")
        self.queue_depth = Handles.gauge("net.transport.queue_depth")


@dataclass(frozen=True)
class Delivery:
    """One message outcome, as recorded in the network trace.  Messages
    arriving at a closed node are recorded with ``dropped=True`` instead
    of vanishing silently; deliveries whose handler raised are recorded
    with ``handler_error=True`` (the exception never unwinds out of
    :meth:`Network.run` — handler failures are an endpoint property, not
    a fabric property)."""

    time: float
    source: str
    destination: str
    size: int
    dropped: bool = False
    handler_error: bool = False


class Node:
    """One endpoint of the simulated network."""

    def __init__(self, network: "Network", address: str) -> None:
        self.network = network
        self.address = address
        self._handler: Optional[MessageHandler] = None
        self.received: List[Tuple[str, bytes]] = []
        self.closed = False
        #: messages this node dropped because it was closed
        self.drops = 0
        #: deliveries whose handler raised (contained by Network.run)
        self.handler_errors = 0

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
        drop is counted per node (:attr:`drops`), tallied on the network
        (:attr:`Network.dropped`), and recorded in the trace."""
        self.closed = True

    def reopen(self) -> None:
        """Undo :meth:`close` — the node receives again (recovery
        scenarios: a format server coming back after a crash)."""
        self.closed = False

    def _deliver(self, source: str, data: bytes) -> None:
        """Hand one message to the handler, or drop it when closed."""
        if self.closed:
            self.drops += 1
            self.network.dropped += 1
            if OBS.enabled:
                self.network._obs.dropped(self.address).inc()
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
            self.handler_errors += 1
            network.handler_errors += 1
            network.last_handler_error = (self.address, exc)
            if OBS.enabled:
                network._obs.handler_errors(self.address).inc()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.address!r})"


class Network:
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
        self.default_link = default_link if default_link is not None else LinkSpec()
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._scheduler = VirtualScheduler()
        self._rng = random.Random(seed)
        self.bytes_sent = 0
        self.messages_sent = 0
        self.dropped = 0
        #: messages lost in flight by link ``loss_rate`` fault injection
        self.lost = 0
        #: deliveries whose handler raised (contained, never re-raised)
        self.handler_errors = 0
        #: the most recent contained handler failure, for debugging:
        #: ``(destination, exception)`` or None
        self.last_handler_error: Optional[Tuple[str, BaseException]] = None
        self.trace: Deque[Delivery] = deque(maxlen=TRACE_LIMIT)
        self._obs = TransportHandles()

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

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, source: str, destination: str, data: bytes) -> float:
        if destination not in self._nodes:
            raise TransportError(f"no node at address {destination!r}")
        link = self.link_between(source, destination)
        arrival, lost = link.draw(len(data), self._rng, self.now)
        self.bytes_sent += len(data)
        self.messages_sent += 1
        if lost:
            # Lost in flight: never enqueued, but counted and traced so
            # fault-injection harnesses can reconcile sends vs deliveries.
            self.lost += 1
            self.trace.append(
                Delivery(time=arrival, source=source, destination=destination,
                         size=len(data), dropped=True)
            )
            if OBS.enabled:
                self._obs.lost(source, destination).inc()
            return arrival
        self._scheduler.schedule(arrival, (source, destination, data))
        if OBS.enabled:
            self._obs.messages(source, destination).inc()
            self._obs.bytes(source, destination).inc(len(data))
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
        is **contained** — counted on the node and the network, recorded
        in the trace as ``handler_error=True``, surfaced to ``repro.obs``
        as ``net.transport.handler_errors`` — and never propagates out of
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
            node = self._nodes[destination]
            dropped = node.closed
            handler_error = node.deliver(source, data)
            self.trace.append(
                Delivery(time=self.now, source=source, destination=destination,
                         size=len(data), dropped=dropped,
                         handler_error=handler_error)
            )
            delivered += 1
        if OBS.enabled:
            self._obs.queue_depth().set(len(self._scheduler))
        return delivered

    @property
    def pending(self) -> int:
        return len(self._scheduler)

    def drops_by_node(self) -> Dict[str, int]:
        """Per-node drop counts (only nodes that dropped something)."""
        return {
            address: node.drops
            for address, node in self._nodes.items()
            if node.drops
        }
