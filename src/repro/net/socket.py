"""Real-socket transport: UDP datagrams on loopback, read by the network.

:class:`SocketNetwork` implements the same contract as the simulated
:class:`~repro.net.transport.Network` — ``add_node`` returning objects
with ``send``/``set_handler``/``close``, plus the
:class:`~repro.net.scheduler.Scheduler` timer protocol (``now`` /
``call_at`` / ``call_later``) — so every layer written against the
simulated fabric (reliable endpoints, format resolvers, ECho processes,
fabric workers) runs unchanged over real UDP sockets.  The differences
are the clock (the asyncio loop's monotonic clock instead of virtual
time) and :meth:`run` semantics (drive the loop until traffic and
timers quiesce, instead of draining a deterministic queue).

The asyncio loop is the clock and the timer heap; the sockets are the
network's own.  Each node's non-blocking socket is registered with
``loop.add_reader``, and on readiness one reader drains it: up to
:data:`DRAIN_LIMIT` datagrams, each read with ``recv_into`` into one
preallocated buffer the size of the largest UDP payload and copied out
to ``bytes`` once.  A whole receive burst is so handed on in one loop
pass — which is what lets a reliable endpoint answer it with one ack —
and the bound keeps a handler that sends to its own node from holding
the loop (timers, quiesce detection) forever.  Sends go straight to
``sendto``; a datagram the kernel refuses is counted in
:attr:`SocketNetwork.socket_errors` and lost, as on a wire.  A callback
due now (a zero-delay ``call_later``) takes ``loop.call_soon``, not the
timer heap: it runs once the readiness callbacks of this pass are done.

Fault injection carries over: ``LinkSpec.loss_rate``/``jitter`` are
applied *in user space* from a seeded RNG before the datagram reaches
the kernel, so the chaos scenarios the fuzz harness runs against the
simulated transport exercise the socket path with the same (seeded)
loss decisions.  ``latency``/``bandwidth`` are honored as real delays
on top of whatever the kernel adds; the default link applies none.

Each datagram is framed with the sender's string address (the simulated
transport passes the source out-of-band; a UDP socket cannot), so
handlers keep their ``(source, payload)`` signature.  Addresses resolve
through the local node table or through :meth:`register_peer` — the
static address book a multi-process deployment distributes at startup.
"""

from __future__ import annotations

import asyncio
import random
import socket as _socketmod
import struct
from typing import Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.net.link import LinkSpec
from repro.net.scheduler import Timer
from repro.net.transport import Node, NodeTable

#: Source-address frame prefix: u16 length + utf-8 address bytes.
_SRC_LEN = struct.Struct(">H")

#: Default receive-buffer request per node socket; loopback bursts from
#: a fast sender overflow the kernel default long before the application
#: is slow (the bench's flow-control window assumes roughly this much).
RECV_BUFFER = 1 << 20

#: The one receive buffer's size: a UDP payload is at most 65507 bytes
#: over IPv4, so every datagram fits whole.
DATAGRAM_MAX = 1 << 16

#: Datagrams one readiness callback reads from a socket before it hands
#: the loop back (timers, other sockets, :meth:`SocketNetwork.run`'s
#: loop protection).  Twice the largest burst one socket holds on the
#: ``fabric_udp`` row (65 datagrams), so a burst is still read, and
#: acked, in one pass.
DRAIN_LIMIT = 128


class SocketTimer(Timer):
    """A :class:`Timer` backed by an asyncio handle: a ``call_at``
    timer, or a ``call_soon`` handle when it was due at once."""

    __slots__ = ("_handle", "_network")

    def __init__(self, when: float, callback: Callable[[], None],
                 network: "SocketNetwork") -> None:
        super().__init__(when, callback)
        self._network = network
        self._handle: Optional[asyncio.Handle] = None

    def cancel(self) -> None:
        super().cancel()
        if self._handle is not None:
            self._handle.cancel()
        self._network._armed.discard(self)


class SocketNetwork(NodeTable):
    """UDP-on-loopback fabric with the simulated network's interface.

    Parameters
    ----------
    default_link:
        Fault model between node pairs with no explicit link: loss and
        jitter are injected in user space from the seeded RNG;
        latency/bandwidth become real scheduled delays.  The default
        LinkSpec-free link adds nothing — datagrams go straight to the
        kernel.
    seed:
        Fault-injection RNG seed, as on the simulated network.
    host:
        Interface to bind (loopback by default; binding a real
        interface is possible but none of the shipped tooling does).
    """

    def __init__(
        self,
        default_link: Optional[LinkSpec] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        record_trace: bool = True,
    ) -> None:
        # Distinct from the sim default: no modeled latency on top of a
        # real wire unless the caller asks for one.
        self._open_tables(
            default_link if default_link is not None
            else LinkSpec(latency=0.0, bandwidth=0.0)
        )
        self.host = host
        self.record_trace = record_trace
        self._rng = random.Random(seed)
        self._loop = asyncio.new_event_loop()
        self._t0 = self._loop.time()
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._armed: set = set()
        self._activity = 0
        self._closed = False
        self.delivered_total = 0
        self.socket_errors = 0
        self._buffer = bytearray(DATAGRAM_MAX)
        self._view = memoryview(self._buffer)

    # ------------------------------------------------------------------
    # Clock / timers (the Scheduler protocol)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since this network was created (loop clock).  Real
        time, unlike the simulated transport's virtual clock — but the
        same monotonic-seconds contract for everything layered above."""
        return self._loop.time() - self._t0

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule *callback* at network time *when* (clamped to now).
        One due already runs after the loop's current readiness
        callbacks, before any timer due later."""
        now = self.now
        timer = SocketTimer(max(when, now), callback, self)

        def fire() -> None:
            self._armed.discard(timer)
            self._activity += 1
            if not timer.cancelled:
                timer.callback()

        if when <= now:
            timer._handle = self._loop.call_soon(fire)
        else:
            timer._handle = self._loop.call_at(when + self._t0, fire)
        self._armed.add(timer)
        return timer

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        if delay < 0:
            raise TransportError("timer delay must be >= 0")
        return self.call_at(self.now + delay, callback)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(self, address: str, port: int = 0) -> Node:
        """Bind a UDP socket for *address* (ephemeral port by default)
        and return its node.  The chosen port is on ``node.port`` — ship
        it to other processes via :meth:`register_peer` over whatever
        bootstrap channel the deployment has."""
        if self._closed:
            raise TransportError("network is closed")
        if address in self._nodes:
            raise TransportError(f"address {address!r} already in use")
        node = Node(self, address)
        family, kind, proto, _name, bind_to = _socketmod.getaddrinfo(
            self.host, port, type=_socketmod.SOCK_DGRAM)[0]
        sock = _socketmod.socket(family, kind, proto)
        try:
            sock.setsockopt(
                _socketmod.SOL_SOCKET, _socketmod.SO_RCVBUF, RECV_BUFFER
            )
        except OSError:  # pragma: no cover - kernel limits
            pass
        sock.setblocking(False)
        sock.bind(bind_to)
        self._loop.add_reader(sock.fileno(), self._drain, node, sock)
        node._sock = sock
        node.port = sock.getsockname()[1]
        self._nodes[address] = node
        return node

    def register_peer(self, address: str, host: str, port: int) -> None:
        """Teach this process where a remote node lives — the static
        address book a multi-process deployment distributes after every
        worker has bound its socket."""
        self._peers[address] = (host, port)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _resolve(self, destination: str) -> Tuple[str, int]:
        node = self._nodes.get(destination)
        if node is not None:
            return (self.host, node.port)
        peer = self._peers.get(destination)
        if peer is None:
            raise TransportError(f"no node at address {destination!r}")
        return peer

    def send(self, source: str, destination: str, data: bytes) -> float:
        """Send *data* to *destination*; returns the network time at
        which the datagram (or its delayed injection) leaves this
        process.  Loss/jitter/latency come from the link fault model;
        the kernel and wire add whatever they add on top."""
        target = self._resolve(destination)
        link = self.link_between(source, destination)
        delay, lost = link.draw(len(data), self._rng)
        self._sent(source, destination, len(data),
                   self.now + delay if lost else None)
        if lost:
            return self.now + delay
        prefix = source.encode("utf-8")
        frame = _SRC_LEN.pack(len(prefix)) + prefix + data
        if delay > 0:
            self.call_later(delay, lambda: self._transmit(source, frame, target))
        else:
            self._transmit(source, frame, target)
        return self.now + delay

    def _transmit(self, source: str, frame: bytes,
                  target: Tuple[str, int]) -> None:
        node = self._nodes.get(source)
        sock = node._sock if node is not None else None
        if sock is None:
            # A source without a local socket (or after close()): borrow
            # any bound node — UDP does not care which socket sends.
            for other in self._nodes.values():
                if other._sock is not None:
                    sock = other._sock
                    break
        if sock is None:
            raise TransportError("no bound socket to send from")
        try:
            sock.sendto(frame, target)
        except OSError:
            # refused by the kernel (a full buffer, an unreachable
            # address): lost, as on a wire — the reliable layer resends
            self.socket_errors += 1

    def _drain(self, node: Node, sock: _socketmod.socket) -> None:
        """*sock* is readable: hand on what it holds, at most
        :data:`DRAIN_LIMIT` datagrams.  Each is read into the one
        buffer, and its payload copied out before any handler runs, so
        a handler that sends (or reads) reuses the buffer safely."""
        buffer, view = self._buffer, self._view
        for _ in range(DRAIN_LIMIT):
            try:
                size = sock.recv_into(buffer)
            except BlockingIOError:
                return
            except OSError:
                self.socket_errors += 1
                return
            self._activity += 1
            # a datagram shorter than the length field leaves a previous
            # one's bytes where it is read, but any start is then past
            # the datagram's end: refused all the same
            start = _SRC_LEN.size + _SRC_LEN.unpack_from(buffer)[0]
            if size < start:
                self.socket_errors += 1
                continue
            source = str(view[_SRC_LEN.size:start], "utf-8", "replace")
            self._arrived(node, source, view[start:size].tobytes())
            self.delivered_total += 1

    # ------------------------------------------------------------------
    # Loop driving
    # ------------------------------------------------------------------

    def run(
        self,
        max_time: Optional[float] = None,
        idle: float = 0.05,
        max_events: int = 1_000_000,
    ) -> int:
        """Drive the asyncio loop until the network **quiesces**: no
        datagram arrived and no timer fired for *idle* seconds, with no
        timer still armed.  Armed timers (retransmission schedules,
        jitter-delayed sends) keep the run alive, so reliable traffic
        completes its retry schedule just like under the simulated
        transport's queue drain.  *max_time* bounds the call in real
        seconds; *max_events* bounds deliveries+firings (loop
        protection).  Returns deliveries performed during this call."""
        if self._closed:
            raise TransportError("network is closed")
        start_delivered = self.delivered_total
        start_activity = self._activity
        deadline = None if max_time is None else self._loop.time() + max_time
        step = min(0.005, idle if idle > 0 else 0.005)
        quiet = 0.0
        while True:
            if self._activity - start_activity > max_events:
                raise TransportError(
                    f"network did not quiesce within {max_events} events "
                    "(possible message loop)"
                )
            before = self._activity
            self._loop.run_until_complete(asyncio.sleep(step))
            if self._activity != before:
                quiet = 0.0
            elif not self._armed:
                quiet += step
                if quiet >= idle:
                    break
            if deadline is not None and self._loop.time() >= deadline:
                break
        return self.delivered_total - start_delivered

    def run_for(self, duration: float) -> int:
        """Drive the loop for exactly *duration* real seconds (no
        quiesce detection) — the bench's inner loop."""
        start = self.delivered_total
        self._loop.run_until_complete(asyncio.sleep(duration))
        return self.delivered_total - start

    @property
    def pending(self) -> int:
        """Armed timers (in-flight datagrams are invisible to user
        space; quiesce detection in :meth:`run` covers them)."""
        return len(self._armed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down every socket and the loop.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for timer in list(self._armed):
            timer.cancel()
        for node in self._nodes.values():
            if node._sock is not None:
                self._loop.remove_reader(node._sock.fileno())
                node._sock.close()
                node._sock = None
        self._loop.close()

    def __enter__(self) -> "SocketNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC path
        try:
            if not self._closed and not self._loop.is_closed():
                self.close()
        except Exception:
            pass
