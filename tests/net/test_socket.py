"""Socket-transport tests: the UDP loopback fabric honors the
same node/timer contract as the simulated network, so the layers above
(reliable endpoints, ECho morphing) run unchanged over real datagrams.

Wall-clock budgets are kept tight: each test drives the loop for tens
of milliseconds of real time.
"""

import signal
import socket

import pytest

from repro.errors import TransportError
from repro.net.link import LinkSpec
from repro.net.socket import DRAIN_LIMIT, SocketNetwork
from repro.net.reliable import HEADER_SIZE, MAGIC, ReliableEndpoint


@pytest.fixture
def net():
    with SocketNetwork(seed=1) as network:
        yield network


class TestTopology:
    def test_add_and_get_node(self, net):
        node = net.add_node("a")
        assert net.node("a") is node
        assert node.port > 0

    def test_duplicate_address_rejected(self, net):
        net.add_node("a")
        with pytest.raises(TransportError, match="already in use"):
            net.add_node("a")

    def test_unknown_destination(self, net):
        net.add_node("a")
        with pytest.raises(TransportError, match="no node"):
            net.send("a", "ghost", b"x")

    def test_each_node_gets_its_own_port(self, net):
        a = net.add_node("a")
        b = net.add_node("b")
        assert a.port != b.port


class TestDelivery:
    def test_send_and_receive(self, net):
        net.add_node("a")
        b = net.add_node("b")
        got = []
        b.set_handler(lambda src, data: got.append((src, data)))
        net.send("a", "b", b"hello")
        net.run(max_time=2.0)
        assert got == [("a", b"hello")]

    def test_a_non_ascii_source_arrives_whole(self, net):
        """The source prefix counts the address's utf-8 bytes, not its
        characters."""
        net.add_node("knoten-ü")
        b = net.add_node("b")
        net.send("knoten-ü", "b", b"payload")
        net.run(max_time=2.0)
        assert b.received == [("knoten-ü", b"payload")]

    def test_a_frame_shorter_than_its_prefix_is_counted_not_delivered(
            self, net):
        b = net.add_node("b")
        net.send("b", "b", b"x" * 64)  # leaves bytes in the buffer
        net.run(max_time=2.0)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
            for frame in (b"", b"\x00", b"\x00\x05abc"):
                raw.sendto(frame, ("127.0.0.1", b.port))
            net.run(max_time=2.0)
        assert net.socket_errors == 3
        assert b.received == [("b", b"x" * 64)]

    def test_unhandled_messages_accumulate(self, net):
        net.add_node("a")
        b = net.add_node("b")
        net.send("a", "b", b"payload")
        net.run(max_time=2.0)
        assert b.received == [("a", b"payload")]

    def test_closed_node_drops_and_counts(self, net):
        net.add_node("a")
        b = net.add_node("b")
        b.close()
        net.send("a", "b", b"x")
        net.run(max_time=2.0)
        assert b.drops == 1
        assert net.drops_by_node() == {"b": 1}
        b.reopen()
        net.send("a", "b", b"y")
        net.run(max_time=2.0)
        assert b.received == [("a", b"y")]

    def test_handler_exception_is_contained(self, net):
        net.add_node("a")
        b = net.add_node("b")

        def bad(_src, _data):
            raise ValueError("boom")

        b.set_handler(bad)
        net.send("a", "b", b"x")
        net.run(max_time=2.0)
        assert b.handler_errors == 1
        assert net.handler_errors == 1
        assert isinstance(net.last_handler_error[1], ValueError)

    def test_delivery_trace_recorded(self, net):
        net.add_node("a")
        net.add_node("b")
        net.send("a", "b", b"x")
        net.run(max_time=2.0)
        assert [
            (d.source, d.destination) for d in net.trace if not d.dropped
        ] == [("a", "b")]


    def test_trace_is_the_same_bounded_window_as_the_sim(self, net):
        from repro.net.transport import TRACE_LIMIT

        assert net.trace.maxlen == TRACE_LIMIT


class TestFaultInjection:
    def test_seeded_loss_is_deterministic(self):
        decisions = []
        for _attempt in range(2):
            with SocketNetwork(
                seed=42, default_link=LinkSpec(loss_rate=0.5)
            ) as net:
                net.add_node("a")
                b = net.add_node("b")
                got = []
                b.set_handler(lambda src, data: got.append(data))
                for i in range(20):
                    net.send("a", "b", bytes([i]))
                net.run(max_time=2.0)
                decisions.append((net.lost, sorted(got)))
        assert decisions[0] == decisions[1]
        assert decisions[0][0] > 0  # some datagrams actually lost

    def test_latency_is_a_real_delay(self):
        with SocketNetwork(
            default_link=LinkSpec(latency=0.05, bandwidth=0.0)
        ) as net:
            net.add_node("a")
            b = net.add_node("b")
            sent_at = net.now
            net.send("a", "b", b"x")
            net.run(max_time=2.0)
            assert b.received
            arrival = next(
                d.time for d in net.trace if d.destination == "b"
            )
            assert arrival - sent_at >= 0.05

    def test_per_pair_links(self, net):
        lossy = LinkSpec(loss_rate=1.0)
        net.set_link("a", "b", lossy)
        assert net.link_between("a", "b") is lossy
        assert net.link_between("b", "a") is lossy
        net.add_node("a")
        b = net.add_node("b")
        net.send("a", "b", b"x")
        net.run(max_time=1.0)
        assert net.lost == 1
        assert not b.received


class TestTimers:
    def test_call_later_fires(self, net):
        fired = []
        net.call_later(0.02, lambda: fired.append(net.now))
        net.run(max_time=2.0)
        assert fired and fired[0] >= 0.02

    def test_cancelled_timer_does_not_fire(self, net):
        fired = []
        timer = net.call_later(0.02, lambda: fired.append(True))
        timer.cancel()
        net.run(max_time=0.3)
        assert not fired
        assert net.pending == 0

    def test_negative_delay_rejected(self, net):
        with pytest.raises(TransportError, match="must be >= 0"):
            net.call_later(-0.1, lambda: None)

    def test_a_zero_delay_callback_skips_the_timer_heap(self, net):
        loop = net._loop
        counts = {"call_at": 0, "call_soon": 0}

        def counting(name):
            original = getattr(loop, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        for name in counts:
            setattr(loop, name, counting(name))
        try:
            net.call_later(0.0, lambda: None)
            net.call_at(net.now - 1.0, lambda: None)
            assert counts == {"call_at": 0, "call_soon": 2}
            net.call_later(0.01, lambda: None)
            assert counts == {"call_at": 1, "call_soon": 2}
        finally:
            for name in counts:
                delattr(loop, name)

    def test_a_zero_delay_callback_runs_after_the_pass_before_a_timer(
            self, net):
        """Queued from a readiness callback, it runs once every socket
        readable in that loop pass has been read, and before a timer
        due later, even one armed earlier."""
        order = []
        net.add_node("a")
        b = net.add_node("b")
        c = net.add_node("c")
        net.call_later(0.05, lambda: order.append("timer"))

        def on_b(_src, _data):
            order.append("b")
            net.call_later(0.0, lambda: order.append("soon"))

        b.set_handler(on_b)
        c.set_handler(lambda _src, _data: order.append("c"))
        net.send("a", "b", b"x")
        net.send("a", "c", b"y")
        net.run(max_time=2.0)
        assert sorted(order[:2]) == ["b", "c"]
        assert order[2:] == ["soon", "timer"]

    def test_a_cancelled_zero_delay_callback_does_not_run(self, net):
        fired = []
        timer = net.call_later(0.0, lambda: fired.append(True))
        assert net.pending == 1
        timer.cancel()
        assert net.pending == 0
        net.run(max_time=0.3)
        assert not fired

    def test_run_waits_for_armed_timers(self, net):
        """Quiesce detection must not declare idle while a timer is
        armed — retransmission schedules depend on it."""
        fired = []
        net.call_later(0.15, lambda: fired.append(True))
        net.run(max_time=5.0)
        assert fired


class TestDrainBound:
    """One readiness callback reads at most ``DRAIN_LIMIT`` datagrams
    from a socket, then hands the loop back."""

    @staticmethod
    def passes(monkeypatch, datagrams):
        """Datagrams read per readiness callback of the receiving node,
        *datagrams* of them queued in its socket before the loop runs."""
        reads = []
        drain = SocketNetwork._drain

        def counting(self, node, sock):
            before = self.delivered_total
            drain(self, node, sock)
            reads.append(self.delivered_total - before)

        monkeypatch.setattr(SocketNetwork, "_drain", counting)
        with SocketNetwork() as net:
            net.add_node("a")
            b = net.add_node("b")
            b.set_handler(lambda _src, _data: None)
            for n in range(datagrams):
                net.send("a", "b", b"%d" % n)
            net.run(max_time=2.0)
        return reads

    def test_a_burst_of_the_bound_takes_one_pass(self, monkeypatch):
        assert self.passes(monkeypatch, DRAIN_LIMIT) == [DRAIN_LIMIT]

    def test_one_datagram_more_takes_two(self, monkeypatch):
        assert self.passes(monkeypatch, DRAIN_LIMIT + 1) == [DRAIN_LIMIT, 1]

    def test_a_handler_that_sends_to_its_own_node_trips_the_guard(self, net):
        """Its socket is never empty, so only the bound returns the loop
        to :meth:`SocketNetwork.run`'s event count; an alarm turns a hang
        into a failure (a ``SystemExit``: asyncio logs and swallows any
        other exception a callback raises)."""
        a = net.add_node("a")
        a.set_handler(lambda _src, data: net.send("a", "a", data))
        net.send("a", "a", b"again")

        class Hung(SystemExit):
            pass

        def hung(_signum, _frame):
            raise Hung("the drain never handed the loop back")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(TransportError, match="did not quiesce"):
                net.run(max_time=10.0, max_events=1000)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestSocketReadPrice:
    """Counted, never timed: what a burst costs on real sockets.  A
    reliable burst is read in one pass and so answered with one ack;
    every read goes into the one preallocated buffer."""

    def test_a_burst_costs_one_ack_and_reads_into_one_buffer(
            self, monkeypatch):
        reads = []

        class CountingSocket(socket.socket):
            def recv_into(self, buffer, *args):
                reads.append(("recv_into", id(buffer)))
                return super().recv_into(buffer, *args)

            def recvfrom(self, *args):
                reads.append(("recvfrom", None))
                return super().recvfrom(*args)

        with SocketNetwork() as net:
            monkeypatch.setattr(socket, "socket", CountingSocket)
            a = ReliableEndpoint(net, address="a", base_timeout=1.0)
            b = ReliableEndpoint(net, address="b", base_timeout=1.0)
            monkeypatch.undo()
            b.set_handler(lambda _src, _data: None)
            wire = []
            send = net.send

            def tap(source, destination, data):
                wire.append((data[4], len(data)))
                return send(source, destination, data)

            net.send = tap
            tickets = [a.send("b", bytes([n])) for n in range(64)]
            net.run(max_time=5.0)
            assert all(t.state == "acked" for t in tickets)
            assert b.delivered == 64
            assert [kind for kind, _size in wire].count(0) == 64
            assert [size for kind, size in wire if kind == 1] == [HEADER_SIZE]
            # 65 datagrams, each read once, plus one empty read per pass
            assert {name for name, _buffer in reads} == {"recv_into"}
            assert {buffer for _name, buffer in reads} == {id(net._buffer)}
            assert len(reads) >= 65

    def test_a_burst_is_answered_before_the_next_pass_reads(
            self, monkeypatch):
        """16 publishes read by one drain of a fabric owner leave it as
        one frame to the subscriber and one ack to the publisher, both
        sent by the zero-delay flush before the readiness callbacks of
        the next loop pass run."""
        from repro.echo.protocol import RESPONSE_V2
        from repro.fabric import EventFabric
        from repro.net.batch import is_batch, unpack_batch
        from tests.fabric.test_recovery import make_registry

        log = []
        drain = SocketNetwork._drain
        monkeypatch.setattr(
            SocketNetwork, "_drain", lambda self, node, sock: log.append(
                ("drain", node.address)) or drain(self, node, sock))
        with SocketNetwork(seed=1) as net:
            fabric = EventFabric(net, registry=make_registry())
            fabric.add_worker("w0")
            pub = fabric.client("pub")
            got = []
            fabric.client("sub").subscribe(
                "ch", RESPONSE_V2, lambda c, p, s, r: got.append(s))
            net.run(max_time=10.0)
            select = net._loop._selector.select
            monkeypatch.setattr(
                net._loop._selector, "select",
                lambda *a: log.append(("select",)) or select(*a))
            send = net.send
            net.send = lambda source, destination, data: log.append(
                ("send", source, destination, data)) or send(
                    source, destination, data)
            record = RESPONSE_V2.make_record(
                channel_id="ch", member_count=0, member_list=[])
            del log[:]
            seqs = [pub.publish("ch", RESPONSE_V2, record) for _ in range(16)]
            net.run(max_time=10.0)
        assert sorted(got) == seqs
        read = log.index(("drain", "w0"))
        next_pass = log.index(("select",), read)
        later = next(i for i in range(next_pass, len(log))
                     if log[i][0] == "drain")
        sends = [entry[2:] for entry in log[read:later]
                 if entry[0] == "send" and entry[1] == "w0"]
        # (destination, frame type): the data frame, then the ack
        assert [(to, data[len(MAGIC)]) for to, data in sends] == [
            ("sub", 0), ("pub", 1)]
        frame = sends[0][1][HEADER_SIZE:]
        assert is_batch(frame) and unpack_batch(frame).count == 16

    def test_a_refused_sendto_is_counted_and_lost(self, net):
        class Refusing:
            def sendto(self, _frame, _target):
                raise BlockingIOError

        a = net.add_node("a")
        b = net.add_node("b")
        real, a._sock = a._sock, Refusing()
        try:
            net.send("a", "b", b"x")
        finally:
            a._sock = real
        net.run(max_time=0.5)
        assert net.socket_errors == 1
        assert not b.received


class TestLifecycle:
    def test_close_is_idempotent(self):
        net = SocketNetwork()
        net.add_node("a")
        net.close()
        net.close()
        with pytest.raises(TransportError, match="closed"):
            net.add_node("b")

    def test_context_manager_closes(self):
        with SocketNetwork() as net:
            net.add_node("a")
        with pytest.raises(TransportError, match="closed"):
            net.run()


class TestReliableOverSockets:
    def test_exactly_once_under_loss(self):
        """The reliable endpoint's retransmission schedule runs on the
        socket transport's timers: every message arrives exactly once
        despite 30% injected loss."""
        with SocketNetwork(
            seed=9, default_link=LinkSpec(loss_rate=0.3)
        ) as net:
            sender = ReliableEndpoint(net, address="S")
            receiver = ReliableEndpoint(net, address="R")
            got = []
            receiver.set_handler(lambda src, data: got.append(data))
            for i in range(10):
                sender.send("R", b"m%d" % i)
            net.run(max_time=10.0)
            assert sorted(got) == [b"m%d" % i for i in range(10)]
            assert net.lost > 0  # loss actually happened


class TestEchoOverSockets:
    def test_morphing_chain_over_udp(self):
        """The flagship scenario on real datagrams: a v2.0 publisher, a
        v1.0 sink and a v0.0 sink reconcile over lossy UDP with
        reliable endpoints — transport-pluggability end to end."""
        from repro.echo.process import EChoProcess
        from repro.echo.protocol import (
            RESPONSE_V0,
            RESPONSE_V1,
            RESPONSE_V2,
            register_protocol,
        )
        from repro.pbio.registry import FormatRegistry

        registry = FormatRegistry()
        register_protocol(registry, "2.0")
        with SocketNetwork(
            seed=5, default_link=LinkSpec(loss_rate=0.1)
        ) as net:
            creator = EChoProcess(net, "C", registry, version="2.0")
            sink1 = EChoProcess(net, "S1", registry, version="1.0")
            sink0 = EChoProcess(net, "S0", registry, version="0.0")
            creator.create_channel("ch")
            sink1.open_channel("ch", "C", as_sink=True)
            sink0.open_channel("ch", "C", as_sink=True)
            net.run(max_time=10.0)
            got1, got0 = [], []
            sink1.subscribe("ch", RESPONSE_V1, got1.append)
            sink0.subscribe("ch", RESPONSE_V0, got0.append)
            record = RESPONSE_V2.make_record(
                channel_id="ch",
                member_count=1,
                member_list=[{
                    "info": "C", "ID": 1,
                    "is_Source": True, "is_Sink": False,
                }],
            )
            for _ in range(4):
                creator.submit("ch", RESPONSE_V2, record)
            net.run(max_time=15.0)
            assert len(got1) == 4
            assert len(got0) == 4
            # the v1 sink saw the Figure 5 retro-transform applied
            assert got1[0]["src_count"] == 1
