"""Socket-transport tests: the asyncio UDP loopback fabric honors the
same node/timer contract as the simulated network, so the layers above
(reliable endpoints, ECho morphing) run unchanged over real datagrams.

Wall-clock budgets are kept tight: each test drives the loop for tens
of milliseconds of real time.
"""

import pytest

from repro.errors import TransportError
from repro.net.link import LinkSpec
from repro.net.socket import SocketNetwork
from repro.net.reliable import ReliableEndpoint


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

    def test_run_waits_for_armed_timers(self, net):
        """Quiesce detection must not declare idle while a timer is
        armed — retransmission schedules depend on it."""
        fired = []
        net.call_later(0.15, lambda: fired.append(True))
        net.run(max_time=5.0)
        assert fired


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
            creator = EChoProcess(net, "C", registry, version="2.0",
                                  reliable=True)
            sink1 = EChoProcess(net, "S1", registry, version="1.0",
                                reliable=True)
            sink0 = EChoProcess(net, "S0", registry, version="0.0",
                                reliable=True)
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
