"""Unit tests for the simulated network fabric."""

import pytest

from repro.errors import TransportError
from repro.net.link import LinkSpec
from repro.net.transport import Network


class TestTopology:
    def test_add_and_get_node(self):
        net = Network()
        node = net.add_node("a")
        assert net.node("a") is node

    def test_duplicate_address_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(TransportError, match="already in use"):
            net.add_node("a")

    def test_unknown_node_lookup(self):
        with pytest.raises(TransportError, match="no node"):
            Network().node("ghost")

    def test_send_to_unknown_destination(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(TransportError, match="no node"):
            net.send("a", "ghost", b"x")

    def test_per_pair_links(self):
        net = Network(default_link=LinkSpec(latency=0.001, bandwidth=0))
        slow = LinkSpec(latency=1.0, bandwidth=0)
        net.set_link("a", "b", slow)
        assert net.link_between("a", "b") is slow
        assert net.link_between("b", "a") is slow
        assert net.link_between("a", "c") is net.default_link


class TestDelivery:
    def test_polling_inbox(self):
        net = Network()
        net.add_node("a")
        b = net.add_node("b")
        net.send("a", "b", b"hello")
        net.run()
        assert b.received == [("a", b"hello")]

    def test_handler_invoked(self):
        net = Network()
        a = net.add_node("a")
        net.add_node("b")
        got = []
        net.node("b").set_handler(lambda src, data: got.append((src, data)))
        a.send("b", b"ping")
        net.run()
        assert got == [("a", b"ping")]

    def test_timestamp_order(self):
        net = Network(default_link=LinkSpec(latency=0.0, bandwidth=1000))
        net.add_node("a")
        b = net.add_node("b")
        net.send("a", "b", b"x" * 500)   # 0.5s
        net.send("a", "b", b"y" * 100)   # 0.1s -> arrives first
        net.run()
        assert [data[:1] for _src, data in b.received] == [b"y", b"x"]

    def test_fifo_tiebreak_for_equal_timestamps(self):
        net = Network(default_link=LinkSpec(latency=0.0, bandwidth=0))
        net.add_node("a")
        b = net.add_node("b")
        for i in range(5):
            net.send("a", "b", bytes([i]))
        net.run()
        assert [data[0] for _src, data in b.received] == [0, 1, 2, 3, 4]

    def test_handler_may_send_more(self):
        net = Network()
        net.add_node("client")
        net.add_node("server")
        got = []
        net.node("server").set_handler(
            lambda src, data: net.send("server", src, b"pong")
        )
        net.node("client").set_handler(lambda src, data: got.append(data))
        net.send("client", "server", b"ping")
        net.run()
        assert got == [b"pong"]

    def test_virtual_time_advances(self):
        net = Network(default_link=LinkSpec(latency=0.25, bandwidth=0))
        net.add_node("a")
        net.add_node("b")
        net.send("a", "b", b"x")
        net.run()
        assert net.now == pytest.approx(0.25)

    def test_max_time_leaves_future_messages_queued(self):
        net = Network(default_link=LinkSpec(latency=1.0, bandwidth=0))
        net.add_node("a")
        b = net.add_node("b")
        net.send("a", "b", b"x")
        delivered = net.run(max_time=0.5)
        assert delivered == 0 and net.pending == 1
        net.run()
        assert b.received

    def test_message_loop_guard(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.node("b").set_handler(lambda src, d: net.send("b", "a", d))
        net.node("a").set_handler(lambda src, d: net.send("a", "b", d))
        net.send("a", "b", b"bounce")
        with pytest.raises(TransportError, match="quiesce"):
            net.run(max_events=100)


class TestFailureInjection:
    def test_closed_node_drops_messages(self):
        net = Network()
        net.add_node("a")
        b = net.add_node("b")
        b.close()
        net.send("a", "b", b"lost")
        net.run()
        assert b.received == []
        assert net.dropped == 1


class TestAccounting:
    def test_stats_and_trace(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.send("a", "b", b"12345")
        net.run()
        assert net.bytes_sent == 5
        assert net.messages_sent == 1
        assert len(net.trace) == 1
        entry = net.trace[0]
        assert (entry.source, entry.destination, entry.size) == ("a", "b", 5)

    def test_trace_is_a_bounded_window(self):
        """``trace`` keeps the most recent deliveries only: ten times the
        cap of sends leaves it at the cap, newest entry last."""
        from repro.net.transport import TRACE_LIMIT

        net = Network()
        net.add_node("a")
        net.add_node("b")
        for index in range(10 * TRACE_LIMIT):
            net.send("a", "b", b"x" * (1 + index % 7))
            net.run()
        assert net.messages_sent == 10 * TRACE_LIMIT
        assert len(net.trace) == TRACE_LIMIT
        assert net.trace[-1].size == 1 + (10 * TRACE_LIMIT - 1) % 7
