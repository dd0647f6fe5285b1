"""Cross-module integration tests: the full paper scenario assembled from
every subsystem at once."""

import pytest

from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.process import EChoProcess
from repro.echo.protocol import RESPONSE_V1, RESPONSE_V2, V2_TO_V1_TRANSFORM
from repro.morph.receiver import MorphReceiver
from repro.net.link import WIRELESS_11MBPS, LinkSpec
from repro.net.transport import Network
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.pbio.registry import FormatRegistry

pytestmark = pytest.mark.integration


class TestQuickstartScenario:
    """The README quickstart, as an executable specification."""

    def test_temperature_reading_evolution(self):
        old_fmt = IOFormat("Reading", [IOField("celsius", "float")], version="1")
        new_fmt = IOFormat("Reading", [IOField("kelvin", "float")], version="2")
        registry = FormatRegistry()
        registry.add_transform(new_fmt, old_fmt,
                               "old.celsius = new.kelvin - 273.15;")
        got = []
        receiver = MorphReceiver(registry)
        receiver.register_handler(old_fmt, got.append)
        sender = PBIOContext(registry)
        receiver.process(sender.encode(new_fmt, new_fmt.make_record(kelvin=300.0)))
        assert got[0]["celsius"] == pytest.approx(26.85)


class TestPaperScenarioOverRealStack:
    """v2.0 creator + v1.0 subscriber, wire bytes over simulated links."""

    def test_channel_open_response_morphs_in_flight(self):
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        old = EChoProcess(net, "old", registry, version="1.0")
        creator.create_channel("c")
        old.open_channel("c", "creator", as_sink=True)
        net.run()
        assert old.channel("c").ready
        assert old.control.stats.morphed == 1

    def test_many_subscribers_cache_amortizes(self):
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        old = EChoProcess(net, "old", registry, version="1.0")
        creator.create_channel("c")
        old.open_channel("c", "creator", as_sink=True)
        net.run()
        # 9 more joins: 'old' receives 9 more v2.0 broadcast responses
        for i in range(9):
            peer = EChoProcess(net, f"peer-{i}", registry, version="2.0")
            peer.open_channel("c", "creator", as_sink=True)
        net.run()
        stats = old.control.stats
        assert stats.messages == 10
        assert stats.compiled_chains == 1  # compiled once, reused 9 times
        assert stats.cache_hits == 9

    def test_message_sizes_affect_virtual_latency(self):
        """Table 1's point: on a slow link, the smaller v2.0 encoding
        beats sending backward-compatible v1.0 messages."""
        members = 2000
        v2_rec = response_v2(members)
        v1_rec = response_v1_from_v2(v2_rec)
        ctx = PBIOContext()
        v2_wire = ctx.encode(RESPONSE_V2, v2_rec)
        v1_wire = ctx.encode(RESPONSE_V1, v1_rec)
        assert len(v1_wire) > 2 * len(v2_wire)
        t_v2 = WIRELESS_11MBPS.transmission_time(len(v2_wire))
        t_v1 = WIRELESS_11MBPS.transmission_time(len(v1_wire))
        assert t_v1 > 2 * t_v2


class TestWireCompatibilityMatrix:
    """Every (sender version, receiver version) pair interoperates."""

    @pytest.mark.parametrize("sender_version", ["1.0", "2.0"])
    @pytest.mark.parametrize("receiver_version", ["0.0", "1.0", "2.0"])
    def test_pairwise_interop(self, sender_version, receiver_version):
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version=sender_version)
        sub = EChoProcess(net, "sub", registry, version=receiver_version)
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        assert sub.channel("c").ready, (
            f"{receiver_version} reader failed against {sender_version} writer"
        )

    def test_v0_sender_rejected_cleanly_when_no_forward_transform(self):
        # v0.0 responses carry no transforms at all; a strict v2.0-only
        # reader cannot reconstruct roles, but the open still resolves
        # through default-fill reconciliation (member list is shared)
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="0.0")
        sub = EChoProcess(net, "sub", registry, version="2.0")
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        channel = sub.channel("c")
        assert channel.ready
        # roles were defaulted (v0 has no role data to morph from)
        assert all(not m.is_source for m in channel.member_list())


class TestLossyLinksAndFailures:
    def test_closed_subscriber_does_not_stall_others(self):
        net = Network()
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0")
        dead = EChoProcess(net, "dead", registry, version="1.0")
        live = EChoProcess(net, "live", registry, version="1.0")
        creator.create_channel("c")
        dead.open_channel("c", "creator", as_sink=True)
        live.open_channel("c", "creator", as_sink=True)
        dead.node.close()
        net.run()
        assert live.channel("c").ready
        assert not dead.channel("c").ready
        assert net.dropped >= 1

    def test_corrupted_wire_message_raises_cleanly(self):
        """Historical name: the message dead-letters a DecodeError."""
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        wire = bytearray(sender.encode(RESPONSE_V2, response_v2(2)))
        wire[4] ^= 0xFF  # corrupt the header version byte
        from repro.errors import DecodeError

        assert receiver.process(bytes(wire)) is None
        assert receiver.dead_letters[-1].stage == "decode"
        assert isinstance(receiver.last_error, DecodeError)

    def test_truncated_wire_message_raises_cleanly(self):
        """Historical name: the message dead-letters a DecodeError."""
        registry = FormatRegistry()
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        receiver.register_handler(RESPONSE_V2, lambda rec: rec)
        wire = sender.encode(RESPONSE_V2, response_v2(2))
        from repro.errors import DecodeError

        assert receiver.process(wire[: len(wire) // 2]) is None
        assert receiver.dead_letters[-1].stage == "decode"
        assert isinstance(receiver.last_error, DecodeError)
