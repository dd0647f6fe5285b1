"""Integration tests: multi-version ECho processes over the simulated
network — the paper's headline interoperability scenario."""

import pytest

from repro.echo.process import EChoProcess
from repro.errors import ChannelError
from repro.net.transport import Network
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

pytestmark = pytest.mark.integration

EVT_V1 = IOFormat(
    "Telemetry",
    [IOField("t", "float"), IOField("load", "integer")],
    version="1.0",
)

EVT_V2 = IOFormat(
    "Telemetry",
    [IOField("t", "float"), IOField("load", "integer"),
     IOField("host", "string")],
    version="2.0",
)


def build(creator_version="2.0", subscriber_versions=("1.0",)):
    net = Network()
    registry = FormatRegistry()
    creator = EChoProcess(net, "creator", registry, version=creator_version)
    subscribers = [
        EChoProcess(net, f"sub-{i}", registry, version=version)
        for i, version in enumerate(subscriber_versions)
    ]
    return net, registry, creator, subscribers


class TestChannelLifecycle:
    def test_same_version_join(self):
        net, _reg, creator, (sub,) = build("2.0", ("2.0",))
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        assert sub.channel("c").ready
        assert [m.contact for m in creator.channel("c").sinks()] == ["sub-0"]

    def test_duplicate_create_rejected(self):
        _net, _reg, creator, _subs = build()
        creator.create_channel("c")
        with pytest.raises(ChannelError, match="already exists"):
            creator.create_channel("c")

    def test_unknown_channel_lookup(self):
        _net, _reg, creator, _subs = build()
        with pytest.raises(ChannelError, match="not joined"):
            creator.channel("ghost")

    def test_unknown_version_rejected(self):
        net = Network()
        with pytest.raises(ChannelError, match="version"):
            EChoProcess(net, "x", FormatRegistry(), version="9.9")

    def test_misrouted_open_request_dropped(self):
        net, _reg, creator, (sub,) = build()
        # 'creator' never created the channel: request silently dropped
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        assert not sub.channel("c").ready


class TestCrossVersionControlPlane:
    def test_old_subscriber_understands_new_creator(self):
        net, _reg, creator, (old_sub,) = build("2.0", ("1.0",))
        creator.create_channel("c")
        old_sub.open_channel("c", "creator", as_sink=True)
        net.run()
        channel = old_sub.channel("c")
        assert channel.ready
        roles = {(m.contact, m.is_source, m.is_sink) for m in channel.member_list()}
        assert ("sub-0", False, True) in roles
        assert old_sub.control.stats.morphed >= 1

    def test_ancient_subscriber_uses_chain(self):
        net, _reg, creator, (ancient,) = build("2.0", ("0.0",))
        creator.create_channel("c")
        ancient.open_channel("c", "creator", as_sink=True)
        net.run()
        assert ancient.channel("c").ready
        from repro.echo.protocol import RESPONSE_V2

        route = ancient.control.route_for(RESPONSE_V2)
        assert route is not None and route.chain is not None
        assert len(route.chain) == 2

    def test_new_subscriber_understands_old_creator(self):
        net, _reg, creator, (new_sub,) = build("1.0", ("2.0",))
        creator.create_channel("c")
        new_sub.open_channel("c", "creator", as_sink=True)
        net.run()
        channel = new_sub.channel("c")
        assert channel.ready
        assert any(m.is_sink for m in channel.member_list())

    def test_mixed_cohort_converges(self):
        net, _reg, creator, subs = build("2.0", ("0.0", "1.0", "2.0"))
        creator.create_channel("c")
        for i, sub in enumerate(subs):
            sub.open_channel("c", "creator", as_sink=True, as_source=(i == 2))
        net.run()
        member_sets = [
            {m.contact for m in sub.channel("c").member_list()} for sub in subs
        ]
        assert member_sets[0] == member_sets[1] == member_sets[2]
        assert len(member_sets[0]) == 3


class TestDataPlane:
    def test_event_delivery_to_all_sinks(self):
        net, _reg, creator, subs = build("2.0", ("1.0", "2.0"))
        creator.create_channel("c")
        got = {0: [], 1: []}
        for i, sub in enumerate(subs):
            sub.open_channel("c", "creator", as_sink=True)
        publisher = EChoProcess(net, "pub", _reg, version="2.0")
        publisher.open_channel("c", "creator", as_source=True)
        net.run()
        for i, sub in enumerate(subs):
            sub.subscribe("c", EVT_V1, got[i].append)
        pushed = publisher.submit("c", EVT_V1, EVT_V1.make_record(t=1.0, load=5))
        net.run()
        assert pushed == 2
        assert got[0][0]["load"] == 5
        assert got[1][0]["load"] == 5

    def test_event_format_evolution_on_data_plane(self):
        net, registry, creator, (old_sub,) = build("2.0", ("1.0",))
        registry.add_transform(
            EVT_V2, EVT_V1,
            "old.t = new.t; old.load = new.load;",
        )
        creator.create_channel("c")
        old_sub.open_channel("c", "creator", as_sink=True)
        pub = EChoProcess(net, "pub", registry, version="2.0")
        pub.open_channel("c", "creator", as_source=True)
        net.run()
        got = []
        old_sub.subscribe("c", EVT_V1, got.append)
        pub.submit("c", EVT_V2, EVT_V2.make_record(t=2.0, load=9, host="n1"))
        net.run()
        assert got == [{"t": 2.0, "load": 9}]

    def test_submit_requires_source_role(self):
        net, _reg, creator, (sub,) = build()
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        with pytest.raises(ChannelError, match="source"):
            sub.submit("c", EVT_V1, EVT_V1.make_record(t=0.0, load=0))

    def test_subscribe_requires_sink_role(self):
        net, _reg, creator, (sub,) = build()
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_source=True)
        net.run()
        with pytest.raises(ChannelError, match="sink"):
            sub.subscribe("c", EVT_V1, lambda rec: rec)

    def test_local_delivery_when_source_is_also_sink(self):
        net, _reg, creator, _subs = build("2.0", ())
        creator.create_channel("c")
        both = EChoProcess(net, "both", _reg, version="2.0")
        both.open_channel("c", "creator", as_source=True, as_sink=True)
        net.run()
        got = []
        both.subscribe("c", EVT_V1, got.append)
        pushed = both.submit("c", EVT_V1, EVT_V1.make_record(t=1.0, load=1))
        assert pushed == 0  # no remote sinks
        assert len(got) == 1  # but local delivery happened

    def test_events_only_reach_subscribed_channels(self):
        net, _reg, creator, (sub,) = build("2.0", ("2.0",))
        creator.create_channel("c1")
        creator.create_channel("c2")
        sub.open_channel("c1", "creator", as_sink=True)
        pub = EChoProcess(net, "pub", _reg, version="2.0")
        pub.open_channel("c1", "creator", as_source=True)
        pub.open_channel("c2", "creator", as_source=True)
        net.run()
        got = []
        sub.subscribe("c1", EVT_V1, got.append)
        pub.submit("c1", EVT_V1, EVT_V1.make_record(t=1.0, load=1))
        pub.submit("c2", EVT_V1, EVT_V1.make_record(t=2.0, load=2))
        net.run()
        assert len(got) == 1
        assert got[0]["load"] == 1


class TestLeave:
    def test_leaving_sink_stops_receiving(self):
        net, registry, creator, (sub,) = build("2.0", ("2.0",))
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        stay = EChoProcess(net, "stay", registry, version="2.0")
        stay.open_channel("c", "creator", as_sink=True)
        pub = EChoProcess(net, "pub", registry, version="2.0")
        pub.open_channel("c", "creator", as_source=True)
        net.run()
        got_sub, got_stay = [], []
        sub.subscribe("c", EVT_V1, got_sub.append)
        stay.subscribe("c", EVT_V1, got_stay.append)
        pub.submit("c", EVT_V1, EVT_V1.make_record(t=1.0, load=1))
        net.run()
        assert len(got_sub) == len(got_stay) == 1
        sub.leave_channel("c")
        net.run()  # leave + membership refresh propagate
        pub.submit("c", EVT_V1, EVT_V1.make_record(t=2.0, load=2))
        net.run()
        assert len(got_sub) == 1  # no more deliveries
        assert len(got_stay) == 2
        assert [m.contact for m in creator.channel("c").sinks()] == ["stay"]

    def test_creator_cannot_leave(self):
        _net, _reg, creator, _subs = build()
        creator.create_channel("c")
        with pytest.raises(ChannelError, match="creator"):
            creator.leave_channel("c")

    def test_the_creators_refused_leave_keeps_its_subscription(self):
        net, registry, creator, _subs = build()
        creator.create_channel("c")
        creator.open_channel("c", "creator", as_sink=True)
        pub = EChoProcess(net, "pub", registry, version="2.0")
        pub.open_channel("c", "creator", as_source=True)
        net.run()
        got = []
        creator.subscribe("c", EVT_V1, got.append)
        pub.submit("c", EVT_V1, EVT_V1.make_record(t=1.0, load=1))
        net.run()
        with pytest.raises(ChannelError, match="creator"):
            creator.leave_channel("c")
        channel = creator.channel("c")
        assert channel.is_sink and channel.ready
        pub.submit("c", EVT_V1, EVT_V1.make_record(t=2.0, load=2))
        net.run()
        assert [event["load"] for event in got] == [1, 2]
        assert creator.errors == 0

    def test_leave_unknown_member_is_noop(self):
        net, registry, creator, (sub,) = build("2.0", ("2.0",))
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        net.run()
        stranger = EChoProcess(net, "stranger", registry, version="2.0")
        stranger.channels["c"] = type(sub.channel("c"))("c", "creator")
        stranger.leave_channel("c")
        net.run()
        assert [m.contact for m in creator.channel("c").member_list()] == ["sub-0"]

    def test_remaining_members_see_updated_replica(self):
        net, registry, creator, (sub,) = build("2.0", ("1.0",))
        creator.create_channel("c")
        sub.open_channel("c", "creator", as_sink=True)
        other = EChoProcess(net, "other", registry, version="2.0")
        other.open_channel("c", "creator", as_sink=True)
        net.run()
        assert len(other.channel("c").member_list()) == 2
        sub.leave_channel("c")
        net.run()
        assert [m.contact for m in other.channel("c").member_list()] == ["other"]
