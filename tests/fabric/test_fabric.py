"""Fabric core tests: exactly-once ledgers, directory membership,
morph-at-owner pub/sub, shard handoff, stale-route redirects, the ECho
directory integration, and the fabric over the socket transport."""

import pytest

from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.errors import FabricError
from repro.fabric import (
    EventFabric,
    FabricDirectory,
    FabricWorker,
    HashRing,
    RemoteWorker,
    SeqLedger,
    shard_of,
)
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.pbio.registry import FormatRegistry


def v2_record(channel_id="ch"):
    return RESPONSE_V2.make_record(
        channel_id=channel_id,
        member_count=2,
        member_list=[
            {"info": "a", "ID": 1, "is_Source": True, "is_Sink": False},
            {"info": "b", "ID": 2, "is_Source": False, "is_Sink": True},
        ],
    )


@pytest.fixture
def registry():
    reg = FormatRegistry()
    register_protocol(reg, "2.0")  # RESPONSE formats + retro transforms
    return reg


@pytest.fixture
def net():
    return Network(seed=7)


@pytest.fixture
def fabric(net, registry):
    return EventFabric(net, registry=registry)


class TestSeqLedger:
    def test_admits_each_seq_once(self):
        ledger = SeqLedger()
        assert ledger.admit(1)
        assert not ledger.admit(1)
        assert ledger.admit(2)
        assert ledger.high == 2

    def test_out_of_order_compacts(self):
        ledger = SeqLedger()
        for seq in (3, 1, 2):
            assert ledger.admit(seq)
        assert ledger.high == 3
        assert not ledger.sparse

    def test_gap_tracked_sparsely(self):
        ledger = SeqLedger()
        ledger.admit(1)
        ledger.admit(5)
        assert ledger.high == 1
        assert ledger.sparse == {5}
        assert not ledger.admit(5)
        assert ledger.admitted == 2

    def test_round_trips_through_state(self):
        ledger = SeqLedger()
        for seq in (1, 2, 3, 7, 9):
            ledger.admit(seq)
        restored = SeqLedger.from_state(ledger.to_state())
        assert restored.high == 3
        assert restored.sparse == {7, 9}
        assert not restored.admit(7)
        assert restored.admit(4)


class TestDirectory:
    def test_epoch_bumps_on_membership_change(self, fabric):
        directory = fabric.directory
        assert directory.epoch == 0
        fabric.add_worker("w1")
        assert directory.epoch == 1
        fabric.add_worker("w2")
        assert directory.epoch == 2
        fabric.remove_worker("w1")
        assert directory.epoch == 3

    def test_owner_consistent_with_assignment(self, fabric):
        fabric.add_worker("w1")
        fabric.add_worker("w2")
        directory = fabric.directory
        owner = directory.owner("sensors/temp")
        shard = shard_of("sensors/temp", directory.num_shards)
        assert directory.assignment[shard] == owner
        assert directory.route("sensors/temp") == (owner, directory.epoch)

    def test_unassigned_shard_raises(self):
        with pytest.raises(FabricError, match="unassigned"):
            FabricDirectory().owner("ch")

    def test_double_join_rejected(self, fabric):
        worker = fabric.add_worker("w1")
        with pytest.raises(FabricError, match="already joined"):
            fabric.directory.join(worker)

    def test_last_worker_cannot_leave(self, fabric):
        fabric.add_worker("w1")
        with pytest.raises(FabricError, match="last worker"):
            fabric.remove_worker("w1")

    def test_bootstrap_matches_incremental_assignment(self, net, registry):
        """Directory replicas cold-started from the same member list
        agree with a directory that grew one join at a time — except for
        the epoch, which counts membership *changes* (one bootstrap vs
        three joins)."""
        incremental = EventFabric(net, registry=registry)
        for address in ("w1", "w2", "w3"):
            incremental.add_worker(address)
        replica = FabricDirectory()
        replica.bootstrap([RemoteWorker(a) for a in ("w3", "w1", "w2")])
        assert replica.assignment == incremental.directory.assignment
        assert replica.epoch == 1

    def test_bootstrap_requires_empty_directory(self, fabric):
        fabric.add_worker("w1")
        with pytest.raises(FabricError, match="empty"):
            fabric.directory.bootstrap([RemoteWorker("w2")])

    def test_bootstrap_grants_without_handoff_traffic(self, net, registry):
        """Cold-start generates no wire traffic: every shard is fresh,
        so the hosted worker is granted its shards directly."""
        directory = FabricDirectory()
        worker = FabricWorker(directory, net, "w1", registry=registry)
        directory.bootstrap([worker, RemoteWorker("w2")])
        assert net.pending == 0
        assert worker.handoffs_sent == 0
        expected = [
            shard for shard, owner in directory.assignment.items()
            if owner == "w1"
        ]
        assert worker.owned_shards() == sorted(expected)

    def test_all_shards_covered_after_churn(self, fabric, net):
        w1 = fabric.add_worker("w1")
        w2 = fabric.add_worker("w2")
        w3 = fabric.add_worker("w3")
        net.run()
        fabric.remove_worker("w2")
        net.run()
        owned = w1.owned_shards() + w3.owned_shards()
        assert sorted(owned) == list(range(fabric.directory.num_shards))


class TestPubSubMorphing:
    def test_morph_at_owner_fan_out(self, fabric, net):
        """One v2.0 publish reaches a v1.0 and a v0.0 subscriber, each
        re-encoded at the owning worker via the retro-transform chain."""
        fabric.add_worker("w1")
        fabric.add_worker("w2")
        pub = fabric.client("pub")
        sub1 = fabric.client("sub1")
        sub0 = fabric.client("sub0")
        got1, got0 = [], []
        sub1.subscribe("ch", RESPONSE_V1,
                       lambda c, p, s, r: got1.append((s, r)))
        sub0.subscribe("ch", RESPONSE_V0,
                       lambda c, p, s, r: got0.append((s, r)))
        net.run()
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        assert len(got1) == 1 and len(got0) == 1
        seq, record = got1[0]
        assert seq == 1
        # Figure 5 applied at the owner: roles rebuilt into v1's lists
        assert record["src_count"] == 1
        assert record["sink_count"] == 1
        _seq, record0 = got0[0]
        assert record0["member_count"] == 2
        assert "src_count" not in record0  # v0 carries no role lists

    def test_same_format_subscribers_share_one_morph_group(
        self, fabric, net
    ):
        fabric.add_worker("w1")
        pub = fabric.client("pub")
        subs = [fabric.client(f"sub{i}") for i in range(3)]
        counts = [0, 0, 0]

        def make_handler(i):
            def handler(c, p, s, r):
                counts[i] += 1
            return handler

        for i, sub in enumerate(subs):
            sub.subscribe("ch", RESPONSE_V1, make_handler(i))
        net.run()
        worker = fabric.directory.worker(fabric.directory.owner("ch"))
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        assert counts == [1, 1, 1]
        assert worker.deliveries == 3
        channel = worker._channels["ch"]
        assert len(channel.groups) == 1  # one format group, one morph

    def test_a_resubscribe_in_another_format_moves_the_contact(
        self, fabric, net
    ):
        """A contact holds one format per channel at the owner: after
        subscribing in v1.0 and then v0.0, each event reaches it once,
        in v0.0, and decodes."""
        fabric.add_worker("w1")
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        sub.subscribe("ch", RESPONSE_V1, lambda c, p, s, r: got.append(s))
        net.run()
        sub.subscribe("ch", RESPONSE_V0,
                      lambda c, p, s, r: got.append((s, sorted(r))))
        net.run()
        for _ in range(3):
            pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        fields = sorted(RESPONSE_V0.field_names())
        assert got == [(seq, fields) for seq in (1, 2, 3)]
        assert (sub.errors, sub.duplicates) == (0, 0)
        worker = fabric.directory.worker(fabric.directory.owner("ch"))
        assert worker.deliveries == 3
        assert worker._channels["ch"].subscribers() == [
            ("sub", RESPONSE_V0.format_id)]

    def test_publisher_seq_is_per_channel(self, fabric, net):
        fabric.add_worker("w1")
        pub = fabric.client("pub")
        assert pub.publish("a", RESPONSE_V2, v2_record("a")) == 1
        assert pub.publish("b", RESPONSE_V2, v2_record("b")) == 1
        assert pub.publish("a", RESPONSE_V2, v2_record("a")) == 2

    def test_duplicate_publish_suppressed_by_owner_ledger(
        self, fabric, net
    ):
        """A replayed datagram (same publisher+seq) is dropped at the
        owner, not fanned out twice."""
        fabric.add_worker("w1")
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        sub.subscribe("ch", RESPONSE_V0, lambda c, p, s, r: got.append(s))
        net.run()
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        # replay the exact publish wire (seq not advanced)
        pub._channels["ch"].seq -= 1
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        worker = fabric.directory.worker(fabric.directory.owner("ch"))
        assert worker.duplicates == 1
        assert got == [1]


def moving_channel(num_shards, before_members, after_members):
    """A channel id whose owner changes between the two memberships."""
    ring_before, ring_after = HashRing(), HashRing()
    for member in before_members:
        ring_before.add(member)
    for member in after_members:
        ring_after.add(member)
    before = ring_before.assign(num_shards)
    after = ring_after.assign(num_shards)
    for i in range(500):
        candidate = f"moving-{i}"
        shard = shard_of(candidate, num_shards)
        if before[shard] != after[shard]:
            return candidate
    raise AssertionError("no channel moved between memberships")


class TestHandoff:
    def test_join_hands_off_with_state(self, fabric, net):
        fabric.add_worker("w1")
        fabric.add_worker("w2")
        channel_id = moving_channel(
            fabric.directory.num_shards, ["w1", "w2"], ["w1", "w2", "w3"]
        )
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        sub.subscribe(channel_id, RESPONSE_V0,
                      lambda c, p, s, r: got.append(s))
        net.run()
        for _ in range(3):
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        owner_before = fabric.directory.owner(channel_id)
        fabric.add_worker("w3")
        net.run()
        assert fabric.directory.owner(channel_id) != owner_before
        # subscriber table and ledger moved with the shard: publishing
        # with the *stale* cached route still delivers exactly once
        for _ in range(3):
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert got == [1, 2, 3, 4, 5, 6]
        assert sub.duplicates == 0

    def test_forwarding_counted_on_stale_route(self, fabric, net):
        fabric.add_worker("w1")
        fabric.add_worker("w2")
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        before = dict(fabric.directory.assignment)
        channel_id = moving_channel(
            fabric.directory.num_shards, ["w1", "w2"], ["w1", "w2", "w3"]
        )
        got = []
        sub.subscribe(channel_id, RESPONSE_V0,
                      lambda c, p, s, r: got.append(s))
        net.run()
        pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        old_owner = fabric.directory.worker(before[
            shard_of(channel_id, fabric.directory.num_shards)])
        fabric.add_worker("w3")
        net.run()
        # stale cached route: the publish lands on the old owner, is
        # forwarded raw, and a redirect corrects the publisher
        pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert got == [1, 2]
        assert old_owner.forwarded >= 1
        assert pub.redirects >= 1
        assert pub._channels[channel_id].route[0] == fabric.directory.owner(
            channel_id)

    def test_graceful_leave_preserves_subscriptions(self, fabric, net):
        w1 = fabric.add_worker("w1")
        fabric.add_worker("w2")
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        sub.subscribe("ch", RESPONSE_V0, lambda c, p, s, r: got.append(s))
        net.run()
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        leaver = fabric.directory.owner("ch")
        fabric.remove_worker(leaver)
        net.run()
        assert not fabric.directory.worker(
            fabric.directory.owner("ch")) is w1 or leaver != "w1"
        pub.publish("ch", RESPONSE_V2, v2_record())
        net.run()
        assert got == [1, 2]
        assert sub.duplicates == 0

    def test_redirect_never_rolls_back_epoch(self, fabric, net):
        fabric.add_worker("w1")
        client = fabric.client("c")
        client._routed("ch").route = ("w9", 5)
        client._on_redirect(
            type("R", (), {"__getitem__": lambda self, k: {
                "channel_id": "ch", "owner": "w1", "epoch": 3,
            }[k]})()
        )
        assert client._channels["ch"].route == ("w9", 5)


class TestEchoDirectoryIntegration:
    def test_open_channel_resolves_creator_through_directory(
        self, fabric, net, registry
    ):
        """ECho channel routing through the fabric: create on one
        process, open from another without exchanging contact strings."""
        from repro.echo.process import EChoProcess

        fabric.add_worker("w1")
        directory = fabric.directory
        creator = EChoProcess(net, "C", registry, version="2.0",
                              directory=directory)
        sink = EChoProcess(net, "S", registry, version="2.0",
                           directory=directory)
        creator.create_channel("echo-ch")
        assert directory.owner_contact("echo-ch") == "C"
        sink.open_channel("echo-ch", as_sink=True)
        net.run()
        got = []
        sink.subscribe("echo-ch", RESPONSE_V2, got.append)
        creator.submit("echo-ch", RESPONSE_V2, v2_record("echo-ch"))
        net.run()
        assert len(got) == 1

    def test_open_without_directory_requires_creator(self, net, registry):
        from repro.echo.process import EChoProcess
        from repro.errors import ChannelError

        process = EChoProcess(net, "P", registry)
        with pytest.raises(ChannelError, match="directory"):
            process.open_channel("ch")

    def test_unregistered_channel_falls_back_to_shard_owner(self, fabric):
        fabric.add_worker("w1")
        assert fabric.directory.owner_contact("never-created") == "w1"


class TestFabricOverSockets:
    def test_pubsub_over_udp_with_loss_and_churn(self, registry):
        """The whole subsystem on the pluggable transport: reliable
        fabric traffic over lossy UDP loopback, worker join mid-run,
        zero lost and zero duplicated deliveries."""
        from repro.net.socket import SocketNetwork

        with SocketNetwork(
            seed=3, default_link=LinkSpec(loss_rate=0.1)
        ) as net:
            fabric = EventFabric(net, registry=registry)
            fabric.add_worker("w1")
            fabric.add_worker("w2")
            pub = fabric.client("pub")
            sub = fabric.client("sub")
            got = []
            sub.subscribe("ch", RESPONSE_V0,
                          lambda c, p, s, r: got.append(s))
            net.run(max_time=10.0)
            for _ in range(5):
                pub.publish("ch", RESPONSE_V2, v2_record())
            net.run(max_time=10.0)
            fabric.add_worker("w3")
            for _ in range(5):
                pub.publish("ch", RESPONSE_V2, v2_record())
            net.run(max_time=20.0)
            assert sorted(got) == list(range(1, 11))
            assert sub.duplicates == 0
