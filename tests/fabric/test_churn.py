"""Churn tests — the PR's acceptance scenario.

A seeded join/leave schedule runs *while* a lossy V2 -> V1 -> V0 morph
chain is publishing through reliable endpoints.  Shard handoff must
drain-and-forward such that ledger reconciliation proves exactly-once:
every published sequence number delivered to every subscriber exactly
once, no gaps, no duplicates — regardless of how many ownership epochs
a message crossed.

The trace-continuity class then shows the observability half: one
trace id per message even when the message took an extra forwarding hop
through its channel's *previous* owner mid-handoff.
"""

import random

import pytest

from repro import obs
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.fabric import EventFabric
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.distributed import TraceStore
from repro.obs.tracectx import seed_ids
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_fabric import moving_channel, v2_record


def make_registry():
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


class TestChurnExactlyOnce:
    @pytest.mark.parametrize("net_seed,churn_seed", [(11, 3), (23, 8)])
    def test_seeded_join_leave_under_lossy_morph_chain(
        self, net_seed, churn_seed
    ):
        """Publish V2 events through a 15%-lossy fabric at a v1.0 and a
        v0.0 subscriber while workers join and leave mid-flight."""
        net = Network(
            seed=net_seed,
            default_link=LinkSpec(
                latency=0.002, loss_rate=0.15, jitter=0.5
            ),
        )
        fabric = EventFabric(net, registry=make_registry(), reliable=True)
        fabric.add_worker("w1")
        fabric.add_worker("w2")
        workers = {"w1": fabric.directory.worker("w1"),
                   "w2": fabric.directory.worker("w2")}
        active = ["w1", "w2"]
        retired = []
        pub = fabric.client("pub")
        sub1 = fabric.client("sub-v1")
        sub0 = fabric.client("sub-v0")
        got1, got0 = [], []
        channels = [f"churn/{i}" for i in range(4)]
        for channel_id in channels:
            sub1.subscribe(channel_id, RESPONSE_V1,
                           lambda c, p, s, r: got1.append((c, s)))
            sub0.subscribe(channel_id, RESPONSE_V0,
                           lambda c, p, s, r: got0.append((c, s)))
        net.run()

        rng = random.Random(churn_seed)
        published = {channel_id: 0 for channel_id in channels}
        next_worker = 3
        for _round in range(6):
            for _ in range(5):
                channel_id = rng.choice(channels)
                pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
                published[channel_id] += 1
            # let part of the burst (and its retransmits) fly...
            net.run(max_time=net.now + 0.05)
            # ...then churn while messages are in flight
            if len(active) <= 2 or rng.random() < 0.5:
                address = f"w{next_worker}"
                next_worker += 1
                workers[address] = fabric.add_worker(address)
                active.append(address)
            else:
                address = rng.choice(active)
                fabric.remove_worker(address)
                active.remove(address)
                retired.append(address)
            net.run(max_time=net.now + 0.05)
        net.run()  # drain everything, including retry schedules

        total = sum(published.values())
        assert total == 30
        # --- ledger reconciliation: exactly-once end to end ----------
        for sub, got in ((sub1, got1), (sub0, got0)):
            assert sub.delivered == total
            assert sub.duplicates == 0
            for channel_id in channels:
                ledger = sub.received.get((channel_id, "pub"))
                if published[channel_id] == 0:
                    assert ledger is None
                    continue
                # no gaps, no extras: the ledger compacted fully
                assert ledger.high == published[channel_id]
                assert not ledger.sparse
            seqs = sorted(s for c, s in got if c == channels[0])
            assert seqs == list(range(1, published[channels[0]] + 1))
        # --- the churn was real --------------------------------------
        fleet = list(workers.values())
        assert sum(w.handoffs_sent for w in fleet) > 0
        assert sum(w.handoffs_received for w in fleet) > 0
        assert len(retired) >= 1
        # retired workers ended up owning nothing
        for address in retired:
            assert workers[address].owned_shards() == []
        # live workers cover the whole shard space exactly once
        owned = []
        for address in active:
            owned.extend(workers[address].owned_shards())
        assert sorted(owned) == list(range(fabric.directory.num_shards))

    def test_forwarded_messages_survive_with_stale_routes(self):
        """A publisher that never refreshes its route (redirects lost to
        a fully lossy control path... simulated by pre-caching) still
        gets every message through via drain-and-forward."""
        net = Network(seed=5, default_link=LinkSpec(latency=0.001))
        fabric = EventFabric(net, registry=make_registry(), reliable=True)
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
        old_owner = fabric.directory.owner(channel_id)
        pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        fabric.add_worker("w3")
        net.run()
        for _ in range(3):
            # force the stale route every time: always hit the old owner
            pub._routes[channel_id] = (old_owner, 2)
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
            net.run()
        assert got == [1, 2, 3, 4]
        assert sub.duplicates == 0
        assert fabric.directory.worker(old_owner).forwarded >= 3


class TestTraceContinuityAcrossHandoff:
    def test_one_trace_per_message_across_the_handoff_hop(self):
        """A message published against a stale route crosses three
        transport hops (publisher -> old owner -> new owner ->
        subscriber); every span lands on the publish's single trace."""
        obs.enable(capacity=16384, sample_every=1)
        seed_ids(21)
        net = Network(seed=2, default_link=LinkSpec(latency=0.001))
        fabric = EventFabric(net, registry=make_registry(), reliable=True)
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
        pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        old_owner = fabric.directory.owner(channel_id)
        fabric.add_worker("w3")
        net.run()
        # second publish rides the stale cached route -> forwarded
        pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert got == [1, 2]
        assert fabric.directory.worker(old_owner).forwarded >= 1

        store = TraceStore()
        store.add_recorder("local", obs.get_tracer())
        trace_ids = store.trace_ids()
        # exactly one trace per published message — the forwarding hop
        # did not fork a new trace
        assert len(trace_ids) == 2
        forwarded_report = None
        for tid in trace_ids:
            report = store.flight(tid)
            names = set(report.span_names())
            assert "fabric.publish" in names
            assert "fabric.morph" in names
            assert "fabric.deliver" in names
            assert all(span.trace_id == tid for span in report.spans)
            hops = sum(
                1 for span in report.spans if span.name == "net.deliver"
            )
            if hops >= 3:
                forwarded_report = report
        # the second message's trace shows the extra hop through the
        # old owner
        assert forwarded_report is not None
