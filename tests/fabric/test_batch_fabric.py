"""Fabric ``publish_batch`` — batched publishes through the sharded
worker fleet.

One BATCH1 frame carries the whole group to the channel's owner; each
contained event keeps its own ``FABRIC_PUBLISH`` envelope and sequence
number, so the ledger-backed exactly-once guarantee — and its survival
across loss, retransmitted frames and mid-flight shard handoff — is
per *message*, never per frame.
"""

import random

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
from repro.obs.tracing import find_spans
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_fabric import v2_record


def make_registry():
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


def batched_fleet(net_seed=7, loss_rate=0.15):
    net = Network(
        seed=net_seed,
        default_link=LinkSpec(latency=0.002, loss_rate=loss_rate, jitter=0.5),
    )
    fabric = EventFabric(net, registry=make_registry(), reliable=True)
    fabric.add_worker("w1")
    fabric.add_worker("w2")
    pub = fabric.client("pub")
    sub1 = fabric.client("sub-v1")
    sub0 = fabric.client("sub-v0")
    got1, got0 = [], []
    sub1.subscribe("batch/ch", RESPONSE_V1,
                   lambda c, p, s, r: got1.append(s))
    sub0.subscribe("batch/ch", RESPONSE_V0,
                   lambda c, p, s, r: got0.append(s))
    net.run()
    return net, fabric, pub, (sub1, got1), (sub0, got0)


class TestBatchedPublishExactlyOnce:
    def test_lossy_fabric_delivers_each_batched_event_once(self):
        net, _fabric, pub, (sub1, got1), (sub0, got0) = batched_fleet()
        total = 40
        for start in range(0, total, 8):
            seqs = pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(8)],
            )
            assert seqs == list(range(start + 1, start + 9))
        net.run()
        assert pub.published == total
        for sub, got in ((sub1, got1), (sub0, got0)):
            assert sub.delivered == total
            assert sub.duplicates == 0
            assert sorted(got) == list(range(1, total + 1))
            ledger = sub.received[("batch/ch", "pub")]
            assert ledger.high == total
            assert not ledger.sparse

    def test_handoff_drains_in_flight_batches_without_loss(self):
        """Batched frames in flight while the channel's shard moves to a
        new owner: the drain-and-forward handoff must keep every
        contained message exactly-once."""
        net, fabric, pub, (sub1, got1), (sub0, got0) = batched_fleet(
            net_seed=13
        )
        rng = random.Random(4)
        published = 0
        next_worker = 3
        active = ["w1", "w2"]
        for _round in range(5):
            pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(6)],
            )
            published += 6
            # churn while the frame (and its retransmits) are in flight
            net.run(max_time=net.now + 0.05)
            if len(active) <= 2 or rng.random() < 0.5:
                address = f"w{next_worker}"
                next_worker += 1
                fabric.add_worker(address)
                active.append(address)
            else:
                address = rng.choice(active)
                fabric.remove_worker(address)
                active.remove(address)
            net.run(max_time=net.now + 0.05)
        net.run()
        for sub, got in ((sub1, got1), (sub0, got0)):
            assert sub.delivered == published
            assert sub.duplicates == 0
            assert sorted(got) == list(range(1, published + 1))

    def test_batched_and_single_publishes_interleave(self):
        net, _fabric, pub, (sub1, got1), _ = batched_fleet(loss_rate=0.0)
        pub.publish("batch/ch", RESPONSE_V2, v2_record("batch/ch"))
        pub.publish_batch(
            "batch/ch", RESPONSE_V2,
            [v2_record("batch/ch") for _ in range(3)],
        )
        pub.publish("batch/ch", RESPONSE_V2, v2_record("batch/ch"))
        net.run()
        assert sorted(got1) == [1, 2, 3, 4, 5]
        assert sub1.duplicates == 0


class TestBatchedPublishTraceContinuity:
    def test_frame_level_trace_reaches_every_delivery_span(self):
        obs.enable(registry=obs.Registry(), sample_every=1)
        try:
            net, _fabric, pub, _, _ = batched_fleet(loss_rate=0.0)
            pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(4)],
            )
            net.run()
            tree = obs.get_tracer().tree()
            publishes = find_spans(tree, "fabric.publish_batch")
            delivers = find_spans(tree, "fabric.deliver")
            assert len(publishes) == 1
            trace_id = publishes[0].get("trace_id")
            assert trace_id is not None
            # 4 events x 2 subscribers, all on the frame's trace
            assert len(delivers) == 8
            assert {d.get("trace_id") for d in delivers} == {trace_id}
        finally:
            obs.disable(reset=True)
