"""Chunked handoff snapshots and hardened snapshot ingestion.

A hot shard accumulates per-channel subscriber lists and per-publisher
ledgers; shipping that as one message made snapshot size unbounded.
``begin_handoff`` now splits the snapshot into bounded-size parts at
channel granularity and the successor reassembles them, acking only
when all parts of the epoch have landed.  The ingestion side
(``SeqLedger.from_state`` and ``load_state``) turns every
structural surprise in network- or disk-derived state into a clean
:class:`~repro.errors.FabricError` rather than a ``KeyError`` or a
silently-merged bogus ledger — and no field of that state bounds a loop:
a ledger the worker already holds is merged in O(|sparse|).
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.echo.protocol import RESPONSE_V0, RESPONSE_V2
from repro.errors import FabricError
from repro.fabric import EventFabric
from repro.fabric.hashing import shard_of
from repro.fabric.protocol import FABRIC_HANDOFF
from repro.fabric.state import load_state
from repro.fabric.worker import SeqLedger
from repro.net.link import LinkSpec
from repro.net.transport import Network

from tests.fabric.test_fabric import v2_record
from tests.fabric.test_shard_state import (
    MALFORMED_CHANNELS,
    MALFORMED_LEDGERS,
    make_registry,
)


def colliding_channels(count, num_shards):
    """Channel ids that all hash to one shard — a genuinely *hot* shard
    whose snapshot cannot fit one bounded part."""
    by_shard = {}
    candidate = 0
    while True:
        channel_id = f"bulk/{candidate}"
        candidate += 1
        shard = shard_of(channel_id, num_shards)
        group = by_shard.setdefault(shard, [])
        group.append(channel_id)
        if len(group) == count:
            return group


class TestChunkedHandoff:
    def test_large_shard_snapshot_travels_in_multiple_parts(self):
        """Regression: a shard with many busy channels hands off in
        bounded parts, and exactly-once still holds end to end."""
        net = Network(seed=9, default_link=LinkSpec(latency=0.001))
        fabric = EventFabric(net, registry=make_registry())
        w1 = fabric.add_worker("w1", handoff_chunk_bytes=256)
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        channels = colliding_channels(6, fabric.directory.num_shards)
        for channel_id in channels:
            sub.subscribe(channel_id, RESPONSE_V0,
                          lambda c, p, s, r: got.append((c, s)))
        net.run()
        for round_no in range(3):
            for channel_id in channels:
                pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert len(got) == 18

        # the join forces every shard w1 loses to hand off its state
        w2 = fabric.add_worker("w2", handoff_chunk_bytes=256)
        net.run()
        assert w1.handoffs_sent > 0
        # bounded parts: with a 256-byte target and six busy channels
        # on one shard, that shard's snapshot had to split
        assert w1.handoff_parts_sent > w1.handoffs_sent
        assert w2.handoffs_received > 0

        # the migrated ledgers still dedupe and stay gapless
        for channel_id in channels:
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert len(got) == 24
        assert len(set(got)) == 24
        for channel_id in channels:
            seqs = sorted(s for c, s in got if c == channel_id)
            assert seqs == [1, 2, 3, 4]
        assert sub.duplicates == 0

    def test_default_chunk_size_keeps_small_shards_single_part(self):
        net = Network(seed=3, default_link=LinkSpec(latency=0.001))
        fabric = EventFabric(net, registry=make_registry())
        w1 = fabric.add_worker("w1")
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        sub.subscribe("solo/0", RESPONSE_V0, lambda c, p, s, r: None)
        net.run()
        pub.publish("solo/0", RESPONSE_V2, v2_record("solo/0"))
        net.run()
        fabric.add_worker("w2")
        net.run()
        # every snapshot fit the default target: one part per handoff
        assert w1.handoff_parts_sent == w1.handoffs_sent

    def test_chunk_state_splits_at_channel_granularity(self):
        net = Network(seed=1)
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w1", handoff_chunk_bytes=120)
        state = {"channels": {
            f"c/{i}": {
                "subscribers": [[f"sub-{i}", 7]],
                "ledgers": {"pub": {"high": i, "sparse": []}},
            }
            for i in range(6)
        }}
        parts = worker._chunk_state(state)
        assert len(parts) > 1
        merged = {}
        for part in parts:
            decoded = json.loads(part)
            assert set(decoded) == {"channels"}
            merged.update(decoded["channels"])
        assert merged == state["channels"]

    def test_empty_shard_yields_exactly_one_part(self):
        net = Network(seed=1)
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w1", handoff_chunk_bytes=64)
        parts = worker._chunk_state({"channels": {}})
        assert parts == ['{"channels": {}}']

    def test_oversized_single_channel_still_travels_whole(self):
        net = Network(seed=1)
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w1", handoff_chunk_bytes=32)
        state = {"channels": {"big/0": {
            "subscribers": [[f"sub-{i}", i] for i in range(20)],
            "ledgers": {},
        }}}
        parts = worker._chunk_state(state)
        assert len(parts) == 1
        assert json.loads(parts[0]) == state


class TestLedgerStateHardening:
    @pytest.mark.parametrize("state", MALFORMED_LEDGERS)
    def test_malformed_state_raises_fabric_error(self, state):
        with pytest.raises(FabricError):
            SeqLedger.from_state(state)

    def test_valid_state_round_trips(self):
        ledger = SeqLedger()
        for seq in (1, 2, 3, 7, 9):
            ledger.admit(seq)
        rebuilt = SeqLedger.from_state(ledger.to_state())
        assert rebuilt.to_state() == ledger.to_state()
        # duplicates of everything admitted are still rejected
        for seq in (1, 2, 3, 7, 9):
            assert not rebuilt.admit(seq)


class TestSnapshotIngestionHardening:
    def _worker(self):
        net = Network(seed=1)
        fabric = EventFabric(net, registry=make_registry())
        return fabric.add_worker("w1")

    @pytest.mark.parametrize("channels_state", MALFORMED_CHANNELS + [
        # a key JSON cannot carry, so not in the three-door table
        {42: {"subscribers": [], "ledgers": {}}},
    ])
    def test_malformed_snapshot_raises_fabric_error(self, channels_state):
        worker = self._worker()
        with pytest.raises(FabricError):
            worker._install_channels(
                load_state({"channels": channels_state}))
        assert worker._channels == {}

    def test_wellformed_snapshot_installs_and_merges(self):
        worker = self._worker()
        format_id = worker.registry.register(RESPONSE_V0)
        worker._install_channels(load_state({"channels": {"c/0": {
            "subscribers": [["sub-a", format_id]],
            "ledgers": {"pub": {"high": 2, "sparse": [4]}},
        }}}))
        channel = worker._channels["c/0"]
        assert ["sub-a", format_id] in [
            list(s) for s in channel.subscribers()
        ]
        ledger = channel.ledgers["pub"]
        assert not ledger.admit(2)   # already admitted
        assert not ledger.admit(4)   # sparse entry preserved
        assert ledger.admit(3)       # the gap is genuinely open


class TestLedgerMerge:
    """``SeqLedger.merge`` is "admit everything the other admitted"
    without counting up to anybody's high-water mark."""

    @staticmethod
    def _by_admitting(held, other):
        reference = SeqLedger(held.high, held.sparse)
        for seq in list(range(1, other.high + 1)) + sorted(other.sparse):
            reference.admit(seq)
        return reference.to_state()

    def test_merge_equals_admitting_everything_the_other_admitted(self):
        rng = random.Random(19)
        table = [
            # the other's sparse run closes the gap above our high mark
            ((3, {7}), (0, {4, 5, 6})),
            ((3, {5, 6}), (4, set())),
            ((0, set()), (0, set())),
            ((9, set()), (2, {4, 11})),
        ]
        for _ in range(200):
            pair = []
            for _side in range(2):
                high = rng.randrange(0, 12)
                sparse = {
                    seq for seq in rng.sample(range(1, 24), rng.randrange(6))
                    if seq > high + 1
                }
                pair.append((high, sparse))
            table.append(tuple(pair))
        for (high, sparse), (other_high, other_sparse) in table:
            held = SeqLedger(high, sparse)
            other = SeqLedger(other_high, other_sparse)
            expected = self._by_admitting(held, other)
            held.merge(other)
            assert held.to_state() == expected, (high, sparse, other.to_state())
            assert other.to_state() == {
                "high": other_high, "sparse": sorted(other_sparse),
            }

    def test_a_high_mark_off_the_network_bounds_no_loop(self, monkeypatch):
        """Regression: merging onto a held ledger used to ``admit`` every
        number up to the incoming high-water mark, so a 60-byte handoff
        part saying ``10**15`` stalled the worker for good."""
        net = Network(seed=1)
        fabric = EventFabric(net, registry=make_registry())
        worker = fabric.add_worker("w1")
        shard = shard_of("c/0", fabric.directory.num_shards)
        worker._channel("c/0").ledgers["pub"] = SeqLedger(5)
        admits = []
        real_admit = SeqLedger.admit
        monkeypatch.setattr(
            SeqLedger, "admit",
            lambda self, seq: admits.append(seq) or real_admit(self, seq),
        )
        record = FABRIC_HANDOFF.make_record(
            shard=shard, epoch=fabric.directory.epoch + 1, part=0, parts=1,
            state=json.dumps({"channels": {"c/0": {"ledgers": {
                "pub": {"high": 10 ** 15, "sparse": []},
            }}}}),
        )
        install = threading.Thread(
            target=worker._on_handoff, args=("peer", record), daemon=True
        )
        net.add_node("peer")
        install.start()
        install.join(5)
        assert not install.is_alive(), "the install is counting to 10**15"
        assert worker._channels["c/0"].ledgers["pub"].high == 10 ** 15
        assert admits == []
