"""Crash-leave recovery — the tentpole acceptance scenarios.

A worker that SIGKILLs mid-stream never snapshots anything; the lease
checker declares it dead, a successor takes its shards under a bumped
ownership epoch, recovers exactly-once state from the shared ledger
journal (re-fanning-out the admitted-but-possibly-undelivered tail),
and publishers ride out the outage on bounded client-side buffers.

The A/B contract these tests pin: **with** journaling a mid-stream kill
loses zero admitted events and admits zero stale-epoch publishes;
**without** it (the ablation arm) the same seed demonstrably loses
events.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.errors import FabricError
from repro.fabric import EventFabric, JournalStore, shard_of
from repro.fabric import client as client_module
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_fabric import v2_record


def make_registry():
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


def _noop():
    pass


class CrashDeployment:
    """Three journaled workers, one publisher, one V0 subscriber on
    four channels — the miniature the recovery tests share."""

    RELIABLE = {"base_timeout": 0.02, "max_retries": 5}

    def __init__(self, seed=7, journal=None, lease_timeout=0.6):
        self.net = Network(
            seed=seed,
            default_link=LinkSpec(
                latency=0.002, loss_rate=0.05, jitter=0.005
            ),
        )
        self.fabric = EventFabric(
            self.net, registry=make_registry(),
            journal=journal, lease_timeout=lease_timeout,
        )
        self.workers = {
            address: self.fabric.add_worker(
                address, reliable_options=dict(self.RELIABLE)
            )
            for address in ("w1", "w2", "w3")
        }
        self.pub = self.fabric.client(
            "pub", reliable_options=dict(self.RELIABLE)
        )
        self.sub = self.fabric.client(
            "sub", reliable_options=dict(self.RELIABLE)
        )
        self.channels = [f"crash/{i}" for i in range(4)]
        self.got = []
        for channel_id in self.channels:
            self.sub.subscribe(
                channel_id, RESPONSE_V0,
                lambda c, p, s, r: self.got.append((c, s)),
            )
        self.sent = 0
        self.pump(4)  # install subscriptions fleet-wide

    def pump(self, steps, step=0.05):
        # Heartbeats are driven here, not by recurring timers, so the
        # simulated network can still fully quiesce at the end.
        for _ in range(steps):
            for worker in self.workers.values():
                worker.heartbeat()
            self.fabric.directory.check_leases()
            self.net.call_later(step, _noop)
            self.net.run(max_time=self.net.now + step)

    def publish(self, count, only=None):
        for _ in range(count):
            channel_id = (
                only if only is not None
                else self.channels[self.sent % len(self.channels)]
            )
            self.pub.publish(
                channel_id, RESPONSE_V2, v2_record(channel_id)
            )
            self.sent += 1

    def victim(self):
        address = self.fabric.directory.owner(self.channels[0])
        return address, self.workers[address]


class TestKillRecovery:
    def test_journaled_kill_mid_stream_loses_nothing(self):
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        d.publish(8)
        d.pump(2)  # partial drain: leave admitted work in flight
        d.fabric.crash_worker(victim_address)
        d.publish(8, only=d.channels[0])  # outage traffic
        d.pump(18)  # lease expiry + successor recovery + redrives
        assert victim_address not in d.fabric.directory.workers
        victim.restart()
        d.fabric.directory.join(victim)
        d.pump(10)
        d.net.run()

        # exactly-once at the sink across the crash
        assert d.sub.delivered == d.sent
        assert len(set(d.got)) == len(d.got)
        per_channel = {
            channel_id: sorted(s for c, s in d.got if c == channel_id)
            for channel_id in d.channels
        }
        for channel_id, seqs in per_channel.items():
            assert seqs == list(range(1, len(seqs) + 1)), channel_id
        # no buffered publish was abandoned
        assert d.pub.dropped == 0
        # the successor actually recovered from the journal
        fleet = d.workers.values()
        assert sum(w.recovered_shards for w in fleet) > 0

    def test_a_crashed_owner_runs_no_publish_its_endpoint_buffered(
            self, monkeypatch):
        # Two publishes wait in the owner's reorder buffer behind a lost
        # one — the publisher retired them on the range ack — when the
        # owner crashes.  Its stall timeout (1.6 s here) falls while it is
        # down: a dead process must neither handle nor forward them, and
        # after restart and rejoin every publish reaches the subscriber
        # exactly once.
        d = CrashDeployment(journal=JournalStore())
        d.net.default_link = LinkSpec(latency=0.002)  # lossless from here
        victim_address, victim = d.victim()
        handled = []
        on_segments = victim._on_segments
        monkeypatch.setattr(victim, "_on_segments", lambda source, segments: (
            handled.append(victim.crashed) or on_segments(source, segments)))
        send, lost = d.net.send, []

        def lose_one_publish(source, destination, data):
            if (source, destination) == ("pub", victim_address) and (
                    data[:5] == b"RLP1\x00"):  # a data frame
                if not lost:
                    lost.append(data[5:13])  # the first publish's seq
                if data[5:13] == lost[0]:
                    return d.net.now  # every transmission of it
            return send(source, destination, data)

        monkeypatch.setattr(d.net, "send", lose_one_publish)
        reordered = victim.reliable.reordered
        d.publish(3, only=d.channels[0])
        d.net.run(max_time=d.net.now + 0.01)
        assert victim.reliable.reordered - reordered == 2
        assert d.pub.reliable.in_flight == 1
        handled.clear()
        sent = victim.reliable.sent
        d.fabric.crash_worker(victim_address)
        d.pump(60)  # lease expiry, the successor, the publisher's redrive
        assert handled == [] and victim.reliable.sent == sent
        victim.restart()
        d.fabric.directory.join(victim)
        d.publish(8)
        d.pump(40)
        d.net.run()
        assert handled and not any(handled)
        assert d.sub.delivered == d.sent == 11
        assert len(set(d.got)) == len(d.got)
        for channel_id in d.channels:
            seqs = sorted(s for c, s in d.got if c == channel_id)
            assert seqs == list(range(1, len(seqs) + 1)), channel_id

    def test_a_resubscribe_survives_journaled_recovery(self):
        """The successor replays the journal's subscribe entries: the
        contact that moved from v0.0 to v1.0 is in the v1.0 group only,
        so each later event reaches it once and decodes."""
        d = CrashDeployment(journal=JournalStore())
        channel_id = d.channels[0]
        d.sub.subscribe(channel_id, RESPONSE_V1,
                        lambda c, p, s, r: d.got.append((c, s, "v1")))
        d.pump(4)
        victim_address, _victim = d.victim()
        d.fabric.crash_worker(victim_address)
        d.pump(18)  # lease expiry + successor recovery
        assert victim_address not in d.fabric.directory.workers
        d.publish(3, only=channel_id)
        d.pump(10)
        d.net.run()
        assert d.got == [(channel_id, seq, "v1") for seq in (1, 2, 3)]
        assert (d.sub.errors, d.sub.duplicates) == (0, 0)
        owner = d.workers[d.fabric.directory.owner(channel_id)]
        assert owner.recovered_shards > 0
        assert owner._channels[channel_id].subscribers() == [
            ("sub", RESPONSE_V1.format_id)]

    def test_lease_expiry_bumps_epoch_and_records_death(self):
        d = CrashDeployment(journal=JournalStore())
        victim_address, _ = d.victim()
        epoch_before = d.fabric.directory.epoch
        d.fabric.crash_worker(victim_address)
        d.pump(18)
        assert victim_address not in d.fabric.directory.workers
        assert d.fabric.directory.epoch > epoch_before
        assert (d.fabric.directory.epoch, victim_address) in [
            (e, a) for e, a in d.fabric.directory.deaths
        ] or d.fabric.directory.deaths  # at least one death recorded
        assert d.fabric.directory.lease_expirations == 1
        # the moved shards' fencing floor is the takeover epoch
        for shard, owner in d.fabric.directory.assignment.items():
            assert owner != victim_address
            assert d.fabric.directory.shard_epoch(shard) <= (
                d.fabric.directory.epoch
            )

    def test_heartbeat_never_resurrects_an_expired_worker(self):
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        d.fabric.crash_worker(victim_address)
        d.pump(18)
        assert victim_address not in d.fabric.directory.workers
        victim.restart()
        # a bare heartbeat is rejected: rejoin must be explicit
        assert victim.heartbeat() is False
        assert d.fabric.directory.lease_rejections >= 1
        assert victim_address not in d.fabric.directory.workers

    def test_restart_requires_a_crash(self):
        d = CrashDeployment()
        _, victim = d.victim()
        with pytest.raises(FabricError):
            victim.restart()

    def test_crash_is_idempotent_and_observable(self):
        d = CrashDeployment()
        victim_address, victim = d.victim()
        d.fabric.crash_worker(victim_address)
        assert victim.crashed
        victim.crash()  # second crash is a no-op
        assert victim.owned_shards() == []
        assert victim.heartbeat() is False


class TestRunWriteAhead:
    def test_crash_between_journal_group_and_sends_replays_the_run(
        self, tmp_path
    ):
        """The write-ahead point of a run is the journal write that
        opens its burst's flush.  Kill the owner right after it, in the
        run's fan-out — all 64 admissions on file, not one delivery
        sent — and the successor's tail replay is the only copy left."""
        path = tmp_path / "fabric.journal"
        d = CrashDeployment(journal=JournalStore(path=str(path)))
        victim_address, victim = d.victim()
        channel_id = d.channels[0]
        victim._fan_out = lambda channel, run, *trace: d.fabric.crash_worker(
            victim_address
        )
        seqs = d.pub.publish_batch(
            channel_id, RESPONSE_V2, [v2_record(channel_id) for _ in range(64)]
        )
        d.pump(2)
        assert victim.crashed and victim.processed == 64
        assert d.got == []
        shard = shard_of(channel_id, d.fabric.directory.num_shards)
        durable = JournalStore(path=str(path)).recover(shard).tail
        assert [seq for _c, _p, seq, _r in durable] == seqs
        d.pump(18)  # lease expiry + successor recovery
        d.net.run()
        # (if the frame's ack was lost the publisher redrives the whole
        # frame; the recovered ledgers then drop all 64 as duplicates)
        survivors = [w for w in d.workers.values() if w is not victim]
        assert sum(w.tail_replayed for w in survivors) == 64
        assert sorted(d.got) == [(channel_id, seq) for seq in seqs]
        assert d.sub.delivered == 64 and d.sub.duplicates == 0


    @pytest.mark.parametrize("sent", [False, True])
    def test_crash_around_the_burst_flush_replays_the_held_deliveries(
        self, tmp_path, sent
    ):
        """Single publishes are admitted and journaled as they arrive;
        their deliveries wait for the burst's flush.  Kill the owner in
        that flush — before any delivery left, or right after they all
        did — and the successor's tail replay gives each of two
        subscribers every admitted event once: what had landed comes
        back as duplicates, which the subscribers' ledgers count.  A
        journal that compacts at every admission still holds the tail
        of deliveries that never left: compaction waits for the flush."""
        d = CrashDeployment(journal=JournalStore(
            path=str(tmp_path / "fabric.journal"),
            **({} if sent else {"compact_every": 1})))
        channel_id = d.channels[0]
        got2 = []
        sub2 = d.fabric.client("sub2", reliable_options=dict(d.RELIABLE))
        sub2.subscribe(channel_id, RESPONSE_V2,
                       lambda c, p, s, r: got2.append((c, s)))
        d.pump(4)
        victim_address, victim = d.victim()
        flush = victim._flush

        def crash_in_flush():
            if sent:
                flush()
            d.fabric.crash_worker(victim_address)

        victim._flush = crash_in_flush
        d.publish(8, only=channel_id)
        d.pump(2)
        assert victim.crashed
        admitted = victim.processed
        assert admitted >= 1
        if not sent:
            assert d.got == got2 == []
        d.pump(18)  # lease expiry + successor recovery
        d.net.run()
        survivors = [w for w in d.workers.values() if w is not victim]
        assert sum(w.tail_replayed for w in survivors) == admitted
        every = [(channel_id, seq) for seq in range(1, 9)]
        for sub, got in ((d.sub, d.got), (sub2, got2)):
            assert sorted(got) == every
            assert sub.delivered == 8
            landed = sub.duplicates
            assert (landed > 0) if sent else (landed == 0)


class TestBurstCommit:
    """The owner journals and fans out a receive burst's runs at the
    burst's flush: one file write holding every admit of the burst
    before any of its deliveries or acks leaves, then one fan-out per
    channel.  What reads or moves shard state before then — a
    subscribe, a handoff — fans the pending runs out first."""

    def test_the_file_holds_a_bursts_admits_before_its_first_send(
        self, tmp_path
    ):
        path = str(tmp_path / "fabric.journal")
        d = CrashDeployment(journal=JournalStore(path=path))
        victim_address, victim = d.victim()
        channel_id = d.channels[0]
        shard = shard_of(channel_id, d.fabric.directory.num_shards)
        flush, send = victim._flush, victim.node.send
        armed, checked = [], []

        def flush_armed():
            armed[:] = [victim.processed]  # every admit so far
            flush()

        def tap(destination, data):
            # the burst's first delivery, or its ack when it has none
            if armed:
                durable = JournalStore(path=path).recover(shard).tail
                checked.append(
                    ([seq for _c, _p, seq, _r in durable], armed.pop()))
            return send(destination, data)

        victim._flush = flush_armed
        victim.node.send = tap
        d.publish(8, only=channel_id)
        d.pump(4)
        d.net.run()
        assert sorted(d.got) == [(channel_id, seq) for seq in range(1, 9)]
        assert max(admitted for _durable, admitted in checked) == 8
        for durable, admitted in checked:
            assert durable == list(range(1, admitted + 1))

    def test_a_subscribe_after_publishes_in_one_burst_does_not_get_them(
        self
    ):
        net = Network(seed=7, default_link=LinkSpec(latency=0.002,
                                                    bandwidth=0))
        fabric = EventFabric(net, registry=make_registry(),
                             journal=JournalStore())
        for address in ("w1", "w2"):
            fabric.add_worker(address)
        pub, sub, late = (fabric.client(address)
                          for address in ("pub", "sub", "late"))
        channel_id = "burst/0"
        got, late_got = [], []
        sub.subscribe(channel_id, RESPONSE_V0,
                      lambda c, p, s, r: got.append(s))
        net.run()
        owner = fabric.directory.worker(fabric.directory.owner(channel_id))
        on_subscribe, seen = owner._on_subscribe, []

        def watch(*args):
            seen.append((owner.processed, list(got)))
            return on_subscribe(*args)

        owner._on_subscribe = watch
        for _ in range(4):
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        late.subscribe(channel_id, RESPONSE_V0,
                       lambda c, p, s, r: late_got.append(s))
        net.run()
        # one burst: the four publishes were admitted, none had left
        assert seen == [(4, [])]
        for _ in range(2):
            pub.publish(channel_id, RESPONSE_V2, v2_record(channel_id))
        net.run()
        assert got == [1, 2, 3, 4, 5, 6]
        assert late_got == [5, 6]

    def test_a_handoff_with_runs_pending_delivers_each_event_once(self):
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        channel_id = d.channels[0]
        flush, pending = victim._flush, []

        def leave_then_flush():
            if not pending:
                # the burst's runs wait for this flush when it leaves
                pending.append(sorted(victim._pending))
                d.fabric.remove_worker(victim_address)
            flush()

        victim._flush = leave_then_flush
        d.publish(8, only=channel_id)
        d.pump(6)
        d.net.run()
        assert pending == [[channel_id]]
        assert victim.owned_shards() == []
        assert sorted(d.got) == [(channel_id, seq) for seq in range(1, 9)]
        assert d.sub.delivered == 8 and d.sub.duplicates == 0


class TestAblationContrast:
    def test_same_seed_journal_vs_no_journal(self):
        """The acceptance A/B: identical schedule and seed, only the
        journal differs.  Journaled: zero loss.  Ablation: events are
        demonstrably lost (the successor restarts the shard empty)."""
        outcomes = {}
        for journaled in (True, False):
            d = CrashDeployment(
                journal=JournalStore() if journaled else None
            )
            victim_address, victim = d.victim()
            d.publish(8)
            d.pump(2)
            d.fabric.crash_worker(victim_address)
            d.publish(8, only=d.channels[0])
            d.pump(18)
            victim.restart()
            if victim_address not in d.fabric.directory.workers:
                d.fabric.directory.join(victim)
            d.pump(10)
            d.net.run()
            unique = len(set(d.got))
            outcomes[journaled] = {
                "published": d.sent,
                "unique": unique,
                "redelivered": len(d.got) - unique,
            }
        assert outcomes[True]["unique"] == outcomes[True]["published"]
        lost = (
            outcomes[False]["published"] - outcomes[False]["unique"]
        )
        assert lost > 0 or outcomes[False]["redelivered"] > 0
        # even in the ablation the fabric never invents deliveries
        assert outcomes[False]["unique"] <= outcomes[False]["published"]

    def test_recovery_bench_rows_pin_the_contract(self):
        from repro.bench.fabric import bench_fabric_recovery

        rows = bench_fabric_recovery(messages=24, crash_fractions=(0.5,))
        by_arm = {row.journaled: row for row in rows}
        assert by_arm[True].exactly_once
        assert by_arm[True].replayed > 0
        assert by_arm[False].lost > 0
        assert by_arm[True].unavailability_seconds > 0


class TestPartitionFencing:
    def test_resurrected_stale_owner_is_epoch_fenced(self):
        """The victim keeps serving but stops renewing its lease (a
        directory partition).  Once expired and superseded, traffic
        reaching the stale owner must be fenced, not admitted."""
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        d.publish(8)
        d.pump(2)
        victim.heartbeats_suspended = True
        d.publish(8, only=d.channels[0])
        d.pump(18)
        assert victim_address not in d.fabric.directory.workers
        # stale route: hit the partitioned owner directly post-expiry
        d.pub._channels[d.channels[0]].route = (victim_address, 0)
        d.publish(2, only=d.channels[0])
        d.pump(6)
        victim.heartbeats_suspended = False
        if victim_address not in d.fabric.directory.workers:
            d.fabric.directory.join(victim)
        d.pump(10)
        d.net.run()
        assert victim.fenced > 0
        # fencing did not cost exactly-once delivery
        assert d.sub.delivered == d.sent
        assert len(set(d.got)) == len(d.got)

    def test_journal_fences_stale_owner_appends(self):
        journal = JournalStore()
        d = CrashDeployment(journal=journal)
        victim_address, victim = d.victim()
        d.publish(8)
        d.pump(2)
        victim.heartbeats_suspended = True
        d.pump(18)
        assert victim_address not in d.fabric.directory.workers
        # the successor fenced every shard it recovered at its takeover
        # epoch, so the stale owner's epoch is now below the floor
        shards = [
            shard for shard, epoch in d.fabric.directory.shard_epochs.items()
        ]
        assert any(journal.fence_epoch(shard) > 0 for shard in shards)


class TestRecoveryObservability:
    def test_counters_cover_the_lease_and_recovery_path(self):
        registry = obs.Registry()
        obs.enable(registry=registry)
        try:
            d = CrashDeployment(journal=JournalStore())
            victim_address, victim = d.victim()
            d.publish(8)
            d.pump(2)
            d.fabric.crash_worker(victim_address)
            d.publish(4, only=d.channels[0])
            d.pump(18)
            d.net.run()
            names = {
                instrument.name
                for instrument in registry.instruments()
                if instrument.kind == "counter" and instrument.value
            }
        finally:
            obs.disable(reset=True)
        assert "fabric.lease.renewals" in names
        assert "fabric.lease.expired" in names
        assert "fabric.journal.appends" in names
        assert "fabric.recovery.shards" in names


class TestClientDegradation:
    def test_publish_buffer_is_bounded_and_drops_are_counted(
        self, monkeypatch
    ):
        monkeypatch.setattr(client_module, "PUBLISH_BUFFER_LIMIT", 2)
        monkeypatch.setattr(client_module, "REDRIVE_MAX_ATTEMPTS", 2)
        d = CrashDeployment(journal=JournalStore())
        victim_address, _ = d.victim()
        # take the whole fleet down so redrive can never succeed
        for address in list(d.workers):
            d.workers[address].crash()
        d.publish(12, only=d.channels[0])
        for _ in range(12):
            d.net.call_later(0.2, _noop)
            d.net.run(max_time=d.net.now + 0.2)
        assert d.pub.dropped > 0
        assert len(d.pub._publish_buffer) <= 2

    def test_buffered_publishes_drain_after_recovery(self):
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        d.publish(4)
        d.pump(2)
        d.fabric.crash_worker(victim_address)
        d.publish(6, only=d.channels[0])
        assert d.pub.buffered > 0 or d.pub.published == d.sent
        d.pump(18)
        d.net.run()
        assert d.pub.redrives > 0
        assert d.pub.dropped == 0
        assert d.sub.delivered == d.sent
