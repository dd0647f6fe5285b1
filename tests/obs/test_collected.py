"""Collected tallies: a registry reads the counts owners keep, so what it
reports must survive the owners themselves.

* **churn** — hundreds of receivers and codec contexts built, used and
  dropped between scrapes: the shipped deltas never carry ``reset``, the
  collector's totals equal the traffic, and the registrations of the
  dropped owners do not outlive them;
* **crash and restart** — a fabric worker killed mid-stream and brought
  back keeps every counter series monotonic;
* **off and on again** — a registry reports the traffic of the
  intervals it was live in, and none of the traffic in between.
"""

from __future__ import annotations

import gc
import json

from repro import obs
from repro.fabric import JournalStore
from repro.morph.receiver import MorphReceiver
from repro.obs import OBS
from repro.obs import metrics
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_recovery import CrashDeployment

TICK = IOFormat("Tick", [IOField("n", "integer")])


def _drive(count: int) -> MorphReceiver:
    """A fresh receiver and context, *count* ticks through them."""
    receiver = MorphReceiver(FormatRegistry())
    receiver.register_handler(TICK, lambda record: None)
    context = PBIOContext(receiver.registry)
    for n in range(count):
        receiver.process(context.encode(TICK, {"n": n}))
    return receiver


def _registered(*kinds: type) -> list:
    """The live registrations whose owner is one of *kinds*."""
    return [
        owner
        for ref, *_ in list(metrics._owners.values())
        if ref is not None and isinstance(owner := ref(), kinds)
    ]


def _resets(records) -> list:
    return [
        key
        for record in records
        for key, entry in json.loads(record["metrics"]).items()
        if entry.get("reset")
    ]


class TestOwnerChurn:
    ROUNDS = 10
    OWNERS = 50  # receivers (and as many contexts) per round
    TICKS = 3

    def test_dropped_owners_leave_their_counts_and_nothing_else(self):
        obs.enable()
        shipped = []
        agent = TelemetryAgent(lambda fmt, record: shipped.append(record),
                               "churn")
        collector = TelemetryCollector()
        for round_ in range(self.ROUNDS):
            for _ in range(self.OWNERS):
                _drive(self.TICKS)
            gc.collect()
            collector.ingest(agent.scrape(now=float(round_)))

        assert _resets(shipped) == []
        processed = self.ROUNDS * self.OWNERS * self.TICKS
        assert collector.total("morph.receiver.messages") == processed
        assert collector.total("pbio.encode.messages") == processed
        assert OBS.metrics.counter("morph.receiver.messages").value == (
            processed
        )
        # ... and the 1000 registrations went with their owners
        gc.collect()
        assert len(OBS.metrics) > 0  # a read folds what was collected
        assert _registered(MorphReceiver, PBIOContext) == []
        assert all(
            ref is None or ref() is not None
            for ref, *_ in metrics._owners.values()
        )

    def test_a_live_owner_stays_registered(self):
        receiver = _drive(2)
        gc.collect()
        assert len(OBS.metrics) == 0  # obs off: nothing reported
        assert receiver in _registered(MorphReceiver)
        assert receiver.stats.messages == 2


class TestCrashAndRestart:
    def test_a_restarted_worker_keeps_every_series_monotonic(self):
        obs.enable()
        shipped = []
        agent = TelemetryAgent(lambda fmt, record: shipped.append(record),
                               "fleet")
        d = CrashDeployment(journal=JournalStore())
        victim_address, victim = d.victim()
        processed_before = victim.processed
        snapshots = []

        def scrape() -> None:
            agent.scrape(now=d.net.now)
            snapshots.append(OBS.metrics.snapshot())

        d.publish(8)
        d.pump(2)  # partial drain: admitted work in flight
        scrape()
        d.fabric.crash_worker(victim_address)
        gc.collect()  # the crash dropped the victim's channels
        scrape()
        d.publish(8, only=d.channels[0])
        d.pump(18)  # lease expiry, successor recovery, redrives
        scrape()
        victim.restart()
        d.fabric.directory.join(victim)
        d.publish(8)
        d.pump(10)
        d.net.run()
        scrape()

        assert d.sub.delivered == d.sent
        assert victim.processed > processed_before
        assert _resets(shipped) == []
        for earlier, later in zip(snapshots, snapshots[1:]):
            for key, entry in earlier.items():
                if entry["kind"] == "counter":
                    assert later[key]["value"] >= entry["value"], key
        last = snapshots[-1]
        assert sum(
            entry["value"] for key, entry in last.items()
            if key.startswith("fabric.recovery.shards")
        ) > 0


class TestOffAndOnAgain:
    def test_only_the_enabled_intervals_are_reported(self):
        registry = obs.Registry()
        receiver = _drive(0)
        context = PBIOContext(receiver.registry)

        def ticks(count: int) -> None:
            for n in range(count):
                receiver.process(context.encode(TICK, {"n": n}))

        obs.enable(registry=registry)
        ticks(5)
        obs.disable()
        ticks(7)
        assert registry.counter("morph.receiver.messages").value == 5
        obs.enable(registry=registry)
        ticks(3)
        assert receiver.stats.messages == 15
        assert registry.counter("morph.receiver.messages").value == 8
        assert registry.counter("pbio.encode.messages",
                                path="specialized").value == 8 - 1
