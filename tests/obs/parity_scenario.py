"""The observed-fabric scenario ``test_cost_parity.py`` holds against a
golden: what ``repro.obs`` records for a fixed piece of fabric traffic.

Seeded ids, sim transport, 2 workers, V2/V1/V0 subscribers on 4
channels, a telemetry agent per worker and a collector — the
``fabric_obs`` benchmark shape at test size.  Only the public API is
used, so the same file runs against any commit::

    PYTHONPATH=<checkout>/src python tests/obs/parity_scenario.py OUT.json

writes the fingerprint of that checkout.  ``cost_parity_golden.json``
was written this way on the parent of the PR that made observation
cheaper (and once more when the owner's groups began to share stage
results and so to record the staged names instead of the fused ones,
and again when coders began to be generated on a format's second use),
and is the referee for "same counters, same spans".  It predates head
sampling, so it is what ``sample_every=1`` must reproduce: a second
argument sets the rate (``... OUT.json 1``; without one ``obs.enable()``
is called bare, which is all an older checkout understands), a third
adds the per-trace detail the sampled run is compared on.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from typing import Any, Dict, List

from repro import obs
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.fabric import EventFabric, JournalStore
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector
from repro.obs.metrics import Registry
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry

CHANNELS = 4
SINGLES = 256
BATCHES = 2
BATCH_SIZE = 16
READERS = (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0)


def _records(rng: random.Random, count: int) -> List[Record]:
    out = []
    for _ in range(count):
        members = [
            Record(info=f"host-{rng.randrange(10**6):06d}:{4000 + i}",
                   ID=rng.randrange(1, 2**31),
                   is_Source=i % 3 != 0, is_Sink=i % 2 == 0)
            for i in range(6 + rng.randrange(5))
        ]
        out.append(Record(channel_id=f"ch-{rng.randrange(10**6):06d}",
                          member_count=len(members), member_list=members))
    return out


class Scenario:
    """One observed fleet.  The caller turns ``repro.obs`` on first."""

    def __init__(self, journal_path: str, seed: int = 0) -> None:
        obs.seed_ids(seed)
        self.rng = random.Random(seed)
        self.pool = _records(self.rng, 32)
        self.net = Network(default_link=LinkSpec(latency=0.0005))
        registry = FormatRegistry()
        for fmt in READERS:
            registry.register(fmt)
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        self.fabric = EventFabric(
            self.net, registry=registry, reliable=True,
            journal=JournalStore(path=journal_path),
        )
        self.workers = [self.fabric.add_worker(f"w{i}") for i in range(2)]
        self.net.run()
        self.publishers = [self.fabric.client(f"pub{i}") for i in range(2)]
        self.channels = [f"parity/{i}" for i in range(CHANNELS)]
        self.delivered = 0
        for index, fmt in enumerate(READERS):
            client = self.fabric.client(f"sub{index}")
            for channel in self.channels:
                client.subscribe(channel, fmt, self._on_event)
        collector = TelemetryCollector(clock=self.net)
        collector.subscribe_fabric(self.fabric.client("monitor"))
        # The agents ship a registry of their own, so the telemetry
        # payload (and every byte counter it moves) does not depend on
        # the wall-clock sums in the live one.
        shipped = Registry()
        shipped.counter("parity.heartbeats").inc()
        for worker in self.workers:
            worker.attach_telemetry(TelemetryAgent.over_fabric(
                self.fabric.client(f"agent-{worker.address}"),
                worker=worker.address, interval=1.0, registry=shipped,
            ))
        self.net.run()
        self.published = 0

    def _on_event(self, channel: str, publisher: str, seq: int,
                  record: Any) -> None:
        self.delivered += 1

    def publish(self, count: int) -> None:
        """*count* single publishes, each drained to quiescence."""
        for _ in range(count):
            n = self.published
            client = self.publishers[n % 2]
            client.publish(self.channels[(n // 2) % CHANNELS], RESPONSE_V2,
                           self.pool[n % len(self.pool)])
            self.published += 1
            self.net.run()

    def publish_batches(self, count: int, size: int = BATCH_SIZE) -> None:
        for _ in range(count):
            n = self.published
            records = [self.pool[(n + i) % len(self.pool)]
                       for i in range(size)]
            self.publishers[n % 2].publish_batch(
                self.channels[(n // 2) % CHANNELS], RESPONSE_V2, records
            )
            self.published += size
            self.net.run()

    def scrape(self) -> None:
        for worker in self.workers:
            worker.heartbeat()
        self.net.run()


def record_all_spans(tracer: Any) -> List[Any]:
    """Every span *tracer* records from now on, ring evictions or not."""
    spans: List[Any] = []
    record = tracer.record

    def keep(span: Any) -> None:
        spans.append(span)
        record(span)

    tracer.record = keep
    return spans


def fingerprint(registry: Registry, spans: List[Any]) -> Dict[str, Any]:
    """What was recorded, with everything a clock decides left out:
    counter values and histogram counts per instrument (gauges by
    presence only), and spans by (name, parent's name, traced?,
    remote parent?)."""
    instruments = {}
    for instrument in registry.instruments():
        key = instrument.name + instrument.label_suffix()
        if instrument.kind == "counter":
            instruments[key] = ["counter", instrument.value]
        elif instrument.kind == "histogram":
            instruments[key] = ["histogram", instrument.count]
        else:
            instruments[key] = ["gauge", None]
    names = {span.span_id: span.name for span in spans}
    return {"instruments": instruments, "spans": _shapes(spans, names)}


def _shapes(spans: List[Any], names: Dict[int, str]) -> Dict[str, int]:
    shapes = Counter(
        "|".join((
            span.name,
            names.get(span.parent_id, "-"),
            "traced" if span.trace_id is not None else "untraced",
            "remote" if span.remote_parent is not None else "local",
        ))
        for span in spans
    )
    return dict(sorted(shapes.items()))


def by_trace(registry: Registry, spans: List[Any]) -> Dict[str, Any]:
    """The same shapes one trace at a time — traces in the order they
    were first seen, which is the order their messages were published —
    and the traces the histogram exemplars point at."""
    names = {span.span_id: span.name for span in spans}
    members: Dict[int, List[Any]] = {}
    for span in spans:
        if span.trace_id is not None:
            members.setdefault(span.trace_id, []).append(span)
    exemplars = {
        traceparent.split("-")[1]
        for instrument in registry.instruments()
        if instrument.kind == "histogram"
        for _edge, traceparent in instrument.exemplars()
    }
    return {
        "traces": [
            {"trace_id": f"{trace_id:032x}", "spans": _shapes(own, names)}
            for trace_id, own in members.items()
        ],
        "exemplar_traces": sorted(exemplars),
    }


def run(journal_path: str, detail: bool = False,
        **enable: Any) -> Dict[str, Any]:
    """The golden run: 256 single publishes, 2 batches of 16, one scrape
    — observed as ``obs.enable(**enable)`` says."""
    obs.disable(reset=True)
    obs.enable(**enable)
    try:
        spans = record_all_spans(obs.OBS.tracer)
        scenario = Scenario(journal_path)
        scenario.publish(SINGLES)
        scenario.publish_batches(BATCHES)
        scenario.scrape()
        out = fingerprint(obs.OBS.metrics, spans)
        out["delivered"] = scenario.delivered
        out["recorded_total"] = obs.OBS.tracer.recorded_total
        out["dropped"] = obs.OBS.tracer.dropped
        if detail:
            out.update(by_trace(obs.OBS.metrics, spans))
        return out
    finally:
        obs.disable(reset=True)


if __name__ == "__main__":
    import tempfile

    enable = {"sample_every": int(sys.argv[2])} if len(sys.argv) > 2 else {}
    with tempfile.TemporaryDirectory() as work:
        result = run(work + "/journal.jsonl", detail=len(sys.argv) > 3,
                     **enable)
    with open(sys.argv[1], "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
