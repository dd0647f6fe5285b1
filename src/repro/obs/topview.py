"""The ``--top`` cluster view: demo fleet, live table rendering, smoke.

This module holds the pieces ``python -m repro.obs`` composes for the
telemetry-plane commands:

* :func:`build_cluster` — a deterministic 3-worker sharded fabric with a
  per-worker :class:`~repro.obs.agent.TelemetryAgent` piggy-backed on
  worker heartbeats, one umbrella agent shipping the process-global
  registry (the built-in ``pbio.*`` / ``morph.*`` / ``net.*`` /
  ``fabric.*`` instruments), a subscribing
  :class:`~repro.obs.collector.TelemetryCollector`, and an
  :class:`~repro.obs.slo.SloEngine` with a retransmit-ratio rule.
* :func:`render_top` — the fixed-width cluster table (sources, event
  rates, morph route hit ratio, retransmit %, journal lag, projection
  bytes saved, SLO states).
* :func:`telemetry_smoke` — the CI gate (see ``--telemetry-smoke``).

Everything runs on the simulated transport at virtual time, so the demo
and the smoke are exactly reproducible for a given seed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.fabric.journal import JournalStore
from repro.fabric.membership import EventFabric
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector, validate_cluster_state
from repro.obs.metrics import Registry
from repro.obs.slo import SloEngine
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

#: The committed contract the ``--cluster-export`` document must honor.
CLUSTER_STATE_SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    ))),
    "docs", "cluster_state.schema.json",
)

EVENT_FMT = IOFormat(
    "DemoEvent",
    [IOField("value", "integer"), IOField("tag", "string")],
    version="1.0",
)

#: The demo SLO: reliable-layer retransmit ratio over a 10 s window.
RETRANSMIT_RULE = {
    "name": "retransmit-ratio",
    "signal": {
        "kind": "ratio",
        "numerator": "net.reliable.retries",
        "denominator": "net.reliable.sends",
        "window": 10.0,
    },
    "op": ">",
    "threshold": 0.20,
    "for": 0.5,
    "resolve_for": 0.5,
    "resolve_factor": 0.75,
    "description": "reliable-layer retransmits exceed 20% of sends",
}


class DemoCluster:
    """Handles to every moving part of the demo fleet."""

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self.fabric: Optional[EventFabric] = None
        self.workers: List[Any] = []
        self.clients: List[Any] = []
        self.publisher: Optional[Any] = None
        self.local_registries: Dict[str, Registry] = {}
        self.agents: List[TelemetryAgent] = []
        self.collector: Optional[TelemetryCollector] = None
        self.engine: Optional[SloEngine] = None
        self.channels: List[str] = []
        self.transitions: List[Dict[str, Any]] = []

    def expected_channel_totals(self) -> Dict[str, int]:
        """Sum of the workers' *local* echo counters per channel — the
        ground truth the collector must converge to."""
        totals: Dict[str, int] = {}
        for registry in self.local_registries.values():
            for key, entry in registry.snapshot().items():
                if not key.startswith("echo.events{"):
                    continue
                channel = entry["labels"]["channel"]
                totals[channel] = totals.get(channel, 0) + entry["value"]
        return totals

    def flush(self, settle: float = 5.0) -> None:
        """Stop the periodic machinery, take one final scrape per agent,
        and drain the network so every delta lands in the collector."""
        assert self.network is not None
        for worker in self.workers:
            worker.stop_heartbeats()
        for agent in self.agents:
            agent.stop()
            agent.scrape(self.network.now)
        self.network.run(max_time=self.network.now + settle)


def build_cluster(
    seed: int = 11,
    num_workers: int = 3,
    num_channels: int = 6,
    scrape_interval: float = 0.05,
    heartbeat_interval: float = 0.025,
    lease_timeout: float = 0.5,
    loss_rate: float = 0.0,
    slo_rules: Optional[List[Dict[str, Any]]] = None,
) -> DemoCluster:
    """Assemble the demo fleet (no traffic yet — call :func:`drive`)."""
    cluster = DemoCluster()
    network = Network(
        seed=seed,
        default_link=LinkSpec(latency=0.0005, loss_rate=loss_rate),
    )
    cluster.network = network
    registry = FormatRegistry()
    registry.register(EVENT_FMT)
    fabric = EventFabric(
        network,
        registry=registry,
        num_shards=8,
        journal=JournalStore(compact_every=64),
        lease_timeout=lease_timeout,
    )
    cluster.fabric = fabric
    cluster.channels = [f"ch-{i}" for i in range(num_channels)]

    collector = TelemetryCollector(clock=network, stale_after=3 * scrape_interval)
    collector.attach_directory(fabric.directory)
    cluster.collector = collector
    engine = SloEngine(collector, clock=network)
    for spec in (slo_rules if slo_rules is not None else [RETRANSMIT_RULE]):
        engine.add(spec)
    cluster.engine = engine

    for index in range(num_workers):
        worker_address = f"w{index + 1}"
        worker = fabric.add_worker(worker_address)
        cluster.workers.append(worker)
        local = Registry()
        client = fabric.client(f"app-{worker_address}")
        cluster.clients.append(client)
        cluster.local_registries[client.address] = local

        def _handler(channel_id, publisher, seq, record, _local=local):
            _local.counter("echo.events", channel=channel_id).inc()

        for channel_index, channel_id in enumerate(cluster.channels):
            if channel_index % num_workers == index:
                client.subscribe(channel_id, EVENT_FMT, _handler)
        agent = TelemetryAgent.over_fabric(
            client,
            registry=local,
            worker=worker_address,
            interval=scrape_interval,
        )
        cluster.agents.append(agent)
        worker.attach_telemetry(agent)
        worker.start_heartbeats(heartbeat_interval)

    # The umbrella agent ships the process-global registry — the
    # built-in instruments (pbio/morph/net/fabric) every component in
    # this OS process records into.
    monitor = fabric.client("monitor")
    umbrella = TelemetryAgent.over_fabric(
        monitor,
        registry=obs.get_registry(),
        process="fabric-global",
        interval=scrape_interval,
    )
    cluster.agents.append(umbrella)
    umbrella.start(network)
    collector.subscribe_fabric(monitor)
    cluster.publisher = fabric.client("pub")
    network.run(max_time=network.now + 0.1)
    return cluster


def drive(
    cluster: DemoCluster,
    seconds: float = 2.0,
    events_per_step: int = 4,
    step: float = 0.05,
    on_step: Optional[Callable[[DemoCluster, float], None]] = None,
) -> None:
    """Publish round-robin traffic for *seconds* of virtual time while
    the heartbeat/scrape machinery runs, evaluating the SLO engine (and
    the optional *on_step* hook) once per step."""
    assert cluster.network is not None and cluster.publisher is not None
    network = cluster.network
    counter = 0
    deadline = network.now + seconds
    while network.now < deadline:
        for _ in range(events_per_step):
            channel = cluster.channels[counter % len(cluster.channels)]
            cluster.publisher.publish(
                channel,
                EVENT_FMT,
                EVENT_FMT.make_record(value=counter, tag=f"t{counter % 5}"),
            )
            counter += 1
        network.run(max_time=network.now + step)
        if cluster.engine is not None:
            cluster.transitions.extend(cluster.engine.evaluate(network.now))
        if on_step is not None:
            on_step(cluster, network.now)


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def _total_matching(state: Dict[str, Any], name: str) -> float:
    """Sum of counter totals whose metric name is *name* (any labels)."""
    total = 0.0
    for key, entry in state["totals"].items():
        if key.split("{", 1)[0] == name and entry.get("kind") == "counter":
            total += entry["value"]
    return total


def _gauge_sum(state: Dict[str, Any], name: str) -> float:
    total = 0.0
    for key, entry in state["totals"].items():
        if (
            key.split("{", 1)[0] == name
            and entry.get("kind") == "gauge"
            and entry.get("value") is not None
        ):
            total += entry["value"]
    return total


def render_top(
    collector: TelemetryCollector,
    engine: Optional[SloEngine] = None,
    now: Optional[float] = None,
    rate_window: float = 1.0,
) -> str:
    """The cluster view: one sources table, one channels table, one
    cluster-health line, and the SLO states."""
    from repro.bench.reporting import format_table

    state = collector.cluster_state(now)
    now = state["time"]
    sections: List[str] = [
        f"cluster @ t={now:.3f}s — {len(state['sources'])} source(s), "
        f"{state['series']} series, {state['ingested']} delta(s) ingested, "
        f"{state['duplicates']} duplicate(s) suppressed"
    ]

    rows = []
    for process, source in sorted(state["sources"].items()):
        rate = sum(
            series.rate(rate_window, now)
            for (series_process, _), series in collector._matching(
                "echo.events"
            )
            if series_process == process and series.kind == "counter"
        )
        rows.append((
            process,
            source["worker"] or "-",
            source["boot"],
            source["last_seq"],
            "STALE" if source["stale"] else "live",
            f"{rate:.1f}/s",
            source["deltas"],
            source["duplicates"],
        ))
    sections.append(format_table(
        ["process", "worker", "boot", "seq", "state", "events", "deltas",
         "dups"],
        rows,
    ))

    channel_rows = [
        (channel, *(f"{name}={value}" for name, value in sorted(
            counters.items()
        )),)
        for channel, counters in sorted(state["channels"].items())
    ]
    if channel_rows:
        width = max(len(row) for row in channel_rows)
        headers = ["channel"] + [f"total {i}" for i in range(1, width)]
        sections.append(format_table(
            headers,
            [tuple(row) + ("",) * (width - len(row)) for row in channel_rows],
        ))

    route_hits = _total_matching(state, "morph.receiver.cache_hits")
    route_misses = _total_matching(state, "morph.receiver.cache_misses")
    retries = _total_matching(state, "net.reliable.retries")
    sends = _total_matching(state, "net.reliable.sends")
    journal_lag = _gauge_sum(state, "fabric.journal.entries_since_snapshot")
    bytes_saved = _total_matching(state, "net.projection.bytes_saved_est")
    sections.append(
        "morph route hits: "
        + _ratio(route_hits, route_hits + route_misses)
        + f"  retransmit: {_ratio(retries, sends)}"
        + f"  journal lag: {journal_lag:.0f} entr(ies)"
        + f"  projection saved: {bytes_saved:.0f} B"
    )

    if engine is not None and engine.rules:
        sections.append(format_table(
            ["slo rule", "state", "value", "threshold", "fired", "resolved"],
            [
                (
                    row["rule"], row["state"], f"{row['value']:.3f}",
                    f"{row['threshold']:.3f}", row["fired"], row["resolved"],
                )
                for row in engine.status()
            ],
        ))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------
# The CI smoke
# ---------------------------------------------------------------------

def _wire_log(network: Network) -> List[Tuple[str, str, bytes]]:
    """Capture every send's exact bytes by wrapping ``network.send``."""
    log: List[Tuple[str, str, bytes]] = []
    original = network.send

    def _tap(source: str, destination: str, data: bytes) -> float:
        log.append((source, destination, bytes(data)))
        return original(source, destination, data)

    network.send = _tap  # type: ignore[method-assign]
    return log


def _echo_exchange(with_idle_agent: bool) -> List[Tuple[str, str, bytes]]:
    """One small deterministic echo exchange; optionally with a
    TelemetryAgent constructed (but never started).  Returns the wire
    log — the two variants must be byte-identical."""
    from repro.echo.process import EChoProcess

    network = Network(seed=3)
    log = _wire_log(network)
    registry = FormatRegistry()
    registry.register(EVENT_FMT)
    producer = EChoProcess(network, "producer", registry)
    consumer = EChoProcess(network, "consumer", registry)
    producer.create_channel("events")
    consumer.open_channel("events", "producer", as_sink=True)
    network.run()
    consumer.subscribe("events", EVENT_FMT, lambda record: None)
    if with_idle_agent:
        TelemetryAgent.over_echo(
            producer, registry=Registry(), worker="w0", boot=1,
        )
    for index in range(10):
        producer.submit(
            "events",
            EVENT_FMT,
            EVENT_FMT.make_record(value=index, tag=f"t{index}"),
        )
    network.run()
    return log


def telemetry_smoke(
    export_path: Optional[str] = None, verbose: bool = True
) -> List[str]:
    """The ``--telemetry-smoke`` gate.  Returns failures (empty = pass).

    1. A 3-worker fabric with 50 ms agents over a 3 % lossy reliable
       transport converges: collector per-channel totals equal the sum
       of the workers' local echo counters (exactly-once telemetry).
    2. An injected 60 % loss window fires the retransmit-ratio SLO;
       healing the link resolves it.
    3. The ``cluster_state()`` export validates against the committed
       JSON schema.
    4. The wire stays byte-identical when the agent exists but is
       disabled (never started).
    """
    failures: List[str] = []
    obs.disable(reset=True)
    obs.enable()
    cluster = build_cluster(scrape_interval=0.05, loss_rate=0.03)
    assert cluster.network is not None and cluster.collector is not None
    assert cluster.engine is not None

    # Phase 1: healthy traffic (modest loss, reliable layer recovers).
    drive(cluster, seconds=1.5)
    # Phase 2: heavy loss — the retransmit ratio must breach and fire.
    cluster.network.default_link = LinkSpec(latency=0.0005, loss_rate=0.60)
    drive(cluster, seconds=1.5)
    # Phase 3: heal the link; the rule must resolve.
    cluster.network.default_link = LinkSpec(latency=0.0005, loss_rate=0.0)
    drive(cluster, seconds=12.0, events_per_step=2, step=0.2)
    cluster.flush()

    state = cluster.collector.cluster_state()
    expected = cluster.expected_channel_totals()
    observed = {
        channel: counters["echo.events"]
        for channel, counters in state["channels"].items()
        if "echo.events" in counters
    }
    if expected != observed:
        failures.append(
            f"channel totals diverged: expected {expected}, "
            f"collector has {observed}"
        )
    if not expected or not sum(expected.values()):
        failures.append("no events delivered — demo workload is broken")
    stale = [p for p, s in state["sources"].items() if s["stale"]]
    if stale:
        failures.append(f"sources unexpectedly stale after flush: {stale}")

    fired = [t for t in cluster.transitions if t["to"] == "firing"]
    resolved = [t for t in cluster.transitions if t["to"] == "resolved"]
    if not fired:
        failures.append("retransmit-ratio SLO never fired under 60% loss")
    if not resolved:
        failures.append("retransmit-ratio SLO never resolved after healing")
    if cluster.engine.firing():
        failures.append(
            f"rules still firing after healing: {cluster.engine.firing()}"
        )

    try:
        with open(CLUSTER_STATE_SCHEMA_PATH, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
    except OSError as exc:
        failures.append(f"cannot read committed schema: {exc}")
    else:
        document = json.loads(json.dumps(state))  # must be JSON-clean
        for violation in validate_cluster_state(document, schema):
            failures.append(f"cluster_state schema violation: {violation}")
        if export_path is not None:
            with open(export_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)

    if verbose:
        print(render_top(cluster.collector, cluster.engine))
        print()

    obs.disable(reset=True)
    baseline = _echo_exchange(with_idle_agent=False)
    with_agent = _echo_exchange(with_idle_agent=True)
    if baseline != with_agent:
        failures.append(
            "wire not byte-identical with a disabled agent: "
            f"{len(baseline)} vs {len(with_agent)} sends"
        )
    return failures
