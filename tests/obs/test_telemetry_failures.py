"""Telemetry plane under failure: lossy datagrams, crashed workers,
and SLO alerts riding injected loss.

Three scenarios the unit tests cannot cover:

* the agent's deltas stay exactly-once when the socket transport drops
  (and the reliable layer retransmits) real UDP datagrams;
* a crashed fabric worker's source goes stale the moment the lease
  machinery declares it dead — long before the silence horizon — and
  recovers when the worker rejoins with a fresh boot;
* the retransmit-ratio SLO fires during an injected loss window on the
  sim fabric and resolves after the link heals.
"""

from __future__ import annotations

from repro import obs
from repro.fabric import EventFabric, JournalStore
from repro.net.link import LinkSpec
from repro.net.socket import SocketNetwork
from repro.net.transport import Network
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector
from repro.obs.metrics import Registry
from repro.obs.protocol import (
    TELEMETRY_CHANNEL,
    TELEMETRY_V2,
    register_telemetry_protocol,
)
from repro.pbio.registry import FormatRegistry


class TestLossySocketTransport:
    def test_deltas_exactly_once_and_idempotent_on_replay(self):
        """Agent → collector over 30% lossy UDP with reliable
        endpoints: totals converge exactly, and replaying every
        delivered record back into the collector changes nothing —
        retransmitted deltas are idempotent by construction."""
        from repro.echo.process import EChoProcess

        registry = FormatRegistry()
        register_telemetry_protocol(registry)
        with SocketNetwork(
            seed=9, default_link=LinkSpec(loss_rate=0.3)
        ) as net:
            agent_proc = EChoProcess(net, "agent", registry)
            sink_proc = EChoProcess(net, "sink", registry)
            agent_proc.create_channel(TELEMETRY_CHANNEL)
            sink_proc.open_channel(TELEMETRY_CHANNEL, "agent",
                                   as_sink=True)
            net.run(max_time=10.0)

            collector = TelemetryCollector()
            delivered = []

            def tee(record):
                delivered.append(record)
                collector.ingest(record)

            sink_proc.subscribe(TELEMETRY_CHANNEL, TELEMETRY_V2, tee)

            local = Registry()
            agent = TelemetryAgent.over_echo(
                agent_proc, registry=local, worker="w0", boot=1,
            )
            for round_index in range(5):
                local.counter("app.events", channel="c").inc(3)
                agent.scrape(now=float(round_index))
            net.run(max_time=20.0)

            assert net.lost > 0  # loss actually happened
            assert len(delivered) == 5
            assert collector.total("app.events") == 15
            assert collector.sources["agent"].last_seq == 5
            assert collector.duplicates == 0

            # Replay every delivered record — a retransmission storm at
            # the telemetry layer.  Nothing may change.
            for record in delivered:
                assert collector.ingest(record) is False
            assert collector.total("app.events") == 15
            assert collector.duplicates == len(delivered)
            assert collector.sources["agent"].deltas == 5


def _noop():
    pass


class _TelemetryDeployment:
    """Three journaled workers, each with a local app registry and a
    heartbeat-piggybacked telemetry agent, plus a monitor client whose
    collector rides the lease machinery."""

    RELIABLE = {"base_timeout": 0.02, "max_retries": 5}

    def __init__(self, seed=7, lease_timeout=0.6):
        self.net = Network(
            seed=seed,
            default_link=LinkSpec(
                latency=0.002, loss_rate=0.05, jitter=0.005
            ),
        )
        self.fabric = EventFabric(
            self.net, registry=FormatRegistry(),
            journal=JournalStore(), lease_timeout=lease_timeout,
        )
        self.workers = {
            address: self.fabric.add_worker(
                address, reliable_options=dict(self.RELIABLE)
            )
            for address in ("w1", "w2", "w3")
        }
        self.monitor = self.fabric.client(
            "monitor", reliable_options=dict(self.RELIABLE)
        )
        self.collector = TelemetryCollector(clock=self.net)
        self.collector.subscribe_fabric(self.monitor)
        self.collector.attach_directory(self.fabric.directory)
        self.registries = {}
        self.clients = {}
        for address, worker in self.workers.items():
            self.attach_agent(address, worker, boot=None)
        self.pump(4)  # settle the telemetry subscription fleet-wide

    def attach_agent(self, address, worker, boot, fresh_registry=False):
        if fresh_registry or address not in self.registries:
            # a restarted process comes back with an empty registry —
            # its old in-memory counters died with it
            self.registries[address] = Registry()
        client = self.clients.get(address)
        if client is None:
            client = self.clients[address] = self.fabric.client(
                f"app-{address}", reliable_options=dict(self.RELIABLE)
            )
        agent = TelemetryAgent.over_fabric(
            client,
            process=f"app-{address}",
            worker=address,
            registry=self.registries[address],
            interval=0.0,  # scrape on every heartbeat
            boot=boot,
        )
        worker.attach_telemetry(agent)
        return agent

    def pump(self, steps, step=0.05, tick=None):
        for _ in range(steps):
            if tick is not None:
                tick()
            for worker in self.workers.values():
                worker.heartbeat()
            self.fabric.directory.check_leases()
            self.collector.check_stale(self.net.now)
            self.net.call_later(step, _noop)
            self.net.run(max_time=self.net.now + step)


class TestCrashedWorkerStaleness:
    def test_lease_death_marks_stale_and_rejoin_recovers(self):
        d = _TelemetryDeployment()
        for address in d.workers:
            source = d.collector.sources[f"app-{address}"]
            assert not source.stale
            assert source.worker == address
        victim_address = "w2"
        victim = d.workers[victim_address]
        old_boot = d.collector.sources[f"app-{victim_address}"].boot

        d.fabric.crash_worker(victim_address)
        newly_stale = []
        d.pump(18, tick=lambda: newly_stale.extend(
            d.collector.check_stale(d.net.now)
        ))
        # The lease machinery, not the silence horizon, drove this:
        # 18 × 0.05 s = 0.9 s of quiet is well under stale_after (3 s),
        # but past the 0.6 s lease.
        assert victim_address not in d.fabric.directory.workers
        assert f"app-{victim_address}" in newly_stale
        assert d.collector.sources[f"app-{victim_address}"].stale
        for address in ("w1", "w3"):
            assert not d.collector.sources[f"app-{address}"].stale

        victim.restart()
        d.fabric.directory.join(victim)
        d.attach_agent(victim_address, victim, boot=None)
        d.pump(10)
        source = d.collector.sources[f"app-{victim_address}"]
        assert not source.stale
        assert source.boot != old_boot  # a fresh incarnation rejoined

    def test_totals_converge_exactly_across_the_crash(self):
        d = _TelemetryDeployment()
        victim_address = "w3"
        victim = d.workers[victim_address]
        ticks = {"count": 0}

        def tick_all():
            for address in d.workers:
                if not d.workers[address].crashed:
                    d.registries[address].counter("app.ticks").inc()
                    ticks["count"] += 1

        d.pump(6, tick=tick_all)
        d.fabric.crash_worker(victim_address)
        d.pump(18, tick=tick_all)  # survivors keep publishing
        victim.restart()
        d.fabric.directory.join(victim)
        d.attach_agent(victim_address, victim, boot=None,
                       fresh_registry=True)
        d.pump(10, tick=tick_all)
        d.pump(6)  # quiet drain: final scrapes flush the tail
        d.net.run()

        assert ticks["count"] > 0
        assert d.collector.total("app.ticks") == ticks["count"]


class TestSloUnderInjectedLoss:
    def test_retransmit_rule_fires_then_resolves(self):
        from repro.obs import topview

        obs.disable(reset=True)
        obs.enable()
        cluster = topview.build_cluster(
            scrape_interval=0.05, loss_rate=0.03
        )
        network = cluster.network
        assert network is not None and cluster.engine is not None
        topview.drive(cluster, 1.0)
        rule = cluster.engine.rule("retransmit-ratio")
        assert not rule.firing

        network.default_link = LinkSpec(latency=0.0005, loss_rate=0.60)
        topview.drive(cluster, 1.5)
        network.default_link = LinkSpec(latency=0.0005, loss_rate=0.0)
        topview.drive(cluster, 12.0, events_per_step=2, step=0.2)
        cluster.flush()

        tos = [
            t["to"] for t in cluster.transitions
            if t["rule"] == "retransmit-ratio"
        ]
        assert "firing" in tos
        assert "resolved" in tos
        assert not cluster.engine.firing()
        assert rule.fired >= 1 and rule.resolved >= 1
