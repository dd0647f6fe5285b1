"""TelemetryAgent — per-process metric shipping over the event plane.

The agent periodically diffs its registry's snapshot
(:meth:`~repro.obs.metrics.Registry.diff_snapshot`) and publishes the
delta as a PBIO ``TelemetryDelta`` record on the reserved
:data:`~repro.obs.protocol.TELEMETRY_CHANNEL`.  It is transport-neutral
by construction: the constructor takes any ``publish(fmt, record)``
callable, and :meth:`over_echo` / :meth:`over_fabric` build that
callable from an :class:`~repro.echo.process.EChoProcess` or a
:class:`~repro.fabric.client.FabricClient` — which means deltas ride
the sim transport, the socket transport, or the sharded fabric through
exactly the machinery application events use (morph-at-owner,
reliability, batching, trace context stamped by the submit path).

Cost stance: the agent does **nothing** until :meth:`start` (or an
explicit :meth:`scrape`) — a constructed-but-idle agent adds zero bytes
to the wire, keeping the disabled wire byte-identical.  Each scrape is
O(changed instruments); an idle process ships a heartbeat-sized empty
delta, which doubles as the collector's liveness signal.

Cardinality is bounded the same way the registry's label guard is: at
most ``max_metrics`` entries ride one delta; excess *counters* collapse
into a single :data:`~repro.obs.metrics.OVERFLOW_LABEL` entry (so
cluster totals stay exact) and excess gauges/histograms are counted in
the record's ``dropped`` field.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.obs import OBS
from repro.obs.metrics import OVERFLOW_LABEL, Registry
from repro.obs.protocol import (
    TELEMETRY_CHANNEL,
    TELEMETRY_V2,
    register_telemetry_protocol,
)
from repro.pbio.format import IOFormat
from repro.pbio.record import Record

#: Upper bound on metric entries per shipped delta.
DEFAULT_MAX_METRICS = 512

#: Monotonic fallback boot ids for agents whose caller does not supply
#: one (a restarted agent in the same interpreter still gets a fresh
#: boot, so collectors treat it as a new incarnation).
_next_boot = 0


def _allocate_boot() -> int:
    global _next_boot
    _next_boot += 1
    return _next_boot


PublishFn = Callable[[IOFormat, Record], Any]


class TelemetryAgent:
    """Ships one process's metric deltas as telemetry events.

    Parameters
    ----------
    publish:
        ``publish(fmt, record)`` — how a delta reaches the wire.  See
        :meth:`over_echo` / :meth:`over_fabric`.
    process:
        Source identity (the collector's primary series key).
    worker:
        Optional fabric worker address this agent reports for.
    registry:
        The registry to scrape; defaults to the live ``OBS.metrics`` at
        scrape time, so ``obs.enable(registry=...)`` swaps are honored.
    interval:
        Target scrape period (seconds) for :meth:`start` /
        :meth:`maybe_scrape`.
    boot:
        Incarnation id carried in every record; collectors key their
        dedup ledger by ``(process, boot)``, so a restart (fresh boot)
        restarts the sequence space instead of colliding with the old
        one.  Auto-allocated when omitted.
    """

    def __init__(
        self,
        publish: PublishFn,
        process: str,
        worker: str = "",
        registry: Optional[Registry] = None,
        interval: float = 1.0,
        max_metrics: int = DEFAULT_MAX_METRICS,
        boot: Optional[int] = None,
        clock: Optional[Any] = None,
    ) -> None:
        self._publish = publish
        self.process = process
        self.worker = worker
        self._registry = registry
        self.interval = interval
        self.max_metrics = max_metrics
        self.boot = boot if boot is not None else _allocate_boot()
        self.clock = clock
        self.seq = 0
        self.scrapes = 0
        self.dropped_total = 0
        self._prev: Optional[Dict[str, Dict[str, Any]]] = None
        self._last_scrape: Optional[float] = None
        self._timer: Optional[Any] = None
        self._network: Optional[Any] = None

    # -- transport adapters ---------------------------------------------

    @classmethod
    def over_echo(
        cls,
        echo_process: Any,
        channel: str = TELEMETRY_CHANNEL,
        **options: Any,
    ) -> "TelemetryAgent":
        """An agent publishing through ``echo_process.submit`` on
        *channel* (the process must have created or opened it as a
        source).  Works identically on the sim and socket transports —
        the echo layer abstracts them."""
        register_telemetry_protocol(echo_process.registry)
        agent = cls(
            lambda fmt, record: echo_process.submit(channel, fmt, record),
            process=options.pop("process", echo_process.address),
            clock=options.pop("clock", echo_process.network),
            **options,
        )
        agent._network = echo_process.network
        return agent

    @classmethod
    def over_fabric(
        cls,
        client: Any,
        channel: str = TELEMETRY_CHANNEL,
        **options: Any,
    ) -> "TelemetryAgent":
        """An agent publishing through ``FabricClient.publish`` — deltas
        route to the channel's owning worker and fan out (morphing to
        each subscriber's telemetry format version) like any event."""
        register_telemetry_protocol(client.registry)
        agent = cls(
            lambda fmt, record: client.publish(channel, fmt, record),
            process=options.pop("process", client.address),
            clock=options.pop("clock", client.network),
            **options,
        )
        agent._network = client.network
        return agent

    # -- scraping -------------------------------------------------------

    @property
    def registry(self) -> Registry:
        return self._registry if self._registry is not None else OBS.metrics

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now
        return 0.0 if self._last_scrape is None else self._last_scrape

    def scrape(self, now: Optional[float] = None) -> Record:
        """Diff the registry against the previous scrape and publish the
        delta.  Returns the published record (tests inspect it)."""
        if now is None:
            now = self._now()
        registry = self.registry
        current = registry.snapshot()
        delta = registry.diff_snapshot(self._prev, current=current)
        self._prev = current
        delta, dropped = self._bound(delta)
        interval = (
            now - self._last_scrape
            if self._last_scrape is not None else self.interval
        )
        self._last_scrape = now
        self.seq += 1
        self.scrapes += 1
        self.dropped_total += dropped
        record = TELEMETRY_V2.make_record(
            process=self.process,
            worker=self.worker,
            boot=self.boot,
            seq=self.seq,
            time=float(now),
            interval=float(interval),
            dropped=dropped,
            metrics=json.dumps(delta, sort_keys=True, separators=(",", ":")),
        )
        self._publish(TELEMETRY_V2, record)
        if OBS.enabled:
            OBS.metrics.counter(
                "obs.telemetry.agent.scrapes", process=self.process
            ).inc()
        return record

    def _bound(
        self, delta: Dict[str, Dict[str, Any]]
    ) -> "tuple[Dict[str, Dict[str, Any]], int]":
        """Apply the cardinality bound: keep the first ``max_metrics``
        entries (sorted, so the kept set is stable across scrapes),
        collapse overflow counters into one ``__other__`` total, count
        everything else as dropped."""
        if len(delta) <= self.max_metrics:
            return delta, 0
        keys = sorted(delta)
        kept = {key: delta[key] for key in keys[: self.max_metrics]}
        overflow_value = 0
        dropped = 0
        for key in keys[self.max_metrics:]:
            entry = delta[key]
            if entry.get("kind") == "counter":
                overflow_value += int(entry["value"])
            else:
                dropped += 1
        if overflow_value:
            kept[OVERFLOW_LABEL] = {"kind": "counter",
                                    "value": overflow_value}
        return kept, dropped

    def maybe_scrape(self, now: Optional[float] = None) -> Optional[Record]:
        """Scrape only when a full interval elapsed since the last one —
        the piggyback hook the fabric worker heartbeat calls."""
        if now is None:
            now = self._now()
        if (
            self._last_scrape is not None
            and now - self._last_scrape < self.interval
        ):
            return None
        return self.scrape(now)

    # -- self-driving (transport timers) --------------------------------

    def start(
        self, network: Optional[Any] = None, interval: Optional[float] = None
    ) -> None:
        """Drive scrapes from the transport's timer wheel (sim virtual
        time or the socket scheduler — both honor ``call_later``)."""
        if interval is not None:
            self.interval = interval
        if network is not None:
            self._network = network
        if self._network is None:
            raise ValueError("TelemetryAgent.start needs a network")
        if self.clock is None:
            self.clock = self._network
        self._schedule()

    def _schedule(self) -> None:
        assert self._network is not None
        self._timer = self._network.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if self._timer is None:
            return  # stopped between scheduling and firing
        self.scrape()
        self._schedule()

    def stop(self) -> None:
        timer, self._timer = self._timer, None
        if timer is not None and hasattr(timer, "cancel"):
            timer.cancel()
