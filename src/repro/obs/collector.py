"""TelemetryCollector — cluster-level aggregation of telemetry deltas.

The collector is a *normal subscriber*: point
:meth:`~TelemetryCollector.subscribe_fabric` at a
:class:`~repro.fabric.client.FabricClient` (or
:meth:`~TelemetryCollector.subscribe_echo` at an
:class:`~repro.echo.process.EChoProcess`) and every ``TelemetryDelta``
published on the reserved channel lands in :meth:`ingest`.  No side
channel, no special transport privileges — which is the point: the
telemetry plane exercises the same morphing/reliability/batching
machinery it reports on.

Exactly-once aggregation over at-least-once transports: every record
carries ``(process, boot, seq)`` and the collector admits each sequence
number once per incarnation, so retransmitted deltas (reliable-layer
retries, fabric redelivery races) are idempotent.  A *new* boot opens a
fresh sequence space — the rejoin path after a crash — while the old
incarnation's already-merged totals stay counted.

Series are kept in a bounded :class:`~repro.obs.timeseries.SeriesStore`
keyed ``(process, metric)``; worker and shard ride in the metric's own
labels, so the effective key is (process, worker, shard, metric) for
fabric metrics.  Sources go **stale** when their deltas stop arriving
for ``stale_after`` seconds — and, when a
:class:`~repro.fabric.membership.FabricDirectory` is attached, the
moment the lease machinery crash-leaves their worker (the PR 9 failure
detector doubles as the telemetry liveness oracle).  A stale source
that publishes again (same or new boot) recovers automatically.

:meth:`cluster_state` is the stable JSON contract
(:data:`~repro.obs.protocol.CLUSTER_STATE_SCHEMA`) the future placement
broker consumes; :func:`validate_cluster_state` checks a document
against the committed schema file without any external dependency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.net.ledger import SeqLedger
from repro.obs.metrics import (
    collect, counter, merge_histogram_snapshots, merge_snapshot_entries,
    percentile_from_buckets,
)
from repro.obs.protocol import (
    CLUSTER_STATE_SCHEMA,
    TELEMETRY_CHANNEL,
    TELEMETRY_V2,
    register_telemetry_protocol,
)
from repro.obs.timeseries import SeriesStore

#: Default staleness horizon: a source quiet for this many seconds is
#: marked stale (agents at a 1 s interval get three missed scrapes).
DEFAULT_STALE_AFTER = 3.0


class SourceState:
    """What the collector knows about one publishing process."""

    __slots__ = ("process", "worker", "boot", "last_seq", "last_seen",
                 "last_interval", "deltas", "duplicates", "dropped",
                 "stale", "stale_marks")

    def __init__(self, process: str) -> None:
        self.process = process
        self.worker = ""
        self.boot = 0
        self.last_seq = 0
        self.last_seen: Optional[float] = None
        self.last_interval = 0.0
        self.deltas = 0
        self.duplicates = 0
        self.dropped = 0
        self.stale = False
        self.stale_marks = 0


def _ingested(sources: Dict[str, SourceState]) -> int:
    return sum(source.deltas for source in list(sources.values()))


_COLLECTED = (counter("obs.telemetry.collector.deltas", _ingested),)


class TelemetryCollector:
    """Aggregates telemetry deltas into cluster-level time series."""

    def __init__(
        self,
        clock: Optional[Any] = None,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.clock = clock
        self.stale_after = stale_after
        #: set by :meth:`attach_directory`
        self.directory: Optional[Any] = None
        self.store = SeriesStore()
        self.sources: Dict[str, SourceState] = {}
        #: (process, boot) -> admission ledger
        self._ledgers: Dict[Tuple[str, int], SeqLedger] = {}
        #: (process, metric key) -> (metric name, labels, kind)
        self._meta: Dict[Tuple[str, str], Tuple[str, Dict[str, str], str]] = {}
        collect(self, self.sources, _COLLECTED)
        self.duplicates = 0
        self.rejected = 0

    #: deltas admitted, from every source
    ingested = property(lambda self: _ingested(self.sources))

    # -- subscription adapters ------------------------------------------

    def subscribe_fabric(
        self, client: Any, channel: str = TELEMETRY_CHANNEL, fmt=TELEMETRY_V2
    ) -> None:
        """Subscribe through a fabric client; the owning worker morphs
        agents' records into *fmt* (this collector's version)."""
        register_telemetry_protocol(client.registry)
        client.subscribe(channel, fmt, self.fabric_handler)

    def subscribe_echo(
        self, echo_process: Any, channel: str = TELEMETRY_CHANNEL,
        fmt=TELEMETRY_V2,
    ) -> None:
        """Subscribe through an echo process (the channel must have been
        created here or opened as a sink)."""
        register_telemetry_protocol(echo_process.registry)
        echo_process.subscribe(channel, fmt, self.echo_handler)

    def fabric_handler(
        self, channel_id: str, publisher: str, seq: int, record: Any
    ) -> None:
        self.ingest(record)

    def echo_handler(self, record: Any) -> None:
        self.ingest(record)

    def attach_directory(self, directory: Any) -> None:
        """Ride the fabric lease machinery: sources whose worker the
        directory crash-left (or whose lease already lapsed) are stale
        immediately, not only after ``stale_after`` of silence."""
        self.directory = directory

    # -- ingestion ------------------------------------------------------

    def _now(self, now: Optional[float], record_time: float) -> float:
        if now is not None:
            return now
        if self.clock is not None:
            return self.clock.now
        return record_time

    def ingest(self, record: Any, now: Optional[float] = None) -> bool:
        """Apply one TelemetryDelta record.  Returns True when the
        record advanced state (False: duplicate or malformed)."""
        try:
            process = record["process"]
            boot = int(record["boot"])
            seq = int(record["seq"])
            record_time = float(record["time"])
            payload = record["metrics"]
        except (KeyError, TypeError, ValueError):
            self.rejected += 1
            return False
        now = self._now(now, record_time)
        source = self.sources.get(process)
        if source is None:
            source = self.sources[process] = SourceState(process)
        worker = record["worker"] if "worker" in record else ""
        if worker:
            source.worker = worker
        ledger = self._ledgers.get((process, boot))
        if ledger is None:
            ledger = self._ledgers[(process, boot)] = SeqLedger()
        if not ledger.admit(seq):
            source.duplicates += 1
            self.duplicates += 1
            return False
        try:
            delta = json.loads(payload) if payload else {}
        except ValueError:
            self.rejected += 1
            return False
        if not isinstance(delta, dict):
            self.rejected += 1
            return False
        # Liveness bookkeeping: any admitted delta (even an empty one)
        # is a heartbeat and un-stales the source — the rejoin path.
        if boot != source.boot:
            source.boot = boot
            source.last_seq = seq
        else:
            source.last_seq = max(source.last_seq, seq)
        source.last_seen = now
        source.deltas += 1
        if "interval" in record:
            source.last_interval = float(record["interval"])
        if "dropped" in record:
            source.dropped += int(record["dropped"])
        if source.stale:
            source.stale = False
        for key, entry in delta.items():
            if not isinstance(entry, dict):
                continue
            kind = entry.get("kind", "counter")
            series_key = (process, key)
            if series_key not in self._meta:
                name = key.split("{", 1)[0]
                labels = entry.get("labels") or {}
                self._meta[series_key] = (name, dict(labels), kind)
            series = self.store.series(series_key, kind)
            try:
                if kind == "counter":
                    series.ingest_delta(record_time, int(entry["value"]))
                elif kind == "gauge":
                    series.ingest_delta(record_time, float(entry["value"]))
                else:
                    series.ingest_delta(record_time, entry)
            except (KeyError, TypeError, ValueError):
                self.rejected += 1
        return True

    # -- staleness ------------------------------------------------------

    def _worker_dead(self, worker: str) -> bool:
        if not worker or self.directory is None:
            return False
        try:
            alive = worker in self.directory.workers
        except Exception:  # noqa: BLE001 - foreign directory shape
            return False
        if not alive:
            # Only workers the directory once knew (declared dead) count;
            # a non-fabric source label never marks the source stale.
            return any(addr == worker for _, addr in self.directory.deaths)
        remaining = getattr(self.directory, "lease_remaining", None)
        if remaining is None:
            return False
        ttl = remaining(worker)
        return ttl is not None and ttl <= 0

    def check_stale(self, now: Optional[float] = None) -> List[str]:
        """Mark quiet (or lease-expired) sources stale; returns the
        processes that newly turned stale."""
        if now is None and self.clock is not None:
            now = self.clock.now
        newly: List[str] = []
        for source in self.sources.values():
            is_stale = self._worker_dead(source.worker)
            if (
                not is_stale
                and now is not None
                and source.last_seen is not None
                and now - source.last_seen > self.stale_after
            ):
                is_stale = True
            if is_stale and not source.stale:
                source.stale = True
                source.stale_marks += 1
                newly.append(source.process)
        return newly

    # -- aggregate queries ----------------------------------------------

    def _matching(
        self, metric: str, labels: Optional[Dict[str, str]] = None
    ) -> List[Tuple[Tuple[str, str], Any]]:
        out = []
        for series_key, series in self.store.items():
            meta = self._meta.get(series_key)
            if meta is None:
                continue
            name, series_labels, _kind = meta
            if name != metric:
                continue
            if labels and any(
                series_labels.get(k) != v for k, v in labels.items()
            ):
                continue
            out.append((series_key, series))
        return out

    def total(
        self, metric: str, labels: Optional[Dict[str, str]] = None
    ) -> int:
        """Cluster-wide running total of a counter metric."""
        return sum(
            series.total or 0
            for _, series in self._matching(metric, labels)
            if series.kind == "counter"
        )

    def rate(
        self,
        metric: str,
        window: float,
        now: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> float:
        """Cluster-wide windowed rate (events/second) of a counter."""
        if now is None:
            now = self.clock.now if self.clock is not None else 0.0
        return sum(
            series.rate(window, now)
            for _, series in self._matching(metric, labels)
            if series.kind == "counter"
        )

    def percentile(
        self,
        metric: str,
        q: float,
        window: float,
        now: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> float:
        """Cluster-wide quantile over the merged histogram deltas of
        every matching series in the window."""
        if now is None:
            now = self.clock.now if self.clock is not None else 0.0
        merged = None
        for _, series in self._matching(metric, labels):
            if series.kind != "histogram":
                continue
            window_merge = series.merged(window, now)
            if window_merge is None:
                continue
            merged = (
                window_merge if merged is None
                else merge_histogram_snapshots(merged, window_merge)
            )
        if merged is None:
            return 0.0
        return percentile_from_buckets(
            merged["buckets"], q,
            minimum=merged.get("min"), maximum=merged.get("max"),
        )

    # -- the contract ---------------------------------------------------

    def cluster_state(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The stable JSON contract downstream consumers (the placement
        broker, ``--cluster-export``, the smoke's schema check) read.

        Shape (schema :data:`CLUSTER_STATE_SCHEMA`):

        * ``sources`` — per process: worker, boot, last_seq, last_seen,
          staleness, delta/duplicate counts.
        * ``totals`` — per metric key, the cluster-wide merged entry
          (counters summed exactly, gauges last-write-wins, histograms
          bucket-merged).
        * ``channels`` — per channel label value, every counter total
          carrying that label: the per-channel event totals the
          placement broker keys on.
        """
        if now is None:
            now = self.clock.now if self.clock is not None else 0.0
        self.check_stale(now)
        totals: Dict[str, Dict[str, Any]] = {}
        gauge_times: Dict[str, float] = {}
        for series_key, series in self.store.items():
            if not isinstance(series_key, tuple) or len(series_key) != 2:
                continue  # the store's own overflow bucket
            _process, metric_key = series_key
            meta = self._meta.get(series_key)
            if meta is None:
                continue
            name, labels, kind = meta
            if kind == "counter":
                entry: Dict[str, Any] = {"kind": "counter",
                                         "value": series.total or 0}
            elif kind == "gauge":
                when = series.latest_time or 0.0
                if metric_key in totals and gauge_times.get(
                    metric_key, -1.0
                ) >= when:
                    continue
                gauge_times[metric_key] = when
                entry = {"kind": "gauge", "value": series.total}
            else:
                if series.total is None:
                    continue
                entry = dict(series.total)
                entry["kind"] = "histogram"
            if labels:
                entry["labels"] = dict(labels)
            existing = totals.get(metric_key)
            if existing is None or kind == "gauge":
                totals[metric_key] = entry
            else:
                totals[metric_key] = merge_snapshot_entries(existing, entry)
        channels: Dict[str, Dict[str, int]] = {}
        for metric_key, entry in totals.items():
            labels = entry.get("labels") or {}
            channel = labels.get("channel")
            if channel is None or entry.get("kind") != "counter":
                continue
            name = metric_key.split("{", 1)[0]
            channels.setdefault(channel, {})[name] = int(entry["value"])
        return {
            "schema": CLUSTER_STATE_SCHEMA,
            "time": float(now),
            "sources": {
                source.process: {
                    "worker": source.worker,
                    "boot": source.boot,
                    "last_seq": source.last_seq,
                    "last_seen": source.last_seen,
                    "stale": source.stale,
                    "deltas": source.deltas,
                    "duplicates": source.duplicates,
                    "dropped": source.dropped,
                }
                for source in self.sources.values()
            },
            "totals": totals,
            "channels": channels,
            "series": len(self.store),
            "ingested": self.ingested,
            "duplicates": self.duplicates,
        }


# ----------------------------------------------------------------------
# Minimal JSON-schema-subset validation (no external dependency)
# ----------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check(doc: Any, schema: Dict[str, Any], path: str,
           errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        ok = False
        for kind in kinds:
            if kind == "number":
                ok = ok or (
                    isinstance(doc, (int, float))
                    and not isinstance(doc, bool)
                )
            elif kind == "integer":
                ok = ok or (
                    isinstance(doc, int) and not isinstance(doc, bool)
                )
            else:
                python_type = _TYPES.get(kind)
                ok = ok or (
                    python_type is not None
                    and isinstance(doc, python_type)
                    and not (
                        python_type in (int, float)
                        and isinstance(doc, bool)
                    )
                )
        if not ok:
            errors.append(f"{path}: expected {expected}, got "
                          f"{type(doc).__name__}")
            return
    if "const" in schema and doc != schema["const"]:
        errors.append(f"{path}: expected constant {schema['const']!r}, "
                      f"got {doc!r}")
    if isinstance(doc, dict):
        for name in schema.get("required", ()):
            if name not in doc:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, sub in properties.items():
            if name in doc:
                _check(doc[name], sub, f"{path}.{name}", errors)
        additional = schema.get("additionalProperties")
        if isinstance(additional, dict):
            for name, value in doc.items():
                if name not in properties:
                    _check(value, additional, f"{path}.{name}", errors)
    if isinstance(doc, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for index, value in enumerate(doc):
                _check(value, items, f"{path}[{index}]", errors)


def validate_cluster_state(
    doc: Dict[str, Any], schema: Dict[str, Any]
) -> List[str]:
    """Validate *doc* against a JSON-schema-subset *schema* (type /
    required / properties / additionalProperties / items / const).
    Returns a list of violations — empty means valid."""
    errors: List[str] = []
    _check(doc, schema, "$", errors)
    return errors
