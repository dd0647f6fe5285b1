"""Telemetry plane unit tests: mergeable registry deltas, fixed-memory
time series, the agent's wire records, the collector's exactly-once
aggregation, and the SLO state machine."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ObsError
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector, validate_cluster_state
from repro.obs.metrics import (
    OVERFLOW_LABEL,
    Registry,
    merge_histogram_snapshots,
    merge_snapshot_entries,
    percentile_from_buckets,
)
from repro.obs.protocol import (
    TELEMETRY_V1,
    TELEMETRY_V2,
    TELEMETRY_V2_TO_V1,
)
from repro.obs.slo import SloEngine
from repro.obs.timeseries import SeriesStore, TimeSeries

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "docs", "cluster_state.schema.json",
)


def _capture():
    """A publish callable that stashes (fmt, record) pairs."""
    published = []
    return published, lambda fmt, record: published.append((fmt, record))


class TestDiffSnapshot:
    def test_counter_delta_and_zero_omission(self):
        registry = Registry()
        registry.counter("a").inc(5)
        registry.counter("b").inc(2)
        prev = registry.snapshot()
        registry.counter("a").inc(3)
        delta = registry.diff_snapshot(prev)
        assert delta["a"]["value"] == 3 and not delta["a"]["reset"]
        assert "b" not in delta  # unchanged counters don't ride

    def test_counter_reset_is_flagged_with_full_value(self):
        registry = Registry()
        registry.counter("a").inc(10)
        prev = registry.snapshot()
        fresh = Registry()
        fresh.counter("a").inc(4)
        delta = fresh.diff_snapshot(prev)
        assert delta["a"]["value"] == 4
        assert delta["a"]["reset"] is True

    def test_gauge_only_when_changed(self):
        registry = Registry()
        registry.gauge("depth").set(7)
        prev = registry.snapshot()
        assert registry.diff_snapshot(prev) == {}
        registry.gauge("depth").set(9)
        delta = registry.diff_snapshot(prev)
        assert delta["depth"]["value"] == 9

    def test_histogram_delta_recomputes_statistics(self):
        registry = Registry()
        histogram = registry.histogram("lat", bounds=[1.0, 10.0])
        histogram.observe(0.5)
        prev = registry.snapshot()
        histogram.observe(5.0)
        histogram.observe(5.0)
        delta = registry.diff_snapshot(prev)["lat"]
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(10.0)
        assert delta["mean"] == pytest.approx(5.0)
        # the delta's percentiles come from the delta buckets, not the
        # absolute ones: both new observations sit in (1.0, 10.0]
        assert 1.0 < delta["p50"] <= 10.0

    def test_explicit_current_snapshot(self):
        registry = Registry()
        registry.counter("a").inc(1)
        prev = registry.snapshot()
        registry.counter("a").inc(1)
        current = registry.snapshot()
        registry.counter("a").inc(100)  # after the captured current
        delta = registry.diff_snapshot(prev, current=current)
        assert delta["a"]["value"] == 1


class TestHistogramMerge:
    def test_integer_bucket_addition_no_drift(self):
        registry = Registry()
        histogram = registry.histogram("h", bounds=[0.1, 0.2, 0.3])
        for _ in range(1000):
            histogram.observe(0.15)
        snap = registry.snapshot()["h"]
        merged = snap
        for _ in range(500):
            merged = merge_histogram_snapshots(merged, snap)
        counts = [b["count"] for b in merged["buckets"]]
        assert counts == [0, 501 * 1000, 0, 0]
        assert merged["count"] == 501 * 1000

    def test_bound_mismatch_rejected(self):
        registry_a, registry_b = Registry(), Registry()
        registry_a.histogram("h", bounds=[1.0]).observe(0.5)
        registry_b.histogram("h", bounds=[2.0]).observe(0.5)
        entry_a = registry_a.snapshot()["h"]
        entry_b = registry_b.snapshot()["h"]
        with pytest.raises(ObsError, match="different bounds"):
            merge_histogram_snapshots(entry_a, entry_b)

    def test_exemplars_carried_from_newest(self):
        def snap(trace):
            return {
                "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5,
                "buckets": [{"le": 1.0, "count": 1},
                            {"le": None, "count": 0}],
                "exemplars": [{"le": 1.0, "trace": trace}],
            }

        merged = merge_histogram_snapshots(snap("old"), snap("new"))
        assert merged["exemplars"] == [{"le": 1.0, "trace": "new"}]

    def test_merge_snapshot_entries_dispatch(self):
        counter = {"kind": "counter", "value": 3}
        assert merge_snapshot_entries(counter, counter)["value"] == 6
        gauge_old = {"kind": "gauge", "value": 1.0}
        gauge_new = {"kind": "gauge", "value": 2.0}
        assert merge_snapshot_entries(gauge_old, gauge_new)["value"] == 2.0


class TestPercentileFromBuckets:
    def test_interpolation_and_overflow_cap(self):
        buckets = [
            {"le": 1.0, "count": 50},
            {"le": 2.0, "count": 50},
            {"le": None, "count": 10},
        ]
        p50 = percentile_from_buckets(buckets, 0.5)
        assert 0.0 < p50 <= 2.0
        # the p99 rank lands in the overflow bucket, whose upper edge is
        # capped at the observed maximum
        p99 = percentile_from_buckets(buckets, 0.99, maximum=7.5)
        assert 2.0 < p99 <= 7.5


class TestTimeSeries:
    def test_counter_rate_window(self):
        series = TimeSeries("counter", capacity=16, rollups=())
        for t in range(10):
            series.ingest_delta(float(t), 5)
        assert series.total == 50
        assert series.rate(4.0, 9.0) == pytest.approx(20 / 4.0)

    def test_rollup_ladder_preserves_counter_mass(self):
        series = TimeSeries("counter", capacity=4, rollups=((10.0, 8),))
        for t in range(40):
            series.ingest_delta(float(t), 1)
        assert series.total == 40
        # mass retained in rings (fine + rollup + open bucket) stays
        # queryable: the full window sums to everything not yet evicted
        # from the coarse ring
        assert series.sum_over(40.0, 39.0) <= 40
        assert series.sum_over(40.0, 39.0) >= 4  # fine ring alone
        assert len(series.points(1)) <= 8

    def test_histogram_window_percentile(self):
        registry = Registry()
        histogram = registry.histogram("h", bounds=[0.1, 1.0, 10.0])
        series = TimeSeries("histogram", capacity=8, rollups=())
        histogram.observe(0.05)
        first = registry.snapshot()
        series.ingest_delta(0.0, registry.diff_snapshot({}, first)["h"])
        histogram.observe(5.0)
        histogram.observe(5.0)
        series.ingest_delta(1.0, registry.diff_snapshot(first)["h"])
        # window covering only the second delta: both observations in
        # the (1.0, 10.0] bucket
        p50 = series.percentile(0.5, 0.9, 1.0)
        assert 1.0 < p50 <= 10.0

    def test_gauge_latest_wins(self):
        series = TimeSeries("gauge", capacity=4, rollups=())
        series.ingest_delta(0.0, 5.0)
        series.ingest_delta(1.0, 3.0)
        assert series.total == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObsError, match="kind"):
            TimeSeries("timer")


class TestSeriesStore:
    def test_overflow_collapses_to_shared_series(self):
        store = SeriesStore(limit=2, capacity=4, rollups=())
        store.series("a", "counter").ingest_delta(0.0, 1)
        store.series("b", "counter").ingest_delta(0.0, 1)
        overflow_1 = store.series("c", "counter")
        overflow_2 = store.series("d", "counter")
        assert overflow_1 is overflow_2
        assert store.overflowed == 2
        assert (OVERFLOW_LABEL, "counter") in store


class TestAgent:
    def test_record_shape_and_sequence(self):
        registry = Registry()
        published, publish = _capture()
        agent = TelemetryAgent(publish, "proc", worker="w1",
                               registry=registry, boot=7)
        registry.counter("a").inc(3)
        record = agent.scrape(now=1.0)
        assert record["process"] == "proc" and record["worker"] == "w1"
        assert record["boot"] == 7 and record["seq"] == 1
        assert json.loads(record["metrics"])["a"]["value"] == 3
        registry.counter("a").inc(2)
        record = agent.scrape(now=2.0)
        assert record["seq"] == 2
        assert record["interval"] == pytest.approx(1.0)
        assert json.loads(record["metrics"])["a"]["value"] == 2
        assert [fmt for fmt, _ in published] == [TELEMETRY_V2, TELEMETRY_V2]

    def test_idle_scrape_ships_empty_heartbeat(self):
        registry = Registry()
        _, publish = _capture()
        agent = TelemetryAgent(publish, "proc", registry=registry)
        record = agent.scrape(now=1.0)
        assert json.loads(record["metrics"]) == {}

    def test_cardinality_bound_collapses_counters(self):
        registry = Registry()
        _, publish = _capture()
        agent = TelemetryAgent(publish, "proc", registry=registry,
                               max_metrics=3)
        for index in range(6):
            registry.counter(f"metric.{index:02d}").inc(index + 1)
        registry.gauge("z.gauge").set(1.0)  # sorts last -> dropped
        record = agent.scrape(now=1.0)
        delta = json.loads(record["metrics"])
        kept = [k for k in delta if k != OVERFLOW_LABEL]
        assert len(kept) == 3
        # the three overflow counters (4+5+6) collapse, totals stay exact
        assert delta[OVERFLOW_LABEL]["value"] == 4 + 5 + 6
        assert record["dropped"] == 1

    def test_maybe_scrape_honors_interval(self):
        registry = Registry()
        published, publish = _capture()
        agent = TelemetryAgent(publish, "proc", registry=registry,
                               interval=1.0)
        assert agent.maybe_scrape(now=0.0) is not None
        assert agent.maybe_scrape(now=0.5) is None
        assert agent.maybe_scrape(now=1.0) is not None
        assert len(published) == 2

    def test_v2_to_v1_retro_transform(self):
        from repro.morph.transform import Transformation

        record = TELEMETRY_V2.make_record(
            process="p", worker="w", boot=1, seq=2, time=3.0,
            interval=1.0, dropped=0, metrics='{"a":{"value":1}}',
        )
        old = Transformation(TELEMETRY_V2_TO_V1).apply(record)
        assert old["process"] == "p" and old["seq"] == 2
        assert old["metrics"] == '{"a":{"value":1}}'
        assert "interval" not in TELEMETRY_V1.field_names()


class TestCollector:
    def _record(self, seq, metrics, boot=1, process="p", time=None):
        return TELEMETRY_V2.make_record(
            process=process, worker="w1", boot=boot, seq=seq,
            time=float(seq) if time is None else time, interval=1.0,
            dropped=0,
            metrics=json.dumps(metrics),
        )

    def test_duplicate_deltas_are_idempotent(self):
        collector = TelemetryCollector()
        record = self._record(1, {"a": {"kind": "counter", "value": 5}})
        assert collector.ingest(record)
        assert not collector.ingest(record)  # the retransmit
        assert collector.total("a") == 5
        assert collector.sources["p"].duplicates == 1

    def test_out_of_order_admission(self):
        collector = TelemetryCollector()
        collector.ingest(self._record(2, {"a": {"kind": "counter",
                                               "value": 3}}))
        collector.ingest(self._record(1, {"a": {"kind": "counter",
                                               "value": 4}}))
        assert not collector.ingest(
            self._record(1, {"a": {"kind": "counter", "value": 4}})
        )
        assert collector.total("a") == 7

    def test_new_boot_opens_fresh_sequence_space(self):
        collector = TelemetryCollector()
        collector.ingest(self._record(1, {"a": {"kind": "counter",
                                               "value": 5}}, boot=1))
        # restart: same process, new boot, seq restarts at 1
        assert collector.ingest(
            self._record(1, {"a": {"kind": "counter", "value": 2,
                                   "reset": True}}, boot=2)
        )
        assert collector.total("a") == 7
        assert collector.sources["p"].boot == 2

    def test_stale_after_silence_and_recovery(self):
        collector = TelemetryCollector(stale_after=2.0)
        collector.ingest(self._record(1, {}), now=0.0)
        assert collector.check_stale(now=1.0) == []
        assert collector.check_stale(now=3.0) == ["p"]
        assert collector.sources["p"].stale
        collector.ingest(self._record(2, {}), now=4.0)
        assert not collector.sources["p"].stale

    def test_cluster_state_matches_committed_schema(self):
        collector = TelemetryCollector()
        registry = Registry()
        registry.counter("echo.events", channel="ch-1").inc(4)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat", bounds=[1.0]).observe(0.5)
        collector.ingest(self._record(
            1, registry.diff_snapshot(None)
        ))
        state = collector.cluster_state(now=5.0)
        with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
        document = json.loads(json.dumps(state))
        assert validate_cluster_state(document, schema) == []
        assert state["channels"]["ch-1"]["echo.events"] == 4

    def test_counters_sum_across_sources(self):
        collector = TelemetryCollector()
        metrics = {'echo.events{channel="c"}': {
            "kind": "counter", "value": 3,
            "labels": {"channel": "c"},
        }}
        collector.ingest(self._record(1, metrics, process="p1"))
        collector.ingest(self._record(1, metrics, process="p2"))
        state = collector.cluster_state(now=2.0)
        assert state["channels"]["c"]["echo.events"] == 6

    def test_validate_rejects_bad_document(self):
        with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
        bad = {"schema": "repro.telemetry/1", "time": "yesterday"}
        violations = validate_cluster_state(bad, schema)
        assert any("time" in v for v in violations)
        assert any("missing required" in v for v in violations)


class _Clock:
    def __init__(self):
        self.now = 0.0


class TestSloEngine:
    def _collector_with_ratio(self, clock, retries, sends, at=0.0):
        collector = TelemetryCollector(clock=clock)
        record = TELEMETRY_V2.make_record(
            process="p", worker="w", boot=1, seq=int(at) + 1, time=at,
            interval=1.0, dropped=0,
            metrics=json.dumps({
                "net.reliable.retries": {"kind": "counter",
                                         "value": retries},
                "net.reliable.sends": {"kind": "counter", "value": sends},
            }),
        )
        collector.ingest(record, now=at)
        return collector

    def test_threshold_fire_and_resolve_with_hysteresis(self):
        clock = _Clock()
        collector = TelemetryCollector(clock=clock)
        engine = SloEngine(collector, clock=clock)
        rule = engine.add({
            "name": "retransmit-ratio",
            "signal": {"kind": "ratio",
                       "numerator": "net.reliable.retries",
                       "denominator": "net.reliable.sends",
                       "window": 10.0},
            "op": ">", "threshold": 0.2,
            "for": 1.0, "resolve_for": 1.0,
        })

        def feed(seq, retries, sends):
            collector.ingest(TELEMETRY_V2.make_record(
                process="p", worker="w", boot=1, seq=seq, time=clock.now,
                interval=1.0, dropped=0,
                metrics=json.dumps({
                    "net.reliable.retries": {"kind": "counter",
                                             "value": retries},
                    "net.reliable.sends": {"kind": "counter",
                                           "value": sends},
                }),
            ))

        feed(1, 8, 10)  # 80% — breached
        assert engine.evaluate(0.0) == []  # pending, not yet fired
        clock.now = 1.5
        feed(2, 8, 10)
        transitions = engine.evaluate(1.5)
        assert [t["to"] for t in transitions] == ["firing"]
        assert rule.firing and engine.firing() == ["retransmit-ratio"]
        # healthy traffic pushes the windowed ratio under threshold
        clock.now = 12.0
        feed(3, 0, 100)
        assert engine.evaluate(12.0) == []  # resolving, hysteresis holds
        clock.now = 13.5
        transitions = engine.evaluate(13.5)
        assert [t["to"] for t in transitions] == ["resolved"]
        assert not rule.firing
        assert rule.fired == 1 and rule.resolved == 1

    def test_burn_rate_signal(self):
        clock = _Clock()
        collector = self._collector_with_ratio(clock, retries=0, sends=0)
        engine = SloEngine(collector, clock=clock)
        engine.add({
            "name": "error-budget",
            "signal": {"kind": "burn_rate", "bad": "app.errors",
                       "total": "app.requests", "objective": 0.99,
                       "window": 10.0},
            "threshold": 5.0, "for": 0.0, "resolve_for": 0.0,
        })
        collector.ingest(TELEMETRY_V2.make_record(
            process="q", worker="w", boot=1, seq=1, time=0.0, interval=1.0,
            dropped=0,
            metrics=json.dumps({
                "app.errors": {"kind": "counter", "value": 10},
                "app.requests": {"kind": "counter", "value": 100},
            }),
        ), now=0.0)
        # error ratio 0.1 against a 1% budget = 10x burn > 5x threshold
        transitions = engine.evaluate(0.0)
        assert [t["to"] for t in transitions] == ["firing"]

    def test_unknown_signal_kind_rejected(self):
        engine = SloEngine(TelemetryCollector(), clock=_Clock())
        engine.add({"name": "r", "signal": {"kind": "nope"},
                    "threshold": 1.0})
        with pytest.raises(ObsError, match="signal kind"):
            engine.evaluate(0.0)

    def test_gauge_aggregations(self):
        clock = _Clock()
        collector = TelemetryCollector(clock=clock)
        for process, depth in (("p1", 4.0), ("p2", 6.0)):
            collector.ingest(TELEMETRY_V2.make_record(
                process=process, worker="w", boot=1, seq=1, time=0.0,
                interval=1.0, dropped=0,
                metrics=json.dumps({
                    "queue.depth": {"kind": "gauge", "value": depth},
                }),
            ), now=0.0)
        engine = SloEngine(collector, clock=clock)
        engine.add({"name": "depth-max",
                    "signal": {"kind": "gauge", "metric": "queue.depth",
                               "agg": "max"},
                    "threshold": 5.0, "for": 0.0})
        transitions = engine.evaluate(0.0)
        assert [t["to"] for t in transitions] == ["firing"]
