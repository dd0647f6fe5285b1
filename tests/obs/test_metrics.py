"""Unit tests for counters, gauges, histograms and the registry."""

from __future__ import annotations

import pytest

from repro.errors import ObsError
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    OVERFLOW_LABEL,
    RATIO_BUCKETS,
    Registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        counter = Counter("c")
        with pytest.raises(ObsError):
            counter.inc(-1)
        assert counter.value == 0

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.snapshot() == {"value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)

    def test_reset(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_count_sum_mean(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(15.0)
        assert hist.mean == pytest.approx(3.75)

    def test_empty_histogram(self):
        hist = Histogram("h", bounds=(1.0,))
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.p50 == 0.0

    def test_bucket_assignment_inclusive_upper_edge(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.0)  # lands in the le=1.0 bucket, not le=2.0
        snap = hist.snapshot()
        assert snap["buckets"][0] == {"le": 1.0, "count": 1}
        assert snap["buckets"][1] == {"le": 2.0, "count": 0}

    def test_overflow_bucket(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(99.0)
        snap = hist.snapshot()
        assert snap["buckets"][-1] == {"le": None, "count": 1}
        assert snap["max"] == 99.0

    def test_percentiles_interpolate_within_bucket(self):
        hist = Histogram("h", bounds=(0.0, 10.0))
        # 100 observations uniform in (0, 10]: p50 ~ 5, p95 ~ 9.5
        for i in range(1, 101):
            hist.observe(i / 10)
        assert hist.p50 == pytest.approx(5.0, abs=0.5)
        assert hist.p95 == pytest.approx(9.5, abs=0.5)
        assert hist.p99 == pytest.approx(9.9, abs=0.5)

    def test_identical_observations_give_exact_percentiles(self):
        # Regression: interpolation must not invent spread when every
        # observation is the same value (e.g. all-zero mismatch ratios).
        hist = Histogram("h", bounds=RATIO_BUCKETS)
        for _ in range(50):
            hist.observe(0.0)
        assert hist.p50 == 0.0
        assert hist.p99 == 0.0

    def test_percentile_validates_quantile(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(ObsError):
            hist.percentile(0.0)
        with pytest.raises(ObsError):
            hist.percentile(1.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ObsError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ObsError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ObsError):
            Histogram("h", bounds=())

    def test_reset(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.snapshot()["min"] is None

    def test_default_bucket_constants_are_sane(self):
        for bounds in (LATENCY_BUCKETS, RATIO_BUCKETS, COUNT_BUCKETS):
            assert list(bounds) == sorted(set(bounds))
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert RATIO_BUCKETS[-1] == 1.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = Registry()
        first = registry.counter("hits")
        second = registry.counter("hits")
        assert first is second

    def test_labels_distinguish_instruments(self):
        registry = Registry()
        a = registry.counter("msgs", node="a")
        b = registry.counter("msgs", node="b")
        assert a is not b
        # label order is irrelevant to identity
        x = registry.counter("link", src="p", dst="q")
        y = registry.counter("link", dst="q", src="p")
        assert x is y

    def test_kind_clash_raises(self):
        registry = Registry()
        registry.counter("thing")
        with pytest.raises(ObsError):
            registry.gauge("thing")
        with pytest.raises(ObsError):
            registry.histogram("thing")

    def test_histogram_custom_bounds_only_apply_on_creation(self):
        registry = Registry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        again = registry.histogram("h")
        assert again is hist
        assert again.bounds == (1.0, 2.0)

    def test_histogram_with_other_explicit_bounds_raises(self):
        """One name, one meaning covers the buckets too: a second site
        must not land its observations in the first site's edges."""
        registry = Registry()
        registry.histogram("sized", bounds=COUNT_BUCKETS)
        with pytest.raises(ObsError, match="bounds"):
            registry.histogram("sized", bounds=RATIO_BUCKETS)
        # the other direction: created with the default edges, then
        # re-requested with explicit different ones
        registry.histogram("timed")
        with pytest.raises(ObsError, match="bounds"):
            registry.histogram("timed", bounds=COUNT_BUCKETS)
        # the same edges again (in any numeric spelling) are no clash
        assert registry.histogram("sized", bounds=COUNT_BUCKETS).bounds == \
            COUNT_BUCKETS
        assert registry.histogram("timed", bounds=list(LATENCY_BUCKETS))
        registry.histogram("small", bounds=(1, 2))
        assert registry.histogram("small", bounds=(1.0, 2.0)).count == 0

    def test_get_and_len(self):
        registry = Registry()
        assert registry.get("missing") is None
        counter = registry.counter("c", node="n")
        assert registry.get("c", node="n") is counter
        assert len(registry) == 1

    def test_snapshot_keys_include_label_suffix(self):
        registry = Registry()
        registry.counter("msgs", node="a").inc(2)
        snap = registry.snapshot()
        assert snap['msgs{node="a"}'] == {
            "value": 2, "kind": "counter", "labels": {"node": "a"},
        }

    def test_reset_keeps_instruments_clear_drops_them(self):
        registry = Registry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("c") is counter
        registry.clear()
        assert len(registry) == 0
        assert registry.counter("c") is not counter

    def test_clear_resets_the_cardinality_guard(self):
        """Label values of instruments that no longer exist must not
        keep consuming the per-(name, key) budget."""
        registry = Registry()
        for value in ("a", "b"):
            registry.counter("msgs", **registry.bounded(
                "msgs", limit=2, channel=value)).inc()
        assert registry.bounded("msgs", limit=2, channel="c") == {
            "channel": OVERFLOW_LABEL
        }
        registry.clear()
        assert registry.bounded("msgs", limit=2, channel="c") == {
            "channel": "c"
        }
        assert registry.get("obs.labels.overflow", metric="msgs") is None

    def test_reset_keeps_the_cardinality_guard(self):
        registry = Registry()
        for value in ("a", "b"):
            registry.counter("msgs", **registry.bounded(
                "msgs", limit=2, channel=value)).inc()
        registry.reset()
        assert registry.bounded("msgs", limit=2, channel="c") == {
            "channel": OVERFLOW_LABEL
        }
        assert registry.bounded("msgs", limit=2, channel="a") == {
            "channel": "a"
        }
