"""Fixed-memory time series — the collector's storage layer.

A :class:`TimeSeries` is a small ring buffer of ``(timestamp, delta)``
points plus a ladder of coarser **rollup levels**: when the fine ring
wraps, the evicted point is folded into a 10-second bucket; when the
10-second ring wraps, into a 60-second bucket, and so on.  Memory is
bounded at construction time — ``capacity + sum(rollup capacities)``
points, ever — while queries keep answering over windows far longer
than the fine ring covers, just at coarser resolution.  That shape is
what lets a collector watch an unbounded fleet run inside a fixed
footprint.

Ingestion takes pre-diffed deltas (:meth:`TimeSeries.ingest_delta`:
what :meth:`Registry.diff_snapshot` ships over the wire, which also
marks a restarted source's instruments ``"reset": true``) and accumulates
them directly; re-applied deltas are the *caller's* problem (the
collector dedupes by source sequence number before calling in).

Counter series answer windowed :meth:`~TimeSeries.rate`; histogram
series answer :meth:`~TimeSeries.percentile` (p50/p95/p99) over the
bucket-exact merge of every delta in the window — the merge adds
integer bucket counts, so no float drift accumulates no matter how many
scrapes the window spans.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs.metrics import (
    OVERFLOW_LABEL,
    merge_histogram_snapshots,
    percentile_from_buckets,
)

#: Fine-ring capacity: at a 1 s scrape interval this is 4 minutes of
#: full-resolution points.
DEFAULT_CAPACITY = 240

#: Rollup ladder: ``(bucket span seconds, ring capacity)`` per level.
#: 10 s × 180 = half an hour at level 1, 60 s × 240 = four hours at
#: level 2.  Total memory is still a few hundred points per series.
DEFAULT_ROLLUPS: Tuple[Tuple[float, int], ...] = ((10.0, 180), (60.0, 240))

SERIES_KINDS = ("counter", "gauge", "histogram")


class _Ring:
    """A fixed-capacity ring of ``(time, value)`` points; appending past
    capacity evicts (and returns) the oldest point."""

    __slots__ = ("capacity", "_times", "_values", "_start", "_size")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ObsError("ring capacity must be positive")
        self.capacity = capacity
        self._times: List[float] = [0.0] * capacity
        self._values: List[Any] = [None] * capacity
        self._start = 0
        self._size = 0

    def append(self, t: float, value: Any) -> Optional[Tuple[float, Any]]:
        evicted = None
        if self._size == self.capacity:
            evicted = (self._times[self._start], self._values[self._start])
            end = self._start
            self._start = (self._start + 1) % self.capacity
        else:
            end = (self._start + self._size) % self.capacity
            self._size += 1
        self._times[end] = t
        self._values[end] = value
        return evicted

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        for i in range(self._size):
            j = (self._start + i) % self.capacity
            yield (self._times[j], self._values[j])

    def last(self) -> Optional[Tuple[float, Any]]:
        if not self._size:
            return None
        j = (self._start + self._size - 1) % self.capacity
        return (self._times[j], self._values[j])


def _fold(kind: str, base: Any, newest: Any) -> Any:
    if kind == "counter":
        return base + newest
    if kind == "gauge":
        return newest  # last write wins within a rollup bucket
    return merge_histogram_snapshots(base, newest)


class TimeSeries:
    """One metric's history: a fine ring plus rollup levels (see the
    module docstring for the memory/resolution contract)."""

    __slots__ = ("kind", "_rings", "_spans", "_open",
                 "_total", "_latest", "_latest_time")

    def __init__(
        self,
        kind: str,
        capacity: int = DEFAULT_CAPACITY,
        rollups: Tuple[Tuple[float, int], ...] = DEFAULT_ROLLUPS,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ObsError(f"unknown series kind {kind!r}")
        self.kind = kind
        self._rings = [_Ring(capacity)] + [_Ring(cap) for _, cap in rollups]
        self._spans = [0.0] + [span for span, _ in rollups]
        #: per rollup level, the open ``[bucket_start, (t, value)]`` being
        #: accumulated before it closes into that level's ring
        self._open: List[Optional[List[Any]]] = [None] * len(rollups)
        self._total: Any = None
        self._latest: Any = None
        self._latest_time: Optional[float] = None

    # -- ingestion ------------------------------------------------------

    def ingest_delta(self, t: float, delta: Any) -> None:
        """Ingest a pre-diffed delta (gauges: the absolute value)."""
        self._latest = delta
        self._latest_time = t
        if self.kind == "counter":
            self._total = (self._total or 0) + int(delta)
        elif self.kind == "histogram":
            self._total = (
                dict(delta) if self._total is None
                else merge_histogram_snapshots(self._total, delta)
            )
        else:
            self._total = float(delta)
        self._sink(0, t, delta)

    def _sink(self, level: int, t: float, value: Any) -> None:
        evicted = self._rings[level].append(t, value)
        if evicted is None or level + 1 >= len(self._rings):
            return
        span = self._spans[level + 1]
        bucket_start = (evicted[0] // span) * span
        open_bucket = self._open[level]
        if open_bucket is not None and open_bucket[0] != bucket_start:
            closed_t, closed_value = open_bucket[1]
            self._open[level] = [bucket_start, evicted]
            self._sink(level + 1, closed_t, closed_value)
        elif open_bucket is None:
            self._open[level] = [bucket_start, evicted]
        else:
            folded = _fold(self.kind, open_bucket[1][1], evicted[1])
            open_bucket[1] = (evicted[0], folded)

    # -- queries --------------------------------------------------------

    @property
    def total(self) -> Any:
        """Counter: the running total of ingested deltas.  Gauge: the
        latest value.  Histogram: the all-time merged snapshot."""
        return self._total

    @property
    def latest(self) -> Any:
        return self._latest

    @property
    def latest_time(self) -> Optional[float]:
        return self._latest_time

    def _window_points(
        self, since: float
    ) -> Iterator[Tuple[float, Any]]:
        """Every retained point with timestamp > *since*, coarse levels
        first (their points pre-date the fine ring's)."""
        for level in range(len(self._rings) - 1, 0, -1):
            for t, value in self._rings[level]:
                if t > since:
                    yield (t, value)
            open_bucket = self._open[level - 1]
            if open_bucket is not None and open_bucket[1][0] > since:
                yield open_bucket[1]
        for t, value in self._rings[0]:
            if t > since:
                yield (t, value)

    def rate(self, window: float, now: float) -> float:
        """Counter increments per second over ``(now - window, now]``."""
        if self.kind != "counter":
            raise ObsError(f"rate() needs a counter series, not {self.kind}")
        if window <= 0:
            raise ObsError("rate window must be positive")
        since = now - window
        total = sum(int(v) for _, v in self._window_points(since))
        return total / window

    def sum_over(self, window: float, now: float) -> int:
        """Total counter increments inside ``(now - window, now]``."""
        if self.kind != "counter":
            raise ObsError(
                f"sum_over() needs a counter series, not {self.kind}"
            )
        return sum(int(v) for _, v in self._window_points(now - window))

    def merged(self, window: float, now: float) -> Optional[Dict[str, Any]]:
        """The bucket-exact merge of every histogram delta in the
        window, or None when the window is empty."""
        if self.kind != "histogram":
            raise ObsError(
                f"merged() needs a histogram series, not {self.kind}"
            )
        merged: Optional[Dict[str, Any]] = None
        for _, snap in self._window_points(now - window):
            merged = (
                dict(snap) if merged is None
                else merge_histogram_snapshots(merged, snap)
            )
        return merged

    def percentile(self, q: float, window: float, now: float) -> float:
        """p-quantile over the merged histogram deltas in the window."""
        merged = self.merged(window, now)
        if merged is None:
            return 0.0
        return percentile_from_buckets(
            merged["buckets"], q,
            minimum=merged.get("min"), maximum=merged.get("max"),
        )

    def points(self, level: int = 0) -> List[Tuple[float, Any]]:
        """The retained points at *level* (0 = fine ring), oldest first."""
        return list(self._rings[level])


class SeriesStore:
    """A bounded, keyed collection of :class:`TimeSeries`.

    Keys are arbitrary hashable tuples (the collector uses
    ``(process, metric-with-labels)``).  Past *limit* distinct keys, new
    series collapse into one shared overflow series per kind keyed with
    :data:`~repro.obs.metrics.OVERFLOW_LABEL` — the same cardinality
    stance the registry's label guard takes, applied to series memory.
    """

    def __init__(
        self,
        limit: int = 4096,
        capacity: int = DEFAULT_CAPACITY,
        rollups: Tuple[Tuple[float, int], ...] = DEFAULT_ROLLUPS,
    ) -> None:
        self.limit = limit
        self.capacity = capacity
        self.rollups = rollups
        self._series: Dict[Any, TimeSeries] = {}
        self.overflowed = 0

    def series(self, key: Any, kind: str) -> TimeSeries:
        found = self._series.get(key)
        if found is not None:
            return found
        if len(self._series) >= self.limit:
            self.overflowed += 1
            key = (OVERFLOW_LABEL, kind)
            found = self._series.get(key)
            if found is not None:
                return found
        series = TimeSeries(kind, capacity=self.capacity,
                            rollups=self.rollups)
        self._series[key] = series
        return series

    def get(self, key: Any) -> Optional[TimeSeries]:
        return self._series.get(key)

    def items(self) -> List[Tuple[Any, TimeSeries]]:
        return list(self._series.items())

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, key: Any) -> bool:
        return key in self._series
