"""Metric instruments — counters, gauges and fixed-bucket histograms.

The design goals mirror the paper's measurement needs (Section 5): the
evaluation is a story about *where time goes*, so the instruments must be
cheap enough to leave compiled into the hot paths.  Every instrument is

* **lock-safe** — updates take a per-instrument lock, never a global one,
  so a registry hammered from many threads serializes only same-metric
  updates,
* **fixed-price on update** — ``inc``/``set``/``observe`` touch plain
  numbers and pre-sized lists under that lock; nothing is formatted or
  sorted per event (an exemplar is a reference to the active trace
  context, rendered when somebody reads it), and
* **read, not pushed** — every count (``stats.messages``, an
  endpoint's sends, a compile, a lease renewal) is a plain tally its
  owner keeps always and declares once as a metric (:func:`collect`); a
  :class:`Registry` reads them when it is read, so a message pays one
  integer add, watched or not, and a label is kept only where a reader
  groups by it.  A sampled message's durations go to a histogram held
  in :class:`Handles`.

Histograms use fixed bucket bounds chosen at creation.  Percentiles
(p50/p95/p99) are estimated by linear interpolation inside the bucket
containing the requested rank — the standard Prometheus-style estimate,
exact enough to compare encode vs. decode vs. transform stages.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from bisect import bisect_left
from collections import defaultdict
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObsError
from repro.obs import tracectx
from repro.obs.state import OBS

LabelItems = Tuple[Tuple[str, str], ...]
Key = Tuple[str, LabelItems]

#: Default bound on distinct values per (metric, label key) enforced by
#: :meth:`Registry.bounded` — past it, new values collapse to
#: :data:`OVERFLOW_LABEL` so a misbehaving caller (unbounded channel or
#: format names) cannot blow up the registry.
DEFAULT_LABEL_LIMIT = 32

#: The collapse bucket for label values past the cardinality bound.
OVERFLOW_LABEL = "__other__"

#: Default histogram bounds for latencies in seconds: 1 µs .. 10 s in
#: roughly 1-2.5-5 decade steps (21 finite buckets + overflow).
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(base * 10.0 ** exponent, 12)
    for exponent in range(-6, 1)
    for base in (1.0, 2.5, 5.0)
)

#: Default bounds for ratio-valued observations (MaxMatch mismatch ratio,
#: cache hit rates): ten even steps across [0, 1].
RATIO_BUCKETS: Tuple[float, ...] = tuple(i / 10 for i in range(1, 11))

#: Default bounds for small event counts (fields dropped per morph,
#: chain lengths): powers of two up to 256.
COUNT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                    64.0, 128.0, 256.0)


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Common core: a name, an optional label set, and a lock."""

    __slots__ = ("name", "labels", "_lock")
    kind = "instrument"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        if not name:
            raise ObsError("instrument name must be non-empty")
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def key(self) -> Tuple[str, LabelItems]:
        return (self.name, self.labels)

    def label_suffix(self) -> str:
        """``{k="v",...}`` (Prometheus style) or the empty string."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}{self.label_suffix()})"


class Counter(Instrument):
    """A monotonically increasing integer."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self._value}


class Gauge(Instrument):
    """A value that can move both ways (queue depth, cache size)."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self._value}


class Histogram(Instrument):
    """Fixed-bucket histogram with count/sum/min/max and estimated
    percentiles.

    *bounds* are the inclusive upper edges of the finite buckets, in
    increasing order; one implicit overflow bucket catches everything
    above the last edge.
    """

    __slots__ = ("bounds", "_bucket_counts", "_count", "_sum", "_min", "_max",
                 "_exemplars")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ObsError(f"histogram {name!r} needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(f"histogram {name!r} bounds must strictly increase")
        self.bounds = bounds
        self._bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: last trace context observed per bucket (exemplars): a p99 spike
        #: links straight to a concrete distributed trace.  Kept as the
        #: context object; ``traceparent()`` is rendered by the readers.
        self._exemplars: List[Optional[tracectx.TraceContext]] = (
            [None] * (len(bounds) + 1)
        )

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        ctx = tracectx.current()
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if ctx is not None and ctx.sampled:
                self._exemplars[index] = ctx

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the *q*-quantile (``0 < q <= 1``) by interpolating
        within the bucket holding the requested rank."""
        snap = self.snapshot()
        return percentile_from_buckets(
            snap["buckets"], q, minimum=snap["min"], maximum=snap["max"])

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def exemplars(self) -> List[Tuple[Optional[float], str]]:
        """``(bucket upper edge, traceparent)`` pairs for buckets with a
        recorded exemplar (``None`` edge = the overflow bucket)."""
        with self._lock:
            samples = list(self._exemplars)
        edges = list(self.bounds) + [None]
        return [
            (edges[i], ctx.traceparent())
            for i, ctx in enumerate(samples)
            if ctx is not None
        ]

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
            self._exemplars = [None] * (len(self.bounds) + 1)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._bucket_counts)
            count, total = self._count, self._sum
            low, high = self._min, self._max
        snap: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "buckets": [
                {"le": bound, "count": counts[i]}
                for i, bound in enumerate(self.bounds)
            ] + [{"le": None, "count": counts[-1]}],
        }
        exemplars = self.exemplars()
        if exemplars:
            snap["exemplars"] = [
                {"le": edge, "trace": trace} for edge, trace in exemplars
            ]
        if count:
            snap["mean"] = total / count
            _add_percentiles(snap, low, high)
        return snap


def merge_histogram_snapshots(
    base: Dict[str, Any], newest: Dict[str, Any]
) -> Dict[str, Any]:
    """Combine two histogram snapshots (or deltas) with identical bucket
    bounds into one.

    Bounds are compared for *exact* equality — never recomputed — and
    bucket counts are added as integers, so merging N snapshots is free
    of float drift: the merged counts are exactly the sums.  ``sum`` is
    the only float accumulation (unavoidable; it was already a float sum
    at observation time).  Exemplars are carried from *newest* when it
    has any, else from *base*.  Derived fields (mean, p50/p95/p99) are
    recomputed from the merged buckets.
    """
    base_edges = [b["le"] for b in base["buckets"]]
    new_edges = [b["le"] for b in newest["buckets"]]
    if base_edges != new_edges:
        raise ObsError(
            "cannot merge histogram snapshots with different bounds: "
            f"{base_edges!r} vs {new_edges!r}"
        )
    counts = [
        int(a["count"]) + int(b["count"])
        for a, b in zip(base["buckets"], newest["buckets"])
    ]
    mins = [s["min"] for s in (base, newest) if s.get("min") is not None]
    maxes = [s["max"] for s in (base, newest) if s.get("max") is not None]
    merged: Dict[str, Any] = {
        "count": int(base["count"]) + int(newest["count"]),
        "sum": base["sum"] + newest["sum"],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
        "buckets": [
            {"le": edge, "count": count}
            for edge, count in zip(base_edges, counts)
        ],
    }
    exemplars = newest.get("exemplars") or base.get("exemplars")
    if exemplars:
        merged["exemplars"] = [dict(e) for e in exemplars]
    if merged["count"]:
        merged["mean"] = merged["sum"] / merged["count"]
        _add_percentiles(merged, merged["min"], merged["max"])
    for extra in ("kind", "labels"):
        if extra in newest:
            merged[extra] = newest[extra]
        elif extra in base:
            merged[extra] = base[extra]
    return merged


def percentile_from_buckets(
    buckets: Sequence[Dict[str, Any]],
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """Prometheus-style quantile estimate over snapshot-shaped buckets
    (``[{"le": bound_or_None, "count": n}, ...]``) — the same linear
    interpolation :meth:`Histogram.percentile` uses, but over *merged*
    bucket rows, so collectors can answer p50/p95/p99 across processes
    and time windows."""
    if not 0 < q <= 1:
        raise ObsError(f"quantile must be in (0, 1], got {q}")
    total = sum(int(b["count"]) for b in buckets)
    if total == 0:
        return 0.0
    if minimum is not None and minimum == maximum:
        return minimum
    rank = q * total
    cumulative = 0
    for index, bucket in enumerate(buckets):
        bucket_count = int(bucket["count"])
        if bucket_count == 0:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative < rank:
            continue
        if index > 0:
            lower = buckets[index - 1]["le"]
        else:
            lower = minimum if minimum is not None else 0.0
        upper = bucket["le"]
        if upper is None:  # overflow bucket: cap at the observed maximum
            upper = maximum if maximum is not None else buckets[-2]["le"]
        lower = min(lower, upper)
        fraction = (rank - previous) / bucket_count
        return lower + (upper - lower) * fraction
    return maximum if maximum is not None else 0.0


def _add_percentiles(entry: Dict[str, Any], low: Any, high: Any) -> None:
    """Fill *entry*'s p50 / p95 / p99 in from its buckets."""
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        entry[label] = percentile_from_buckets(entry["buckets"], q, low, high)


def merge_snapshot_entries(
    base: Dict[str, Any], newest: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge two snapshot/delta entries of the same kind: counters add,
    gauges take the newest value, histograms merge bucket-exactly."""
    kind = newest.get("kind", base.get("kind", "counter"))
    if kind == "histogram":
        return merge_histogram_snapshots(base, newest)
    merged = dict(newest)
    if kind == "counter":
        merged["value"] = int(base["value"]) + int(newest["value"])
    return merged


# -- collected tallies ---------------------------------------------------

#: one declared metric of an owner class: (name, read, varying labels)
Reading = Tuple[str, Any, Tuple[str, ...]]

#: every collected metric: name -> (instrument class, label-guarded?)
COLLECTED: Dict[str, Tuple[type, bool]] = {}


def _declare(cls: type, bounded: bool, name: str, read: Any,
             varying: Tuple[str, ...]) -> Reading:
    if COLLECTED.setdefault(name, (cls, bounded)) != (cls, bounded):
        raise ObsError(f"{name!r} is already collected as another kind")
    return name, attrgetter(read) if isinstance(read, str) else read, varying


def counter(name: str, read: Any, *varying: str,
            bounded: bool = False) -> Reading:
    """Declare a collected counter: *read* (an attribute name, or a
    function) takes an owner's tallies to its count — with *varying*
    label names, to a dict from label value (a tuple, for several) to
    count; *bounded* label values pass :meth:`Registry.bounded`."""
    return _declare(Counter, bounded, name, read, varying)


def gauge(name: str, read: Any, *varying: str) -> Reading:
    """A collected gauge: *read* takes the owner itself to its value
    (``None``: nothing to gauge), computed when a registry is read."""
    return _declare(Gauge, False, name, read, varying)


class Tallies:
    """An owner's plain counts, kept apart from it (see :func:`collect`):
    ``Tallies("processed", appends=0)`` — a name alone is a per-label
    count, a dict from label value to count.  :func:`collect` holds them
    strongly: an owner passed as its own tallies would never retire."""

    def __init__(self, *per_label: str, **counts: Any) -> None:
        self.__dict__.update(counts)
        for name in per_label:
            setattr(self, name, defaultdict(int))


#: live registrations: number -> (owner ref, tallies, readings, labels, keys)
_owners: Dict[int, Tuple[Any, Any, Sequence[Reading], Dict, Dict]] = {}
#: what retired owners counted; owners collected since the last fold
_retired: Dict[Key, int] = {}
_dying: List[int] = []
_owners_lock = threading.Lock()
_numbers = itertools.count()


def collect(owner: Any, tallies: Any, readings: Sequence[Reading],
            **fixed: Any) -> None:
    """Let every registry read *tallies* — *owner*'s plain counts, in an
    object of their own — as *readings* declare, with *fixed* labels on
    each.  The owner is held weakly; once it is collected its counts join
    a process-wide retired sum (a counter never goes backwards because an
    owner went away) and its gauges go.  ``owner=None``: for the process."""
    number = next(_numbers)
    ref = None if owner is None else weakref.ref(owner)
    with _owners_lock:
        _fold()
        _owners[number] = (ref, tallies, readings, fixed, {})
    if owner is not None:
        # the finalizer only queues: it may run inside a reading
        weakref.finalize(owner, _dying.append, number).atexit = False


def _fold() -> None:
    """Retire the owners collected since the last fold (lock held)."""
    while _dying:
        entry = _owners.pop(_dying.pop(), None)
        if entry is not None:
            for key, amount in _items(Counter, *entry[1:]):
                _retired[key] = _retired.get(key, 0) + amount


def _items(cls: type, source: Any, readings: Sequence[Reading],
           fixed: Dict[str, Any], keys: Dict) -> Iterable[Tuple[Key, Any]]:
    for name, read, varying in readings:
        value = read(source) if COLLECTED[name][0] is cls else None
        if value is None:
            continue
        # a copy: another thread may be adding a label value
        for values, n in list(value.items()) if varying else [((), value)]:
            key = keys.get((name, values))
            if key is None:
                row = values if isinstance(values, tuple) else (values,)
                labels = dict(zip(varying, row), **fixed)
                key = keys[name, values] = (name, _label_items(labels))
            yield key, n


def read_tallies() -> Dict[Key, Any]:
    """One reading of every collected metric: a counter's total (the
    retired sum plus each live owner's tallies) and a gauge's ``[value,
    {owner: activity}]`` — activity, all the owner has counted, tells a
    registry whether it acted since the registry's zero point."""
    with _owners_lock:
        _fold()
        totals: Dict[Key, Any] = dict(_retired)
        entries = list(_owners.items())
    for number, (ref, tallies, readings, fixed, keys) in entries:
        activity = 0
        for key, amount in _items(Counter, tallies, readings, fixed, keys):
            activity += amount
            totals[key] = totals.get(key, 0) + amount
        if activity and ref is not None and (owner := ref()) is not None:
            for key, value in _items(Gauge, owner, readings, fixed, keys):
                total = totals.setdefault(key, [0, {}])
                total[0] += value
                total[1][number] = activity
    return totals


class Registry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the instrument, later calls
    return the same object.  Requesting an existing name as a different
    kind — or a histogram with other explicit bounds — raises
    :class:`~repro.errors.ObsError`: one name, one meaning.

    **Collected** metrics (:func:`collect`) are instruments brought up
    to the owners' tallies when the registry is read — :meth:`snapshot`,
    :meth:`diff_snapshot`, :meth:`get`, :meth:`instruments`, ``len()``,
    ``counter``/``gauge`` of a collected name — never pushed to.  So:

    * a registry reports what happened while it was the live, enabled
      one.  ``obs.enable()``, ``disable()``, ``enable(registry=)``,
      :meth:`reset` and :meth:`clear` each take **one** reading, a
      registry's zero point or its frozen final state; traffic while
      disabled is not reported;
    * a counter appears once its reading is non-zero, a gauge once its
      owner has done what it gauges; derived gauges (in-flight sends,
      queue depth, journal lag) are computed when read;
    * counters never go backwards: a collected owner's counts join a
      retired sum, so an aggregate never shrinks into a ``reset``;
    * a labelled family passes :meth:`bounded` as it is read.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, LabelItems], Instrument]" = {}
        #: distinct values seen per ``(metric name, label key)`` — the
        #: cardinality guard's memory
        self._label_seen: Dict[Tuple[str, str], set] = {}
        #: identity of the current instrument population; :meth:`clear`
        #: replaces it, so :class:`Handles` bound before know to re-resolve
        self._generation = object()
        self._collect_lock = threading.Lock()
        #: the reading last landed (the zero point at first); None unless live
        self._last: Optional[Dict[Key, Any]] = None
        #: collected key -> the instrument it lands in (label-guarded)
        self._landing: Dict[Key, Instrument] = {}

    # -- label-cardinality guard ----------------------------------------

    def bounded(
        self, name: str, limit: int = DEFAULT_LABEL_LIMIT, **labels: Any
    ) -> Dict[str, str]:
        """Guard a label set against unbounded cardinality: each label
        value counts toward a per-``(name, key)`` budget of *limit*
        distinct values; values past the budget collapse to
        :data:`OVERFLOW_LABEL` (and bump ``obs.labels.overflow``).

        Call-site idiom::

            registry.counter("morph.transform.applied",
                             **registry.bounded("morph.transform.applied",
                                                format=fmt.name)).inc()
        """
        out: Dict[str, str] = {}
        overflowed = False
        with self._lock:
            for key, value in labels.items():
                text = str(value)
                seen = self._label_seen.setdefault((name, key), set())
                if text in seen:
                    out[key] = text
                elif len(seen) < limit:
                    seen.add(text)
                    out[key] = text
                else:
                    out[key] = OVERFLOW_LABEL
                    overflowed = True
        if overflowed:
            self._get_or_create(Counter, "obs.labels.overflow",
                                {"metric": name}).inc()
        return out

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        if name in COLLECTED:
            self._collect()
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if name in COLLECTED:
            self._collect()
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = Histogram(
                        name, key[1],
                        bounds=bounds if bounds is not None else LATENCY_BUCKETS,
                    )
                    self._instruments[key] = instrument
        if not isinstance(instrument, Histogram):
            raise ObsError(
                f"{name!r} is already registered as a {instrument.kind}"
            )
        if bounds is not None and instrument.bounds != tuple(bounds):
            raise ObsError(
                f"histogram {name!r} already exists with bounds "
                f"{instrument.bounds!r}; cannot re-request it with "
                f"{tuple(bounds)!r}"
            )
        return instrument

    def _get_or_create(self, cls: type, name: str, labels: Dict[str, Any]):
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, key[1])
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise ObsError(
                f"{name!r} is already registered as a {instrument.kind}"
            )
        return instrument

    # -- collection -----------------------------------------------------

    def hand_over(self, successor: "Optional[Registry]" = None) -> None:
        """Land one reading, if live, and stop being the live registry;
        *successor* becomes it from that same reading (taken under the
        lock: a swap under traffic loses and repeats no count)."""
        with self._collect_lock:
            reading = read_tallies()
            self._take(reading)
            self._last = None
        if successor is not None:
            successor._last = reading

    def _collect(self) -> None:
        if self._last is not None:
            with self._collect_lock:
                self._take(read_tallies())

    def _take(self, reading: Dict[Key, Any]) -> None:
        """Land what *reading* adds to the last one, if live (lock held).
        Values are written, not ``inc``-ed: a read is not an update."""
        last = self._last
        if last is None:
            return
        self._last = reading
        for key, value in reading.items():
            before = last.get(key)
            if COLLECTED[key[0]][0] is Counter:
                if value != (before or 0):
                    instrument = self._landing_for(key)
                    with instrument._lock:
                        instrument._value += value - (before or 0)
            # a gauge lands once one of its owners acted since the zero
            elif key in self._landing or (
                value[1].items() - (before or (0, {}))[1].items()
            ):
                self._landing_for(key)._value = value[0]

    def _landing_for(self, key: Key) -> Any:
        if key not in self._landing:
            name, labels = key[0], dict(key[1])
            cls, bounded = COLLECTED[name]
            if bounded:
                labels = self.bounded(name, **labels)
            self._landing[key] = self._get_or_create(cls, name, labels)
        return self._landing[key]

    # -- views ----------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        """The instrument at ``(name, labels)``, or None."""
        self._collect()
        return self._instruments.get((name, _label_items(labels)))

    def instruments(self) -> List[Instrument]:
        self._collect()
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.key)

    def __len__(self) -> int:
        self._collect()
        return len(self._instruments)

    def __iter__(self) -> "Iterable[Instrument]":
        return iter(self.instruments())

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-ready dict keyed by ``name{labels}``."""
        out: Dict[str, Dict[str, Any]] = {}
        for instrument in self.instruments():
            entry = instrument.snapshot()
            entry["kind"] = instrument.kind
            if instrument.labels:
                entry["labels"] = dict(instrument.labels)
            out[instrument.name + instrument.label_suffix()] = entry
        return out

    def diff_snapshot(
        self,
        prev: Optional[Dict[str, Dict[str, Any]]] = None,
        current: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """A *mergeable delta* between *prev* (an earlier
        :meth:`snapshot`) and the registry's current state.

        The delta is itself snapshot-shaped, so deltas from many scrapes
        (or many processes) recombine with
        :func:`merge_snapshot_entries` without ever re-reading absolute
        values:

        * **counters** carry the increment since *prev*; a monotonic
          reset (current < previous — the process restarted or the
          registry was reset) is detected and reported as
          ``"reset": True`` with the full current value as the delta, so
          totals never go backwards.
        * **gauges** carry the current absolute value (last-write-wins on
          merge) and appear only when changed since *prev*.
        * **histograms** carry per-bucket count increments with the same
          reset rule per-instrument (any bucket shrinking ⇒ reset);
          ``min``/``max`` are the current absolutes and exemplars ride
          the delta so the newest scrape's traces win downstream.

        Unchanged instruments are omitted — a quiet process ships an
        empty delta.

        Pass *current* (an already-taken :meth:`snapshot`) to diff
        between two known snapshots instead of re-reading the registry —
        the agent does this so the snapshot it stores as "previous" is
        exactly the one the delta was computed from.
        """
        prev = prev or {}
        out: Dict[str, Dict[str, Any]] = {}
        if current is None:
            current = self.snapshot()
        for key, entry in current.items():
            before = prev.get(key)
            kind = entry["kind"]
            if kind == "gauge":
                if before is None or before.get("value") != entry["value"]:
                    out[key] = entry
                continue
            if before is None or before.get("kind") != kind:
                delta = dict(entry)
                delta["reset"] = before is not None
                if delta.get("count") == 0 and kind == "histogram":
                    continue
                if kind == "counter" and delta["value"] == 0:
                    continue
                out[key] = delta
                continue
            if kind == "counter":
                change = int(entry["value"]) - int(before.get("value", 0))
                if change < 0:  # monotonic reset: restart counting
                    out[key] = {**entry, "reset": True}
                elif change:
                    out[key] = {**entry, "value": change, "reset": False}
                continue
            # histogram: per-bucket deltas with exact-integer arithmetic
            old_edges = [b["le"] for b in before.get("buckets", ())]
            new_edges = [b["le"] for b in entry["buckets"]]
            shrank = (
                old_edges != new_edges
                or int(entry["count"]) < int(before.get("count", 0))
                or any(
                    int(b["count"]) < int(a["count"])
                    for a, b in zip(before["buckets"], entry["buckets"])
                )
            )
            if shrank:
                out[key] = {**entry, "reset": True}
                continue
            dcount = int(entry["count"]) - int(before.get("count", 0))
            if dcount == 0:
                continue
            delta = dict(entry)
            delta["reset"] = False
            delta["count"] = dcount
            delta["sum"] = entry["sum"] - before.get("sum", 0.0)
            delta["buckets"] = [
                {"le": b["le"], "count": int(b["count"]) - int(a["count"])}
                for a, b in zip(before["buckets"], entry["buckets"])
            ]
            delta["mean"] = delta["sum"] / dcount
            _add_percentiles(delta, entry.get("min"), entry.get("max"))
            out[key] = delta
        return out

    def reset(self) -> None:
        """Zero every instrument (keeps the instrument objects, so cached
        references at call sites stay valid); collected ones count from
        here."""
        for instrument in self.instruments():
            instrument.reset()  # type: ignore[attr-defined]
        self._rezero()

    def clear(self) -> None:
        """Drop every instrument, and with them the cardinality guard's
        memory of their label values (:meth:`reset` keeps both);
        collected ones count from here."""
        with self._lock:
            self._instruments.clear()
            self._label_seen.clear()
            self._generation = object()
        self._rezero()

    def _rezero(self) -> None:
        with self._collect_lock:
            self._landing.clear()
            if self._last is not None:
                self._last = read_tallies()


class Handles:
    """A histogram as one owner holds it: resolved from the live
    registry on first use, then returned as held::

        self._encode_seconds = Handles.histogram("pbio.encode.seconds")
        ...
        self._encode_seconds().observe(active.span.duration)

    The handle follows the live registry: when ``OBS.metrics`` is
    another registry or was :meth:`Registry.clear`-ed, it resolves
    afresh.  (Counts are collected, not held: :func:`collect`.)
    """

    __slots__ = ("_name", "_bounds", "_bound")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self._name = name
        self._bounds = bounds
        #: (registry generation, its histogram) — replaced as one object,
        #: so a thread caught mid-call by a registry swap can only hold
        #: the histogram of the generation it resolved against
        self._bound: Tuple[Any, Optional[Histogram]] = (None, None)

    @classmethod
    def histogram(cls, name: str,
                  bounds: Optional[Sequence[float]] = None) -> "Handles":
        return cls(name, bounds)

    def __call__(self) -> Histogram:
        registry = OBS.metrics
        generation, instrument = self._bound
        if registry._generation is not generation or instrument is None:
            instrument = registry.histogram(self._name, bounds=self._bounds)
            self._bound = (registry._generation, instrument)
        return instrument
