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
* **resolved once per site** — finding an instrument (:class:`Registry`
  get-or-create: label sort, ``str``, hash) costs several times what
  updating it does, so per-message code holds :class:`Handles` and pays
  that once per owner and label-value tuple, not per event.

Histograms use fixed bucket bounds chosen at creation.  Percentiles
(p50/p95/p99) are estimated by linear interpolation inside the bucket
containing the requested rank — the standard Prometheus-style estimate,
exact enough to compare encode vs. decode vs. transform stages.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObsError
from repro.obs import tracectx
from repro.obs.state import OBS

LabelItems = Tuple[Tuple[str, str], ...]

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
        if not 0 < q <= 1:
            raise ObsError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            if self._min == self._max:  # degenerate: every observation equal
                return self._min if self._min is not None else 0.0
            rank = q * total
            cumulative = 0
            for index, bucket_count in enumerate(self._bucket_counts):
                if bucket_count == 0:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative < rank:
                    continue
                lower = self.bounds[index - 1] if index > 0 else (
                    self._min if self._min is not None else 0.0
                )
                if index < len(self.bounds):
                    upper = self.bounds[index]
                else:  # overflow bucket: cap at the observed maximum
                    upper = self._max if self._max is not None else self.bounds[-1]
                lower = min(lower, upper)
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * fraction
            return self._max if self._max is not None else 0.0

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
            snap["p50"] = self.percentile(0.50)
            snap["p95"] = self.percentile(0.95)
            snap["p99"] = self.percentile(0.99)
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
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            merged[label] = percentile_from_buckets(
                merged["buckets"], q,
                minimum=merged["min"], maximum=merged["max"],
            )
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


class Registry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the instrument, later calls
    return the same object.  That is the one way to an instrument; code
    that runs per message keeps what it got in :class:`Handles` instead
    of asking again.  Requesting an existing name as a different kind —
    or a histogram with other explicit bounds — raises
    :class:`~repro.errors.ObsError`: one name, one meaning.
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

    def bounded_counter(
        self, name: str, limit: int = DEFAULT_LABEL_LIMIT, **labels: Any
    ) -> Counter:
        """Get-or-create a counter with its labels cardinality-guarded."""
        return self._get_or_create(
            Counter, name, self.bounded(name, limit=limit, **labels)
        )

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
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

    # -- views ----------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        """The instrument at ``(name, labels)``, or None."""
        return self._instruments.get((name, _label_items(labels)))

    def instruments(self) -> List[Instrument]:
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.key)

    def __len__(self) -> int:
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
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                delta[label] = percentile_from_buckets(
                    delta["buckets"], q,
                    minimum=entry.get("min"), maximum=entry.get("max"),
                )
            out[key] = delta
        return out

    def reset(self) -> None:
        """Zero every instrument (keeps the instrument objects, so cached
        references at call sites stay valid)."""
        for instrument in self.instruments():
            instrument.reset()  # type: ignore[attr-defined]

    def clear(self) -> None:
        """Drop every instrument, and with them the cardinality guard's
        memory of their label values (:meth:`reset` keeps both)."""
        with self._lock:
            self._instruments.clear()
            self._label_seen.clear()
            self._generation = object()


class Handles:
    """One metric's instruments as one owner holds them: resolved from
    the registry once per label-value tuple, then returned from a dict.

    The owner (a ``Network``, a ``PBIOContext``, a ``MorphReceiver`` ...)
    declares the metric when it is built, naming the labels that vary
    per call and fixing the ones that do not, and calls the handle with
    the varying values where it records::

        self._obs_sends = Handles.counter(
            "net.reliable.sends", "peer", endpoint=self.address)
        ...
        if OBS.enabled:
            self._obs_sends(destination).inc()

    Nothing is resolved until the first call, so an instrument appears
    in the registry exactly when the plain ``OBS.metrics.counter(...)``
    call would have created it.  Handles follow the live registry: when
    ``OBS.metrics`` is another registry (``enable(registry=)``,
    ``disable(reset=True)``) or was :meth:`Registry.clear`-ed, what was
    held is dropped and resolved afresh.  :meth:`bounded_counter`
    applies the cardinality guard when a value is first bound; a value
    that collapsed to ``__other__`` is not held, so every use of it
    still reaches the guard (and ``obs.labels.overflow``) and a site fed
    unbounded values holds no more entries than the guard admits.

    These are the registry's own instruments, cached — not a second
    registry.  Cold paths keep calling ``OBS.metrics.counter(...)``.
    """

    __slots__ = ("_resolve", "_name", "_varying", "_fixed", "_options",
                 "_bound")

    def __init__(self, resolve: Any, name: str, varying: Tuple[str, ...],
                 fixed: Dict[str, Any], **options: Any) -> None:
        self._resolve = resolve
        self._name = name
        self._varying = varying
        self._fixed = fixed
        self._options = options
        #: (registry generation, {label values: instrument}) — replaced
        #: as one object, so a thread caught mid-call by a registry swap
        #: can only fill the dict of the generation it resolved against
        self._bound: Tuple[Any, Dict[Tuple[Any, ...], Any]] = (None, {})

    @classmethod
    def counter(cls, name: str, *varying: str, **fixed: Any) -> "Handles":
        return cls(Registry.counter, name, varying, fixed)

    @classmethod
    def gauge(cls, name: str, *varying: str, **fixed: Any) -> "Handles":
        return cls(Registry.gauge, name, varying, fixed)

    @classmethod
    def histogram(cls, name: str, *varying: str,
                  bounds: Optional[Sequence[float]] = None,
                  **fixed: Any) -> "Handles":
        return cls(Registry.histogram, name, varying, fixed, bounds=bounds)

    @classmethod
    def bounded_counter(cls, name: str, *varying: str,
                        **fixed: Any) -> "Handles":
        return cls(Registry.bounded_counter, name, varying, fixed)

    def __call__(self, *values: Any) -> Any:
        registry = OBS.metrics
        generation, held = self._bound
        if registry._generation is not generation:
            held = {}
            self._bound = (registry._generation, held)
        instrument = held.get(values)
        if instrument is None:
            if len(values) != len(self._varying):
                raise ObsError(
                    f"{self._name!r} varies by {self._varying!r}, "
                    f"got {len(values)} value(s)"
                )
            labels = dict(self._fixed)
            labels.update(zip(self._varying, values))
            instrument = self._resolve(
                registry, self._name, **self._options, **labels
            )
            if instrument.labels == _label_items(labels):
                held[values] = instrument
        return instrument
