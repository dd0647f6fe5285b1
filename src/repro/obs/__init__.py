"""repro.obs — observability for the morphing middleware.

The paper's evaluation is a breakdown of *where time goes* — encode vs.
decode vs. MaxMatch vs. dynamic code generation vs. conversion-cache
hits.  This package is the measurement substrate that makes the same
breakdown available at runtime:

* **metrics** — a lock-safe :class:`~repro.obs.metrics.Registry` of
  counters, gauges and fixed-bucket histograms (p50/p95/p99),
* **tracing** — nestable ``span(name, **attrs)`` context managers
  recording into a bounded ring buffer
  (:class:`~repro.obs.tracing.SpanRecorder`),
* **exporters** — JSON snapshots, Prometheus text format, and a
  ``python -m repro.obs`` CLI that pretty-prints a live snapshot,
* **the telemetry plane** — a per-process
  :class:`~repro.obs.agent.TelemetryAgent` shipping registry deltas as
  PBIO events on a reserved channel, the
  :class:`~repro.obs.collector.TelemetryCollector` aggregating them
  into fixed-memory :mod:`~repro.obs.timeseries` with a stable
  ``cluster_state()`` contract, and a declarative
  :class:`~repro.obs.slo.SloEngine` firing/resolving alerts over the
  collected series (``python -m repro.obs --top`` renders the live
  cluster view).

Observability is **off by default** and built to cost almost nothing
when off: every instrumentation site in the hot paths guards on
``OBS.enabled`` (one attribute load and a branch), and the default
tracer is a :class:`~repro.obs.tracing.NullRecorder` whose spans are a
shared no-op object.  Typical use::

    from repro import obs

    obs.enable()
    ... run traffic ...
    print(obs.render_text())            # tables, via bench.reporting
    print(obs.to_prometheus())          # scrape format
    data = obs.to_json()                # snapshot as a JSON string
    obs.disable()
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ObsError
from repro.obs.state import OBS, ObsState
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_LABEL_LIMIT,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    OVERFLOW_LABEL,
    RATIO_BUCKETS,
    Registry,
)
from repro.obs.tracectx import (
    TRACE_BLOCK_SIZE,
    TraceContext,
    activate,
    current,
    make_context,
    seed_ids,
)
from repro.obs.tracing import (
    DEFAULT_CAPACITY,
    NullRecorder,
    Span,
    SpanRecorder,
    find_spans,
)

#: Head-sampling rate :func:`enable` defaults to — chosen from the
#: measured N-curve in docs/OBSERVABILITY.md ("Cost when on").
DEFAULT_SAMPLE_EVERY = 64

# The switchboard lives in the leaf module repro.obs.state (metrics and
# tracing read it too); this package fills it in before anything above
# the leaves is imported.
OBS.metrics = Registry()
OBS.tracer = NullRecorder()

from repro.obs.distributed import FlightReport, TraceStore, flight  # noqa: E402

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_LABEL_LIMIT",
    "DEFAULT_SAMPLE_EVERY",
    "FlightReport",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "NullRecorder",
    "OBS",
    "OVERFLOW_LABEL",
    "RATIO_BUCKETS",
    "Registry",
    "Span",
    "SpanRecorder",
    "TRACE_BLOCK_SIZE",
    "TraceContext",
    "TraceStore",
    "activate",
    "current",
    "disable",
    "enable",
    "find_spans",
    "flight",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "make_context",
    "render_text",
    "seed_ids",
    "snapshot",
    "span",
    "to_json",
    "to_prometheus",
    # telemetry plane (lazily imported — see __getattr__ below)
    "CLUSTER_STATE_SCHEMA",
    "SeriesStore",
    "SloEngine",
    "SloRule",
    "TELEMETRY_CHANNEL",
    "TelemetryAgent",
    "TelemetryCollector",
    "TimeSeries",
    "validate_cluster_state",
]

#: Telemetry-plane exports resolve lazily (PEP 562): the agent pulls in
#: repro.pbio, whose instrumentation imports this package — importing it
#: eagerly here would be a cycle.
_TELEMETRY_EXPORTS = {
    "CLUSTER_STATE_SCHEMA": "repro.obs.protocol",
    "SeriesStore": "repro.obs.timeseries",
    "SloEngine": "repro.obs.slo",
    "SloRule": "repro.obs.slo",
    "TELEMETRY_CHANNEL": "repro.obs.protocol",
    "TelemetryAgent": "repro.obs.agent",
    "TelemetryCollector": "repro.obs.collector",
    "TimeSeries": "repro.obs.timeseries",
    "validate_cluster_state": "repro.obs.collector",
}


def __getattr__(name: str) -> Any:
    module_name = _TELEMETRY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def enable(
    registry: Optional[Registry] = None,
    capacity: int = DEFAULT_CAPACITY,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
) -> ObsState:
    """Turn observability on, optionally attaching an external *registry*
    (the bench harness passes its own so each figure can be snapshotted
    and reset in isolation).  Returns the active state.

    One of every *sample_every* published messages — the first after
    this call included — is traced and timed end to end
    (:func:`repro.obs.tracectx.mint`); counters and gauges count every
    message.  ``sample_every=1`` traces them all."""
    if sample_every < 1:
        raise ObsError(f"sample_every must be >= 1, got {sample_every}")
    OBS.sample_every = sample_every
    OBS.minted = 0
    if registry is not None:
        OBS.metrics = registry
    if not isinstance(OBS.tracer, SpanRecorder) or OBS.tracer.capacity != capacity:
        OBS.tracer = SpanRecorder(capacity=capacity)
    OBS.enabled = True
    return OBS


def disable(reset: bool = False) -> None:
    """Turn observability off.  With ``reset=True`` also drop all
    recorded metrics and spans (a fresh registry and a NullRecorder)."""
    OBS.enabled = False
    if reset:
        OBS.metrics = Registry()
        OBS.tracer = NullRecorder()


def is_enabled() -> bool:
    return OBS.enabled


def get_registry() -> Registry:
    return OBS.metrics


def get_tracer() -> "SpanRecorder | NullRecorder":
    return OBS.tracer


def span(name: str, **attrs: Any):
    """Convenience: a span on the active tracer (no-op when disabled)."""
    return OBS.tracer.span(name, **attrs)


# -- exporters (re-exported late to avoid import cycles at call sites) --

def snapshot() -> dict:
    from repro.obs.export import build_snapshot

    return build_snapshot(OBS.metrics, OBS.tracer)


def to_json(indent: int = 2) -> str:
    from repro.obs.export import to_json as _to_json

    return _to_json(OBS.metrics, OBS.tracer, indent=indent)


def to_prometheus() -> str:
    from repro.obs.export import to_prometheus as _to_prometheus

    return _to_prometheus(OBS.metrics)


def render_text() -> str:
    from repro.obs.export import render_text as _render_text

    return _render_text(OBS.metrics, OBS.tracer)
