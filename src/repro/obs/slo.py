"""Declarative SLO engine over collector series.

Rules are plain dicts (committed next to deployment config, shipped
over the wire, or built in tests) describing a **signal** computed from
the :class:`~repro.obs.collector.TelemetryCollector`'s series, a
comparison against a threshold, and the hysteresis that turns a noisy
instantaneous condition into a stable firing/resolved alert:

.. code-block:: python

    engine.add({
        "name": "retransmit-ratio",
        "signal": {"kind": "ratio",
                   "numerator": "net.reliable.retries",
                   "denominator": "net.reliable.sends",
                   "window": 10.0},
        "op": ">", "threshold": 0.20,
        "for": 2.0,            # breach must hold this long to fire
        "resolve_for": 2.0,    # ...and clear this long to resolve
        "resolve_factor": 0.8, # value hysteresis: clears below 80%
    })

Signal kinds:

``rate``
    Cluster-wide counter increments/second over ``window``.
``sum``
    Cluster-wide counter increments over ``window``.
``ratio``
    ``sum(numerator) / sum(denominator)`` over ``window`` (0 when the
    denominator is quiet — an idle system is never in breach).
``gauge``
    The latest gauge values across sources, combined with ``agg``
    (``sum`` | ``max`` | ``min`` | ``avg``).
``percentile``
    The ``q``-quantile of a histogram metric's merged window.
``burn_rate``
    Error-budget burn: ``(bad/total) / (1 - objective)`` over
    ``window``.  A threshold of 14 fires when the budget for a
    ``objective`` SLO burns 14× faster than sustainable — the classic
    multiwindow-burn-rate alert reduced to one window.

The state machine is ``ok → pending → firing → resolving → ok``:
a breach must hold ``for`` seconds before firing (transient spikes
never page), and a firing rule resolves only after the signal stays
below ``threshold * resolve_factor`` for ``resolve_for`` seconds (no
flapping at the boundary).  :meth:`SloEngine.evaluate` returns the
transitions it made so callers (the CLI, tests, a future pager) can
act on edges, not levels.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ObsError

#: rule states
OK = "ok"
PENDING = "pending"
FIRING = "firing"
RESOLVING = "resolving"

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


def _signal_value(collector: Any, spec: Dict[str, Any], now: float) -> float:
    kind = spec.get("kind", "rate")
    window = float(spec.get("window", 60.0))
    labels = spec.get("labels")
    if kind == "rate":
        return collector.rate(spec["metric"], window, now, labels=labels)
    if kind == "sum":
        return float(sum(
            series.sum_over(window, now)
            for _, series in collector._matching(spec["metric"], labels)
            if series.kind == "counter"
        ))
    if kind == "ratio":
        denominator = _signal_value(
            collector,
            {"kind": "sum", "metric": spec["denominator"],
             "window": window, "labels": labels},
            now,
        )
        if denominator <= 0:
            return 0.0
        numerator = _signal_value(
            collector,
            {"kind": "sum", "metric": spec["numerator"],
             "window": window, "labels": labels},
            now,
        )
        return numerator / denominator
    if kind == "gauge":
        values = [
            series.total
            for _, series in collector._matching(spec["metric"], labels)
            if series.kind == "gauge" and series.total is not None
        ]
        if not values:
            return 0.0
        agg = spec.get("agg", "sum")
        if agg == "sum":
            return float(sum(values))
        if agg == "max":
            return float(max(values))
        if agg == "min":
            return float(min(values))
        if agg == "avg":
            return float(sum(values) / len(values))
        raise ObsError(f"unknown gauge aggregation {agg!r}")
    if kind == "percentile":
        return collector.percentile(
            spec["metric"], float(spec.get("q", 0.99)), window, now,
            labels=labels,
        )
    if kind == "burn_rate":
        objective = float(spec["objective"])
        budget = 1.0 - objective
        if budget <= 0:
            raise ObsError("burn_rate objective must be < 1.0")
        error_ratio = _signal_value(
            collector,
            {"kind": "ratio", "numerator": spec["bad"],
             "denominator": spec["total"], "window": window,
             "labels": labels},
            now,
        )
        return error_ratio / budget
    raise ObsError(f"unknown signal kind {kind!r}")


class SloRule:
    """One compiled rule plus its state machine."""

    __slots__ = ("name", "signal", "op", "threshold", "for_seconds",
                 "resolve_for", "resolve_factor", "description",
                 "state", "since", "last_value", "fired", "resolved")

    def __init__(self, spec: Dict[str, Any]) -> None:
        try:
            self.name = spec["name"]
            self.signal = dict(spec["signal"])
            self.threshold = float(spec["threshold"])
        except KeyError as missing:
            raise ObsError(f"SLO rule missing {missing.args[0]!r}")
        op = spec.get("op", ">")
        if op not in _OPS:
            raise ObsError(f"unknown SLO comparison {op!r}")
        self.op = op
        self.for_seconds = float(spec.get("for", 0.0))
        self.resolve_for = float(spec.get("resolve_for", 0.0))
        self.resolve_factor = float(spec.get("resolve_factor", 1.0))
        self.description = spec.get("description", "")
        self.state = OK
        self.since: Optional[float] = None
        self.last_value: float = 0.0
        self.fired = 0
        self.resolved = 0

    def _breached(self, value: float, firing: bool) -> bool:
        threshold = self.threshold
        if firing:
            # Value hysteresis: a firing rule needs the signal to drop
            # past resolve_factor * threshold before it counts as clear.
            threshold = threshold * self.resolve_factor
        return _OPS[self.op](value, threshold)

    def step(self, value: float, now: float) -> Optional[Dict[str, Any]]:
        """Advance the state machine; returns a transition dict when the
        externally-visible state flipped (fired or resolved)."""
        self.last_value = value
        previous = self.state
        holding = self.state in (FIRING, RESOLVING)
        breached = self._breached(value, firing=holding)
        if self.state == OK:
            if breached:
                self.state, self.since = PENDING, now
        if self.state == PENDING:
            if not breached:
                self.state, self.since = OK, None
            elif now - (self.since if self.since is not None
                        else now) >= self.for_seconds:
                self.state, self.since = FIRING, now
        elif self.state == FIRING:
            if not breached:
                self.state, self.since = RESOLVING, now
        if self.state == RESOLVING:
            if breached:
                self.state, self.since = FIRING, now
            elif now - (self.since if self.since is not None
                        else now) >= self.resolve_for:
                self.state, self.since = OK, None
        transitioned_to_firing = previous in (OK, PENDING) and \
            self.state in (FIRING, RESOLVING)
        transitioned_to_ok = previous in (FIRING, RESOLVING) and \
            self.state in (OK, PENDING)
        if transitioned_to_firing:
            self.fired += 1
            return {"rule": self.name, "from": "ok", "to": "firing",
                    "value": value, "time": now}
        if transitioned_to_ok:
            self.resolved += 1
            return {"rule": self.name, "from": "firing", "to": "resolved",
                    "value": value, "time": now}
        return None

    @property
    def firing(self) -> bool:
        return self.state in (FIRING, RESOLVING)


class SloEngine:
    """Evaluates a rule set against one collector's series."""

    def __init__(self, collector: Any, clock: Optional[Any] = None) -> None:
        self.collector = collector
        self.clock = clock
        self.rules: List[SloRule] = []
        self.evaluations = 0

    def add(self, spec: Dict[str, Any]) -> SloRule:
        rule = SloRule(spec)
        self.rules.append(rule)
        return rule

    def rule(self, name: str) -> SloRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise ObsError(f"no SLO rule named {name!r}")

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate every rule; returns the transitions (edges) made."""
        if now is None:
            if self.clock is None:
                raise ObsError("SloEngine.evaluate needs now= or a clock")
            now = self.clock.now
        self.evaluations += 1
        transitions: List[Dict[str, Any]] = []
        for rule in self.rules:
            value = _signal_value(self.collector, rule.signal, now)
            transition = rule.step(value, now)
            if transition is not None:
                transitions.append(transition)
        return transitions

    def firing(self) -> List[str]:
        return [rule.name for rule in self.rules if rule.firing]

    def status(self) -> List[Dict[str, Any]]:
        """One row per rule — what ``--top`` renders."""
        return [
            {
                "rule": rule.name,
                "state": FIRING if rule.firing else rule.state,
                "value": rule.last_value,
                "threshold": rule.threshold,
                "fired": rule.fired,
                "resolved": rule.resolved,
            }
            for rule in self.rules
        ]
