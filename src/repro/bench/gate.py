"""The ``--compare`` regression gate of ``python -m repro.bench``.

Every gated metric is a ratio of two arms timed back to back inside one
run (PBIO over XML, fused over staged, an N-worker fleet over one
worker, projected over full), so the speed of the host that recorded
the baseline cancels.  A figure fails when the geometric mean of
current/baseline ratios over the workload labels both documents carry
exceeds its tolerance, or when any row of the current run falls under
the factor the paper claims — whatever the baseline says.  Table 1 is
byte counts and must be identical.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: schema id of the ``--json`` document; ``--compare`` reads no other
SCHEMA = "repro-bench/v2"


@dataclass(frozen=True)
class Gate:
    """What ``--compare`` holds one figure to."""

    #: key of each workload's ``timings`` — a cost ratio taken in one run
    metric: str
    #: geomean of current/baseline above this fails the figure
    tolerance: float
    #: max/min of the metric's per-run geomean over five back-to-back
    #: ``--quick`` runs on a quiet 2-core host — the measurement
    #: *tolerance* was chosen from: the current run and the baseline are
    #: a draw each, and a busy neighbour was seen to double the spread
    spread: float
    #: the factor the paper claims for the figure: every row's inverse
    #: cost must reach it
    floor: Optional[float] = None
    #: *metric* names a whole workload entry that must equal the baseline's
    exact: bool = False


def load_baseline(path: str) -> Dict[str, Any]:
    """The ``--compare`` document, or :class:`SystemExit` 2 with the reason."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != SCHEMA:
        print(f"error: baseline {path} has schema {schema!r}, this gate reads "
              f"{SCHEMA!r}: re-record it with --json", file=sys.stderr)
        raise SystemExit(2)
    return baseline


def _gated(record: Optional[Dict[str, Any]], gate: Gate) -> Dict[str, Any]:
    """``{workload label: gated value}`` of one record (none: ``{}``)."""
    found = {}
    for work in (record or {}).get("workloads", ()):
        value = (work if gate.exact else work.get("timings", {})).get(gate.metric)
        if value is not None:
            found[work["label"]] = value
    return found


#: columns of the rows :func:`compare_to_baseline` returns
GATE_COLUMNS = ("figure", "metric", "geomean(current/baseline)", "tolerance",
                "paper floor (worst row)", "status")


def compare_to_baseline(
    gates: Dict[str, Gate], payload: Dict[str, Any], baseline: Dict[str, Any]
) -> "Tuple[List[Tuple[str, ...]], List[str]]":
    """Hold every figure of *gates* (``BENCH_*`` key -> :class:`Gate`) to
    it.  Returns the gate table's rows — one per gated figure, baseline
    record or not — and the failures, each naming its figure.  Labels
    only one document carries are skipped (quick runs gate against a
    full baseline)."""
    table: List[Tuple[str, ...]] = []
    failures: List[str] = []
    for key, gate in gates.items():
        current = _gated(payload[key], gate)
        reference = _gated(baseline.get(key), gate)
        shared = [label for label in current if label in reference]
        # registry/record drift must not read as "nothing to gate"
        problems = [] if current else [f"records no {gate.metric}"]
        moved = "-"
        if gate.exact:
            changed = [lb for lb in shared if current[lb] != reference[lb]]
            if shared:
                moved = f"{len(changed)} changed" if changed else "identical"
            problems += [
                f"{lb}: {current[lb]} != baseline {reference[lb]}"
                for lb in changed
            ]
        elif shared:
            geomean = math.exp(sum(
                math.log(current[lb] / reference[lb]) for lb in shared
            ) / len(shared))
            moved = f"{geomean:.3f}"
            if geomean > gate.tolerance:
                problems.append(
                    f"geomean current/baseline {gate.metric} = {geomean:.3f}"
                    f" (> {gate.tolerance:.2f} tolerance)"
                )
        floor = "-"
        if gate.floor is not None and current:
            floor = f"{1 / max(current.values()):.1f}x >= {gate.floor:g}x"
            problems += [
                f"{lb}: {1 / cost:.1f}x is under the paper's {gate.floor:g}x"
                for lb, cost in current.items() if cost * gate.floor > 1
            ]
        failures += [f"{key}: {problem}" for problem in problems]
        table.append((
            key, gate.metric, moved,
            "exact" if gate.exact else f"{gate.tolerance:.2f}", floor,
            "FAIL" if problems else "ok" if shared else "no baseline",
        ))
    return table, failures
