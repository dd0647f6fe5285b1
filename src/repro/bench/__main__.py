"""Run, print, record and gate every evaluation figure.

Usage::

    python -m repro.bench                  # figure sizes up to 1 MB
    python -m repro.bench --quick          # up to 10 KB (CI-friendly)
    python -m repro.bench --json out.json  # machine-readable BENCH_* results
    python -m repro.bench --obs            # per-stage breakdown (decode vs
                                           # transform vs codegen) from the
                                           # obs registry, printed under each
                                           # figure and included in the JSON
    python -m repro.bench --quick --compare BENCH_baseline.json   # the gate

:data:`FIGURES` is the whole surface: each entry states once its
``BENCH_*`` key, its row function with the quick/full arguments, its
table, its JSON workload record — ``{figure, workloads: [{label,
timings | metrics | sizes_bytes}], stages?}`` under the key — and, if
``--compare`` holds it to anything, its :class:`~repro.bench.gate.Gate`
(a ratio taken inside one run, its tolerance beside the spread it was
chosen from, and the factor the paper claims).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bench.fabric import (
    bench_fabric_churn, bench_fabric_recovery, bench_fabric_scaling,
)
from repro.bench.figures import (
    fig8_encoding, fig9_decoding, fig10_morphing, fig_design_ablations,
    fig_fusion_ablation, fig_projection, fig_reliability, table1_sizes,
)
from repro.bench.gate import (
    GATE_COLUMNS, SCHEMA, Gate, compare_to_baseline, load_baseline,
)
from repro.bench.reporting import (
    format_kb, format_ms, format_stage_table, format_table, stage_breakdown,
)
from repro.bench.workloads import FIGURE_SIZES, TABLE1_SIZES_KB


@dataclass(frozen=True)
class Figure:
    key: str  # BENCH_* key of the JSON payload
    name: str  # the record's ``figure``
    title: str
    rows: Callable[[bool], Sequence[Any]]  # quick -> rows
    columns: Tuple[str, ...]
    #: ``(row, rows[0])`` -> table cells / JSON workload; the first row
    #: is the arm the self-normalised figures divide by
    cells: Callable[[Any, Any], Sequence[object]]
    workload: Callable[[Any, Any], Dict[str, Any]]
    gate: Optional[Gate] = None


def _fields(row: Any, *names: str) -> Dict[str, Any]:
    return {name: getattr(row, name) for name in names}


def _quick_sizes(quick: bool) -> Dict[str, int]:
    return {k: v for k, v in FIGURE_SIZES.items() if not quick or v <= 10_000}


def _comparison(key: str, name: str, title: str, fn, gate: Gate) -> Figure:
    """A PBIO-vs-XML figure of the paper (Figures 8-10)."""
    return Figure(
        key, name, title,
        rows=lambda quick: fn(_quick_sizes(quick)),
        columns=("size", "unencoded(B)", "PBIO(ms)", "XML(ms)", "XML/PBIO"),
        cells=lambda r, _: (
            r.label, r.unencoded_bytes, format_ms(r.pbio.best),
            format_ms(r.xml.best), f"{r.ratio:.1f}x",
        ),
        workload=lambda r, _: {
            "label": r.label,
            "unencoded_bytes": r.unencoded_bytes,
            "timings": {
                "pbio_relative_cost": r.pbio.best / r.xml.best,
                "pbio_seconds": r.pbio.best,
                "pbio_mean_seconds": r.pbio.mean,
                "xml_seconds": r.xml.best,
                "xml_mean_seconds": r.xml.mean,
                "ratio": r.ratio,
            },
        },
        gate=gate,
    )


def _relative(row: Any, base: Any, attribute: str) -> float:
    return getattr(row, attribute) / getattr(base, attribute)


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


FIGURES: Tuple[Figure, ...] = (
    _comparison(
        "BENCH_fig8", "fig8_encoding", "Figure 8: encoding cost",
        fig8_encoding,
        Gate("pbio_relative_cost", tolerance=1.25, spread=1.13, floor=2.0),
    ),
    _comparison(
        "BENCH_fig9", "fig9_decoding",
        "Figure 9: decoding cost (no evolution)", fig9_decoding,
        Gate("pbio_relative_cost", tolerance=1.25, spread=1.08, floor=10.0),
    ),
    _comparison(
        "BENCH_fig10", "fig10_morphing",
        "Figure 10: decoding cost with evolution (morphing vs XSLT)",
        fig10_morphing,
        Gate("pbio_relative_cost", tolerance=1.25, spread=1.04, floor=10.0),
    ),
    Figure(
        "BENCH_fusion", "fusion_ablation",
        "Fusion ablation: morphing latency, chain length 2 "
        "(v2.0 wire -> v0.0 reader)",
        rows=lambda quick: fig_fusion_ablation(_quick_sizes(quick)),
        columns=("size", "fused(ms)", "staged(ms)", "interp(ms)",
                 "staged/fused"),
        cells=lambda r, _: (
            r.label, format_ms(r.fused.best), format_ms(r.staged.best),
            format_ms(r.interpreted.best), f"{r.speedup:.2f}x",
        ),
        # Absolute morph-path latency is Figure 10's business (its
        # pipeline takes the fused route); this one gates the fusion win.
        workload=lambda r, _: {
            "label": r.label,
            "unencoded_bytes": r.unencoded_bytes,
            "timings": {
                "fused_relative_cost": r.fused.best / r.staged.best,
                "fused_seconds": r.fused.best,
                "staged_seconds": r.staged.best,
                "interpreted_seconds": r.interpreted.best,
                "speedup": r.speedup,
            },
        },
        gate=Gate("fused_relative_cost", tolerance=1.15, spread=1.07),
    ),
    Figure(
        "BENCH_ablation", "design_ablations",
        "Design ablations: route cache, generated coders, MaxMatch scaling "
        "(in-run ratios)",
        rows=lambda quick: fig_design_ablations(),
        columns=("ablation", "base(ms)", "other(ms)", "other/base"),
        cells=lambda r, _: (
            r.label, format_ms(r.base.best),
            format_ms(r.other.best), f"{r.ratio:.1f}x",
        ),
        workload=lambda r, _: {
            "label": r.label,
            "timings": {
                "ratio": r.ratio,
                "base_seconds": r.base.best,
                "other_seconds": r.other.best,
            },
        },
    ),
    # The three virtual-clock figures below are deterministic for a seed
    # and properties of the protocol, not of this host: "metrics" only.
    Figure(
        "BENCH_reliability", "reliability",
        "Reliability: goodput and p99 delivery latency vs link loss "
        "(virtual time)",
        rows=lambda quick: fig_reliability(messages=60 if quick else 200),
        columns=("loss", "goodput(rel)", "goodput(raw)", "p99(rel)",
                 "p99(raw)", "retries"),
        cells=lambda r, _: (
            f"{r.loss_pct:g}%", f"{r.reliable_goodput:.3f}",
            f"{r.raw_goodput:.3f}", format_ms(r.reliable_p99_seconds),
            format_ms(r.raw_p99_seconds), r.retries,
        ),
        workload=lambda r, _: {
            "label": f"{r.loss_pct:g}%",
            "metrics": _fields(
                r, "messages", "reliable_goodput", "raw_goodput",
                "reliable_p99_seconds", "raw_p99_seconds", "retries",
            ),
        },
    ),
    Figure(
        "BENCH_fabric", "fabric_scaling",
        "Fabric scaling: aggregate morphing capacity vs worker processes "
        "(UDP loopback)",
        rows=lambda quick: bench_fabric_scaling(
            worker_counts=(1, 2, 4) if quick else (1, 2, 4, 8)
        ),
        columns=("fleet", "delivered", "wall(ms)", "maxCPU(ms)", "cpu-units",
                 "msg/cpu-s", "capacity vs 1w"),
        cells=lambda r, base: (
            r.label, r.delivered, format_ms(r.wall_seconds),
            format_ms(r.max_cpu_seconds), f"{r.cpu_units:.1f}",
            f"{r.capacity:.0f}", f"{_relative(base, r, 'cpu_units'):.2f}x",
        ),
        # Calibrated per-row costs, not raw capacities from different
        # time windows: worker CPU time mixes interpreter and kernel
        # work that drift differently with host speed.  The 1w row
        # anchors the ratio and carries no gate metric.
        workload=lambda r, base: {
            "label": r.label,
            "timings": {
                **({} if r is base else
                   {"fabric_scaling_cost": _relative(r, base, "cpu_units")}),
                "wall_seconds": r.wall_seconds,
            },
            "metrics": {
                **_fields(r, "messages", "delivered", "max_cpu_seconds",
                          "cpu_units", "worker_cpu_seconds",
                          "worker_processed"),
                "calibration_seconds": r.calibration,
                "capacity_per_cpu_second": r.capacity,
                "speedup_vs_1w": _relative(base, r, "cpu_units"),
            },
        },
        # two multiprocess CPU measurements; a serialized fabric pushes
        # the cost toward 2-4x
        gate=Gate("fabric_scaling_cost", tolerance=1.35, spread=1.17),
    ),
    Figure(
        "BENCH_fabric_churn", "fabric_churn",
        "Fabric churn: seeded join/leave under a 15%-lossy morph chain "
        "(virtual time)",
        rows=lambda quick: [bench_fabric_churn()],
        columns=("published", "delivered", "dup", "handoffs", "forwarded",
                 "epochs", "exactly-once"),
        cells=lambda r, _: (
            r.published, f"{r.delivered_v1}+{r.delivered_v0}", r.duplicates,
            r.handoffs, r.forwarded, r.epochs, _yes(r.exactly_once),
        ),
        workload=lambda r, _: {
            "label": "seed11",
            "metrics": _fields(
                r, "published", "delivered_v1", "delivered_v0", "duplicates",
                "handoffs", "forwarded", "redirects", "epochs", "exactly_once",
            ),
        },
    ),
    Figure(
        "BENCH_recovery", "fabric_recovery",
        "Fabric recovery: unavailability window and events lost vs crash "
        "timing, journaled vs ablation (virtual time)",
        rows=lambda quick: bench_fabric_recovery(messages=24 if quick else 40),
        columns=("arm", "published", "delivered", "lost", "tail-dup",
                 "replayed", "unavail(ms)", "exactly-once"),
        cells=lambda r, _: (
            r.label, r.published, r.delivered, r.lost, r.tail_duplicates,
            r.replayed, format_ms(r.unavailability_seconds),
            _yes(r.exactly_once),
        ),
        workload=lambda r, _: {
            "label": r.label,
            "metrics": _fields(
                r, "crash_fraction", "journaled", "published", "delivered",
                "lost", "tail_duplicates", "replayed",
                "unavailability_seconds", "exactly_once",
            ),
        },
    ),
    Figure(
        "BENCH_projection", "projection",
        "Projection push-down: narrow subscriber (2 of 8 fields live), "
        "full format vs negotiated projection",
        rows=lambda quick: fig_projection(
            messages=512 if quick else 2048, rounds=2 if quick else 3
        ),
        columns=("arm", "fields", "wire(B)", "wall(ms)", "us/msg",
                 "bytes vs full", "speedup vs full"),
        cells=lambda r, base: (
            r.label, r.fields_sent, r.wire_bytes, format_ms(r.wall.best),
            f"{r.per_message_seconds * 1e6:.2f}",
            f"{_relative(base, r, 'wire_bytes'):.2f}x",
            f"{_relative(base, r, 'per_message_seconds'):.2f}x",
        ),
        # The full arm anchors the ratio and carries no gate metric; wire
        # sizes are deterministic format properties and ride as metrics.
        workload=lambda r, base: {
            "label": r.label,
            "timings": {
                **({} if r is base else {"projection_relative_cost":
                    _relative(r, base, "per_message_seconds")}),
                "wall_seconds": r.wall.best,
                "wall_mean_seconds": r.wall.mean,
            },
            "metrics": {
                **_fields(r, "messages", "fields_sent", "per_message_seconds"),
                "wire_bytes_per_message": r.wire_bytes,
                "bytes_reduction_vs_full": _relative(base, r, "wire_bytes"),
                "speedup_vs_full": _relative(base, r, "per_message_seconds"),
            },
        },
        # two wall-clocked virtual-network drains of one run
        gate=Gate("projection_relative_cost", tolerance=1.35, spread=1.14),
    ),
    Figure(
        "BENCH_table1", "table1_sizes",
        "Table 1: ChannelOpenResponse message size (KB)",
        rows=lambda quick: table1_sizes(
            [kb for kb in TABLE1_SIZES_KB if not quick or kb <= 10]
        ),
        columns=("target", "Unencoded v2.0", "PBIO Encoded v2.0",
                 "Unencoded v1.0", "XML v2.0", "XML v1.0"),
        cells=lambda r, _: (
            format_kb(int(r.target_kb * 1000)), format_kb(r.unencoded_v2),
            format_kb(r.pbio_v2), format_kb(r.unencoded_v1),
            format_kb(r.xml_v2), format_kb(r.xml_v1),
        ),
        workload=lambda r, _: {
            "label": f"{r.target_kb:g}KB",
            "sizes_bytes": _fields(r, "unencoded_v2", "pbio_v2",
                                   "unencoded_v1", "xml_v2", "xml_v1"),
        },
        gate=Gate("sizes_bytes", tolerance=1.0, spread=1.0, exact=True),
    ),
)


def _record(figure: Figure, rows: Sequence[Any]) -> Dict[str, Any]:
    """One BENCH_* JSON record (sans stage breakdown)."""
    return {
        "figure": figure.name,
        "workloads": [figure.workload(row, rows[0]) for row in rows],
    }


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", allow_abbrev=False,
        description="Print every evaluation figure (Figures 8-10, Table 1, "
                    "the ablations and the system figures) as text.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="sizes up to 10 KB instead of 1 MB")
    parser.add_argument("--json", metavar="PATH",
                        help="write the BENCH_* records to PATH")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="gate this run on a recorded --json document")
    parser.add_argument("--obs", action="store_true",
                        help="attach a per-stage breakdown to every figure")
    args = parser.parse_args(argv)
    baseline = load_baseline(args.compare) if args.compare else None
    registry: "Optional[obs.Registry]" = None
    if args.obs:
        registry = obs.Registry()
        # the stage breakdown reads *.seconds: time every call, not 1 in N
        obs.enable(registry=registry, sample_every=1)
    payload: Dict[str, Any] = {
        "schema": SCHEMA, "quick": args.quick, "obs": args.obs,
    }
    try:
        for figure in FIGURES:
            if registry is not None:
                registry.reset()  # isolate each figure's stage numbers
                obs.get_tracer().clear()
            rows = figure.rows(args.quick)
            print(f"\n== {figure.title} ==")
            print(format_table(
                figure.columns, [figure.cells(row, rows[0]) for row in rows]
            ))
            record = payload[figure.key] = _record(figure, rows)
            if registry is not None:
                record["stages"] = stage_breakdown(registry)
                if record["stages"]["timings"]:
                    print("\n-- stage breakdown (obs) --")
                    print(format_stage_table(record["stages"]))
    finally:
        if args.obs:
            obs.disable(reset=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote JSON results to {args.json}")
    if baseline is not None:
        table, failures = compare_to_baseline(
            {f.key: f.gate for f in FIGURES if f.gate is not None},
            payload, baseline,
        )
        print(f"\n== Regression gate vs {args.compare} ==")
        print(format_table(GATE_COLUMNS, table))
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
