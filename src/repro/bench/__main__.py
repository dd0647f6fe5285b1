"""Print every evaluation artifact (Figures 8-10, Table 1) as text.

Usage::

    python -m repro.bench                  # figure sizes up to 1 MB
    python -m repro.bench --quick          # up to 10 KB (CI-friendly)
    python -m repro.bench --json out.json  # machine-readable BENCH_* results
    python -m repro.bench --obs            # attach the observability
                                           # registry: per-stage breakdown
                                           # (decode vs transform vs codegen)
                                           # per figure, printed and included
                                           # in the JSON

The ``--json`` document carries one ``BENCH_fig8`` / ``BENCH_fig9`` /
``BENCH_fig10`` / ``BENCH_fusion`` / ``BENCH_batch`` /
``BENCH_projection`` / ``BENCH_recovery`` / ``BENCH_telemetry``
record per figure — ``{figure,
workloads: [{label, unencoded_bytes, timings}], stages?}`` — so later
perf PRs can diff per-stage numbers instead of end-to-end wall time.

``--compare BASELINE.json`` re-runs the figures and gates on the
committed baseline: per figure, the geometric mean of the current/
baseline PBIO-time ratios over overlapping workload labels must stay
within :data:`REGRESSION_TOLERANCE`; any figure above it fails the run
(nonzero exit) — the perf regression gate CI runs on every change.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.bench.fabric import (
    bench_fabric_churn,
    bench_fabric_recovery,
    bench_fabric_scaling,
    calibration_seconds,
)
from repro.bench.figures import (
    ComparisonRow,
    fig8_encoding,
    fig9_decoding,
    fig10_morphing,
    fig_batching,
    fig_fusion_ablation,
    fig_projection,
    fig_reliability,
    table1_sizes,
)
from repro.bench.reporting import format_kb, format_ms, format_table
from repro.bench.telemetry import bench_telemetry
from repro.bench.workloads import FIGURE_SIZES
from repro.obs.metrics import Histogram


#: A figure fails the ``--compare`` gate when its geometric-mean
#: current/baseline timing ratio exceeds this (1.15 = >15% slower).
REGRESSION_TOLERANCE = 1.15

#: Timing metrics the gate compares, in priority order (the first one a
#: workload carries wins): end-to-end PBIO time for the comparison
#: figures, and two *self-normalized* intra-run ratios — the ablation's
#: fused-over-staged cost and the fabric bench's per-fleet cost over
#: the same run's 1-worker row.  Each ratio's sides share the host
#: regime, so machine-speed drift cancels and the gate tracks exactly
#: what those figures demonstrate (the fusion win; horizontal scaling).
#: ``fused_seconds`` stays listed after the ratio for old baselines.
#: ``batch_relative_cost`` is the batching figure's intra-run ratio —
#: batched per-message time over the same run's unbatched arm.
_GATE_METRICS = (
    "pbio_seconds",
    "fused_relative_cost",
    "fused_seconds",
    "fabric_scaling_cost",
    "batch_relative_cost",
    "projection_relative_cost",
)

#: Per-figure tolerance overrides.  The fabric scaling cost is a ratio
#: of two multiprocess CPU measurements, each noisier than a best-of-K
#: single-process wall loop, so its gate is wider: 1.35 still catches a
#: genuine loss of horizontal scaling (a serialized fabric would push
#: the cost ratio toward 2-4x) without tripping on scheduler noise.
#: The batching cost ratio divides two wall-clocked virtual-network
#: drains; scheduler noise hits both sides but not identically, so its
#: gate matches the fabric one.  With a ~0.15 baseline ratio (a ~6x
#: speedup at batch >= 64), 1.35 still fails the gate long before the
#: speedup erodes to the 3x the batching work is meant to guarantee.
#: The projection cost ratio is the same construction as the batching
#: one (two wall-clocked virtual-network drains in one run), so its gate
#: matches; with a ~0.6 baseline ratio, 1.35 fails long before the
#: projected arm stops being a win at all.
_GATE_TOLERANCES = {
    "BENCH_fabric": 1.35,
    "BENCH_batch": 1.35,
    "BENCH_projection": 1.35,
}


def _rows_record(figure: str, rows: "List[ComparisonRow]") -> Dict[str, Any]:
    """One BENCH_fig* JSON record (sans stage breakdown)."""
    return {
        "figure": figure,
        "workloads": [
            {
                "label": row.label,
                "unencoded_bytes": row.unencoded_bytes,
                "timings": {
                    "pbio_seconds": row.pbio.best,
                    "pbio_mean_seconds": row.pbio.mean,
                    "xml_seconds": row.xml.best,
                    "xml_mean_seconds": row.xml.mean,
                    "ratio": row.ratio,
                },
            }
            for row in rows
        ],
    }


def _ablation_record(rows) -> Dict[str, Any]:
    """The BENCH_fusion JSON record.

    The gated timing is ``fused_relative_cost`` — fused over staged
    time, the inverse of the figure's speedup column.  Both arms run
    back-to-back on the same wire, so host-speed drift cancels and the
    gate tracks exactly what the ablation demonstrates: the fusion win.
    (Absolute morph-path latency is gated by ``BENCH_fig10``, whose
    pipeline takes the fused route.)"""
    return {
        "figure": "fusion_ablation",
        "chain_length": 2,
        "workloads": [
            {
                "label": row.label,
                "unencoded_bytes": row.unencoded_bytes,
                "timings": {
                    "fused_relative_cost": (
                        row.fused.best / row.staged.best
                        if row.staged.best
                        else 1.0
                    ),
                    "fused_seconds": row.fused.best,
                    "staged_seconds": row.staged.best,
                    "interpreted_seconds": row.interpreted.best,
                    "speedup": row.speedup,
                },
            }
            for row in rows
        ],
    }


def _compare_to_baseline(
    payload: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = REGRESSION_TOLERANCE,
) -> "Tuple[Dict[str, float], List[str]]":
    """Per-figure geometric mean of current/baseline timing ratios over
    the workload labels both documents carry.  Returns ``(geomeans,
    failures)`` — a figure missing from either side is skipped, not
    failed (quick runs gate against a full baseline)."""
    geomeans: Dict[str, float] = {}
    failures: List[str] = []
    for key in sorted(payload):
        record = payload[key]
        base = baseline.get(key)
        if not (
            isinstance(record, dict)
            and isinstance(base, dict)
            and "workloads" in record
            and "workloads" in base
        ):
            continue
        base_by_label = {w["label"]: w for w in base["workloads"]}
        ratios: List[float] = []
        for work in record["workloads"]:
            other = base_by_label.get(work["label"])
            timings = work.get("timings")
            base_timings = other.get("timings") if other else None
            if not timings or not base_timings:
                continue
            for metric in _GATE_METRICS:
                current, reference = timings.get(metric), base_timings.get(metric)
                if current and reference:
                    ratios.append(current / reference)
                    break
        if not ratios:
            continue
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        geomeans[key] = geomean
        figure_tolerance = _GATE_TOLERANCES.get(key, tolerance)
        if geomean > figure_tolerance:
            failures.append(
                f"{key}: geomean current/baseline = {geomean:.3f} "
                f"(> {figure_tolerance:.2f} tolerance)"
            )
    return geomeans, failures


def _stage_breakdown(registry: "obs.Registry") -> Dict[str, Any]:
    """Compact per-stage summary of one figure's run: every ``*.seconds``
    histogram (where the time went) plus every counter (how much work)."""
    timings: Dict[str, Any] = {}
    distributions: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    for instrument in registry.instruments():
        key = instrument.name + instrument.label_suffix()
        if isinstance(instrument, Histogram):
            if not instrument.count:
                continue
            entry = {
                "count": instrument.count,
                "total": instrument.sum,
                "mean": instrument.mean,
                "p50": instrument.p50,
                "p95": instrument.p95,
                "p99": instrument.p99,
            }
            if instrument.name.endswith(".seconds"):
                timings[key] = {
                    "count": entry["count"],
                    "total_seconds": entry["total"],
                    "mean_seconds": entry["mean"],
                    "p50_seconds": entry["p50"],
                    "p95_seconds": entry["p95"],
                    "p99_seconds": entry["p99"],
                }
            else:
                distributions[key] = entry
        elif instrument.kind == "counter" and instrument.value:
            counters[key] = instrument.value
    return {"timings": timings, "distributions": distributions,
            "counters": counters}


def _print_stage_table(stages: Dict[str, Any]) -> None:
    timings = stages["timings"]
    if timings:
        print("\n-- stage breakdown (obs) --")
        print(
            format_table(
                ["stage", "count", "total(ms)", "mean(ms)", "p95(ms)"],
                [
                    (
                        name,
                        entry["count"],
                        format_ms(entry["total_seconds"]),
                        format_ms(entry["mean_seconds"]),
                        format_ms(entry["p95_seconds"]),
                    )
                    for name, entry in sorted(timings.items())
                ],
            )
        )


def main(argv: "Optional[List[str]]" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--quick" in args:
        sizes = {k: v for k, v in FIGURE_SIZES.items() if v <= 10_000}
        table_kb = [0.1, 1.0, 10.0]
    else:
        sizes = dict(FIGURE_SIZES)
        table_kb = [0.1, 1.0, 10.0, 100.0, 1000.0]
    json_path = None
    if "--json" in args:
        index = args.index("--json")
        if index + 1 >= len(args):
            print("error: --json requires a file path", file=sys.stderr)
            return 2
        json_path = args[index + 1]
    compare_path = None
    if "--compare" in args:
        index = args.index("--compare")
        if index + 1 >= len(args):
            print("error: --compare requires a baseline JSON path",
                  file=sys.stderr)
            return 2
        compare_path = args[index + 1]
    obs_mode = "--obs" in args
    registry: "Optional[obs.Registry]" = None
    if obs_mode:
        registry = obs.Registry()
        # the stage breakdown reads *.seconds: time every call, not 1 in N
        obs.enable(registry=registry, sample_every=1)

    # Machine-speed yardstick, bracketing the whole run (best of the two
    # draws): a fixed wall-clocked codec loop the gate uses to normalize
    # wall-time ratios against the committed baseline's machine.
    wall_calibration = calibration_seconds(clock=time.perf_counter)

    payload: Dict[str, Any] = {
        "schema": "repro-bench/v1",
        "quick": "--quick" in args,
        "obs": obs_mode,
    }

    def comparison(key: str, figure: str, title: str, rows) -> None:
        print(f"\n== {title} ==")
        print(
            format_table(
                ["size", "unencoded(B)", "PBIO(ms)", "XML(ms)", "XML/PBIO"],
                [
                    (
                        r.label,
                        r.unencoded_bytes,
                        format_ms(r.pbio.best),
                        format_ms(r.xml.best),
                        f"{r.ratio:.1f}x",
                    )
                    for r in rows
                ],
            )
        )
        record = _rows_record(figure, rows)
        if obs_mode and registry is not None:
            record["stages"] = _stage_breakdown(registry)
            _print_stage_table(record["stages"])
        payload[key] = record

    figures = [
        ("BENCH_fig8", "fig8_encoding", "Figure 8: encoding cost",
         fig8_encoding),
        ("BENCH_fig9", "fig9_decoding", "Figure 9: decoding cost (no evolution)",
         fig9_decoding),
        ("BENCH_fig10", "fig10_morphing",
         "Figure 10: decoding cost with evolution (morphing vs XSLT)",
         fig10_morphing),
    ]
    for key, figure, title, fn in figures:
        if obs_mode and registry is not None:
            registry.reset()  # isolate each figure's stage numbers
            obs.get_tracer().clear()
        comparison(key, figure, title, fn(sizes))

    if obs_mode and registry is not None:
        registry.reset()
        obs.get_tracer().clear()
    ablation_rows = fig_fusion_ablation(sizes)
    print("\n== Fusion ablation: morphing latency, chain length 2 "
          "(v2.0 wire -> v0.0 reader) ==")
    print(
        format_table(
            ["size", "fused(ms)", "staged(ms)", "interp(ms)", "staged/fused"],
            [
                (
                    r.label,
                    format_ms(r.fused.best),
                    format_ms(r.staged.best),
                    format_ms(r.interpreted.best),
                    f"{r.speedup:.2f}x",
                )
                for r in ablation_rows
            ],
        )
    )
    ablation_record = _ablation_record(ablation_rows)
    if obs_mode and registry is not None:
        ablation_record["stages"] = _stage_breakdown(registry)
        _print_stage_table(ablation_record["stages"])
    payload["BENCH_fusion"] = ablation_record

    reliability_rows = fig_reliability(
        messages=60 if "--quick" in args else 200
    )
    print("\n== Reliability: goodput and p99 delivery latency vs link "
          "loss (virtual time) ==")
    print(
        format_table(
            ["loss", "goodput(rel)", "goodput(raw)", "p99(rel)",
             "p99(raw)", "retries"],
            [
                (
                    f"{r.loss_pct:g}%",
                    f"{r.reliable_goodput:.3f}",
                    f"{r.raw_goodput:.3f}",
                    format_ms(r.reliable_p99_seconds),
                    format_ms(r.raw_p99_seconds),
                    r.retries,
                )
                for r in reliability_rows
            ],
        )
    )
    # Deliberately a "metrics" payload, not "timings": these are virtual-
    # clock properties of the simulation, deterministic for a seed, and
    # must not participate in the wall-time regression gate.
    payload["BENCH_reliability"] = {
        "figure": "reliability",
        "workloads": [
            {
                "label": f"{r.loss_pct:g}%",
                "metrics": {
                    "messages": r.messages,
                    "reliable_goodput": r.reliable_goodput,
                    "raw_goodput": r.raw_goodput,
                    "reliable_p99_seconds": r.reliable_p99_seconds,
                    "raw_p99_seconds": r.raw_p99_seconds,
                    "retries": r.retries,
                },
            }
            for r in reliability_rows
        ],
    }

    fabric_counts = (1, 2, 4) if "--quick" in args else (1, 2, 4, 8)
    fabric_rows = bench_fabric_scaling(worker_counts=fabric_counts)
    # Speedups compare *calibrated* per-row costs — raw capacities from
    # different time windows would fold host-speed drift into the ratio.
    base_units = fabric_rows[0].cpu_units
    print("\n== Fabric scaling: aggregate morphing capacity vs worker "
          "processes (UDP loopback) ==")
    print(
        format_table(
            ["fleet", "delivered", "wall(ms)", "maxCPU(ms)", "cpu-units",
             "msg/cpu-s", "capacity vs 1w"],
            [
                (
                    r.label,
                    r.delivered,
                    format_ms(r.wall_seconds),
                    format_ms(r.max_cpu_seconds),
                    f"{r.cpu_units:.1f}",
                    f"{r.capacity:.0f}",
                    f"{base_units / r.cpu_units:.2f}x",
                )
                for r in fabric_rows
            ],
        )
    )
    # ``fabric_scaling_cost`` (this fleet's calibrated cost over the
    # same run's 1-worker cost — the inverse of the speedup column) is
    # the gated timing for every scaled row; the 1w row anchors the
    # ratio and carries no gate metric.  Absolute CPU seconds and units
    # ride along as metrics: worker CPU time mixes interpreter and
    # kernel work that drift differently with host speed, so absolute
    # values are not comparable across runs.
    payload["BENCH_fabric"] = {
        "figure": "fabric_scaling",
        "workloads": [
            {
                "label": r.label,
                "timings": {
                    **(
                        {"fabric_scaling_cost": r.cpu_units / base_units}
                        if r is not fabric_rows[0]
                        else {}
                    ),
                    "wall_seconds": r.wall_seconds,
                },
                "metrics": {
                    "messages": r.messages,
                    "delivered": r.delivered,
                    "max_cpu_seconds": r.max_cpu_seconds,
                    "cpu_units": r.cpu_units,
                    "calibration_seconds": r.calibration,
                    "capacity_per_cpu_second": r.capacity,
                    "speedup_vs_1w": base_units / r.cpu_units,
                    "worker_cpu_seconds": r.worker_cpu_seconds,
                    "worker_processed": r.worker_processed,
                },
            }
            for r in fabric_rows
        ],
    }

    churn = bench_fabric_churn()
    print("\n== Fabric churn: seeded join/leave under a 15%-lossy morph "
          "chain (virtual time) ==")
    print(
        format_table(
            ["published", "delivered", "dup", "handoffs", "forwarded",
             "epochs", "exactly-once"],
            [
                (
                    churn.published,
                    f"{churn.delivered_v1}+{churn.delivered_v0}",
                    churn.duplicates,
                    churn.handoffs,
                    churn.forwarded,
                    churn.epochs,
                    "yes" if churn.exactly_once else "NO",
                )
            ],
        )
    )
    # Deterministic virtual-clock scenario -> metrics only, no timings
    # (same reasoning as BENCH_reliability).
    payload["BENCH_fabric_churn"] = {
        "figure": "fabric_churn",
        "workloads": [
            {
                "label": f"seed{11}",
                "metrics": {
                    "published": churn.published,
                    "delivered_v1": churn.delivered_v1,
                    "delivered_v0": churn.delivered_v0,
                    "duplicates": churn.duplicates,
                    "handoffs": churn.handoffs,
                    "forwarded": churn.forwarded,
                    "redirects": churn.redirects,
                    "epochs": churn.epochs,
                    "exactly_once": churn.exactly_once,
                },
            }
        ],
    }

    recovery_rows = bench_fabric_recovery(
        messages=24 if "--quick" in args else 40
    )
    print("\n== Fabric recovery: unavailability window and events lost "
          "vs crash timing, journaled vs ablation (virtual time) ==")
    print(
        format_table(
            ["arm", "published", "delivered", "lost", "tail-dup",
             "replayed", "unavail(ms)", "exactly-once"],
            [
                (
                    r.label,
                    r.published,
                    r.delivered,
                    r.lost,
                    r.tail_duplicates,
                    r.replayed,
                    format_ms(r.unavailability_seconds),
                    "yes" if r.exactly_once else "NO",
                )
                for r in recovery_rows
            ],
        )
    )
    # Deterministic virtual-clock scenario -> metrics only, no timings
    # (same reasoning as BENCH_reliability): the unavailability window
    # is a property of the lease/recovery protocol, not of this host.
    payload["BENCH_recovery"] = {
        "figure": "fabric_recovery",
        "workloads": [
            {
                "label": r.label,
                "metrics": {
                    "crash_fraction": r.crash_fraction,
                    "journaled": r.journaled,
                    "published": r.published,
                    "delivered": r.delivered,
                    "lost": r.lost,
                    "tail_duplicates": r.tail_duplicates,
                    "replayed": r.replayed,
                    "unavailability_seconds": r.unavailability_seconds,
                    "exactly_once": r.exactly_once,
                },
            }
            for r in recovery_rows
        ],
    }

    telemetry_rows = bench_telemetry(
        steps=240 if "--quick" in args else 600,
        rounds=3 if "--quick" in args else 5,
    )
    print("\n== Telemetry plane: e2e fabric cost with the agent off / "
          "scraping at 1s / at 100ms (self-normalized) ==")
    print(
        format_table(
            ["arm", "scrape", "wall(ms)", "events", "deltas", "overhead"],
            [
                (
                    r.label,
                    "-" if r.scrape_interval is None
                    else f"{r.scrape_interval:g}s",
                    format_ms(r.wall_seconds),
                    r.events,
                    r.deltas,
                    f"{r.overhead_percent:+.1f}%",
                )
                for r in telemetry_rows
            ],
        )
    )
    # Metrics only, no gated timings: the overhead ratio divides two
    # in-process wall-clocked drains, too scheduler-noisy for the gate.
    # The acceptance target lives in the table — the 1s arm should sit
    # within a few percent of the off arm.
    payload["BENCH_telemetry"] = {
        "figure": "telemetry_overhead",
        "workloads": [
            {
                "label": r.label,
                "metrics": {
                    "scrape_interval": r.scrape_interval,
                    "wall_seconds": r.wall_seconds,
                    "events": r.events,
                    "deltas": r.deltas,
                    "overhead_ratio": r.overhead_ratio,
                },
            }
            for r in telemetry_rows
        ],
    }

    batch_rows = fig_batching(
        messages=1024 if "--quick" in args else 4096,
        rounds=2 if "--quick" in args else 3,
    )
    batch_base = batch_rows[0]
    print("\n== Wire batching: per-message cost, BATCH1 frames vs one "
          "datagram per message (reliable endpoints) ==")
    print(
        format_table(
            ["arm", "messages", "frames", "wall(ms)", "us/msg",
             "speedup vs single"],
            [
                (
                    r.label,
                    r.messages,
                    r.frames,
                    format_ms(r.wall.best),
                    f"{r.per_message_seconds * 1e6:.2f}",
                    f"{batch_base.per_message_seconds / r.per_message_seconds:.2f}x",
                )
                for r in batch_rows
            ],
        )
    )
    # ``batch_relative_cost`` (this arm's per-message time over the same
    # run's unbatched arm — the inverse of the speedup column) is the
    # gated timing for every batched row; the single arm anchors the
    # ratio and carries no gate metric.  Same self-normalization story
    # as ``fabric_scaling_cost``: both sides share one host regime, so
    # the gate tracks the batching win itself, not machine speed.
    payload["BENCH_batch"] = {
        "figure": "batching",
        "workloads": [
            {
                "label": r.label,
                "timings": {
                    **(
                        {
                            "batch_relative_cost": (
                                r.per_message_seconds
                                / batch_base.per_message_seconds
                            )
                        }
                        if r is not batch_base
                        else {}
                    ),
                    "wall_seconds": r.wall.best,
                    "wall_mean_seconds": r.wall.mean,
                },
                "metrics": {
                    "messages": r.messages,
                    "frames": r.frames,
                    "batch_size": r.batch_size,
                    "per_message_seconds": r.per_message_seconds,
                    "speedup_vs_single": (
                        batch_base.per_message_seconds / r.per_message_seconds
                    ),
                },
            }
            for r in batch_rows
        ],
    }

    projection_rows = fig_projection(
        messages=512 if "--quick" in args else 2048,
        rounds=2 if "--quick" in args else 3,
    )
    projection_base = projection_rows[0]
    print("\n== Projection push-down: narrow subscriber (2 of 8 fields "
          "live), full format vs negotiated projection ==")
    print(
        format_table(
            ["arm", "fields", "wire(B)", "wall(ms)", "us/msg",
             "bytes vs full", "speedup vs full"],
            [
                (
                    r.label,
                    r.fields_sent,
                    r.wire_bytes,
                    format_ms(r.wall.best),
                    f"{r.per_message_seconds * 1e6:.2f}",
                    f"{projection_base.wire_bytes / r.wire_bytes:.2f}x",
                    f"{projection_base.per_message_seconds / r.per_message_seconds:.2f}x",
                )
                for r in projection_rows
            ],
        )
    )
    # ``projection_relative_cost`` (the projected arm's per-message time
    # over the same run's full-format arm) is the gated timing; the full
    # arm anchors the ratio and carries no gate metric.  Wire sizes are
    # deterministic format properties, so they ride along as metrics.
    payload["BENCH_projection"] = {
        "figure": "projection",
        "workloads": [
            {
                "label": r.label,
                "timings": {
                    **(
                        {
                            "projection_relative_cost": (
                                r.per_message_seconds
                                / projection_base.per_message_seconds
                            )
                        }
                        if r is not projection_base
                        else {}
                    ),
                    "wall_seconds": r.wall.best,
                    "wall_mean_seconds": r.wall.mean,
                },
                "metrics": {
                    "messages": r.messages,
                    "fields_sent": r.fields_sent,
                    "wire_bytes_per_message": r.wire_bytes,
                    "bytes_reduction_vs_full": (
                        projection_base.wire_bytes / r.wire_bytes
                    ),
                    "per_message_seconds": r.per_message_seconds,
                    "speedup_vs_full": (
                        projection_base.per_message_seconds
                        / r.per_message_seconds
                    ),
                },
            }
            for r in projection_rows
        ],
    }

    print("\n== Table 1: ChannelOpenResponse message size (KB) ==")
    rows = table1_sizes(table_kb)
    payload["BENCH_table1"] = {
        "figure": "table1_sizes",
        "workloads": [
            {
                "label": f"{r.target_kb:g}KB",
                "sizes_bytes": {
                    "unencoded_v2": r.unencoded_v2,
                    "pbio_v2": r.pbio_v2,
                    "unencoded_v1": r.unencoded_v1,
                    "xml_v2": r.xml_v2,
                    "xml_v1": r.xml_v1,
                },
            }
            for r in rows
        ],
    }
    print(
        format_table(
            ["", *(format_kb(int(r.target_kb * 1000)) for r in rows)],
            [
                ["Unencoded v2.0", *(format_kb(r.unencoded_v2) for r in rows)],
                ["PBIO Encoded v2.0", *(format_kb(r.pbio_v2) for r in rows)],
                ["Unencoded v1.0", *(format_kb(r.unencoded_v1) for r in rows)],
                ["XML v2.0", *(format_kb(r.xml_v2) for r in rows)],
                ["XML v1.0", *(format_kb(r.xml_v1) for r in rows)],
            ],
        )
    )
    if obs_mode:
        obs.disable(reset=True)
    wall_calibration = min(
        wall_calibration, calibration_seconds(clock=time.perf_counter)
    )
    payload["calibration_seconds"] = wall_calibration
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote JSON results to {json_path}")
    if compare_path is not None:
        try:
            with open(compare_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {compare_path}: {exc}",
                  file=sys.stderr)
            return 2
        geomeans, failures = _compare_to_baseline(payload, baseline)
        print(f"\n== Regression gate vs {compare_path} ==")
        baseline_cal = baseline.get("calibration_seconds")
        if baseline_cal:
            # Diagnostic only: how fast this host is running relative to
            # the baseline machine (reading a FAIL below, check this
            # first — a factor far from 1.0 means host drift, so refresh
            # the baseline rather than hunting a phantom regression).
            print(
                "machine-speed factor (current/baseline calibration): "
                f"{wall_calibration / baseline_cal:.3f}"
            )
        print(
            format_table(
                ["figure", "geomean(current/baseline)", "status"],
                [
                    (
                        key,
                        f"{ratio:.3f}",
                        "FAIL"
                        if ratio > _GATE_TOLERANCES.get(
                            key, REGRESSION_TOLERANCE
                        )
                        else "ok",
                    )
                    for key, ratio in sorted(geomeans.items())
                ],
            )
        )
        if failures:
            for failure in failures:
                print(f"regression: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
