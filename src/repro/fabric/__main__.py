"""Fabric smoke check — a real multi-process deployment in miniature.

Usage::

    python -m repro.fabric --smoke [--workers N] [--messages M]

Spawns N worker processes on UDP loopback (each hosting one
:class:`~repro.fabric.worker.FabricWorker` and its own directory
replica), publishes M ChannelOpenResponse v2.0 events round-robin over
ownership-balanced channels, and asserts every one was morphed and
delivered exactly once.  Then replays the seeded churn scenario on the
simulated transport and asserts the exactly-once invariant held across
join/leave handoffs, and runs the crash-recovery A/B: the journaled
arm must survive a mid-stream owner kill with zero loss while the
no-journal ablation arm demonstrably loses or re-delivers events.
Exit 0 on success, 1 on any violation — the CI stage that guards the
subsystem end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.fabric import (
    bench_fabric_churn,
    bench_fabric_recovery,
    bench_fabric_scaling,
)


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric", allow_abbrev=False, description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run the smoke check (the only mode)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes to spawn (default 2)")
    parser.add_argument("--messages", type=int, default=240, metavar="M",
                        help="events to publish (default 240)")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.print_help()
        return 2
    workers, messages = args.workers, args.messages

    failures: List[str] = []
    [row] = bench_fabric_scaling(
        worker_counts=(workers,), messages=messages
    )
    print(
        f"socket fleet: {row.workers} workers, {row.delivered}/"
        f"{row.messages} delivered in {row.wall_seconds * 1000:.0f} ms "
        f"(busiest worker {row.max_cpu_seconds * 1000:.1f} ms CPU)"
    )
    print(f"  per-worker processed: {row.worker_processed}")
    if row.delivered != messages:
        failures.append(
            f"socket fleet lost messages: {row.delivered}/{messages}"
        )
    if sum(row.worker_processed.values()) != messages:
        failures.append(
            "worker processed counts do not add up to the publish count: "
            f"{row.worker_processed}"
        )
    if min(row.worker_processed.values(), default=0) == 0 and workers > 1:
        failures.append(
            f"a worker processed nothing: {row.worker_processed}"
        )

    churn = bench_fabric_churn()
    print(
        f"sim churn: {churn.published} published, "
        f"{churn.delivered_v1}+{churn.delivered_v0} delivered, "
        f"{churn.duplicates} duplicates, {churn.handoffs} handoffs, "
        f"{churn.forwarded} forwarded, {churn.epochs} epochs"
    )
    if not churn.exactly_once:
        failures.append(
            "churn scenario violated exactly-once: "
            f"{churn.delivered_v1}+{churn.delivered_v0} of "
            f"{churn.published}, {churn.duplicates} duplicates"
        )
    if churn.handoffs == 0:
        failures.append("churn scenario produced no handoffs")

    recovery = bench_fabric_recovery(messages=24, crash_fractions=(0.5,))
    for row in recovery:
        print(
            f"sim recovery [{row.label}]: {row.delivered}/{row.published} "
            f"delivered, {row.lost} lost, {row.tail_duplicates} tail "
            f"duplicates suppressed, {row.replayed} replayed, "
            f"unavailable {row.unavailability_seconds * 1000:.0f} ms"
        )
    journal_rows = [r for r in recovery if r.journaled]
    ablation_rows = [r for r in recovery if not r.journaled]
    if any(not r.exactly_once for r in journal_rows):
        failures.append(
            "journaled recovery lost events: "
            + ", ".join(f"{r.label}: {r.lost}" for r in journal_rows)
        )
    if all(r.lost == 0 and r.tail_duplicates == 0 for r in ablation_rows):
        failures.append(
            "ablation arm showed no loss or duplicates — the crash "
            "scenario is not exercising the journal"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("fabric smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
