"""Plain-text table rendering for the benchmark harness, and the
``--obs`` stage breakdown it prints under a figure."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table (right-aligned numeric columns)."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_ms(seconds: float) -> str:
    """Milliseconds with sensible precision across 5 decades."""
    ms = seconds * 1e3
    if ms >= 100:
        return f"{ms:.0f}"
    if ms >= 1:
        return f"{ms:.2f}"
    return f"{ms:.4f}"


def format_kb(size_bytes: int) -> str:
    kb = size_bytes / 1000
    if kb >= 100:
        return f"{kb:.0f}"
    if kb >= 1:
        return f"{kb:.1f}"
    return f"{kb:.2f}"


def stage_breakdown(registry: Any) -> Dict[str, Any]:
    """Compact per-stage summary of what one figure's run left in an obs
    *registry*: every ``*.seconds`` histogram (where the time went),
    every other histogram, and every counter (how much work)."""
    timings: Dict[str, Any] = {}
    distributions: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    for instrument in registry.instruments():
        key = instrument.name + instrument.label_suffix()
        if instrument.kind == "histogram":
            if not instrument.count:
                continue
            suffix = "_seconds" if instrument.name.endswith(".seconds") else ""
            (timings if suffix else distributions)[key] = {
                "count": instrument.count,
                "total" + suffix: instrument.sum,
                "mean" + suffix: instrument.mean,
                "p50" + suffix: instrument.p50,
                "p95" + suffix: instrument.p95,
                "p99" + suffix: instrument.p99,
            }
        elif instrument.kind == "counter" and instrument.value:
            counters[key] = instrument.value
    return {"timings": timings, "distributions": distributions,
            "counters": counters}


def format_stage_table(stages: Dict[str, Any]) -> str:
    """The ``timings`` of a :func:`stage_breakdown` as a table."""
    return format_table(
        ["stage", "count", "total(ms)", "mean(ms)", "p95(ms)"],
        [
            (name, entry["count"], format_ms(entry["total_seconds"]),
             format_ms(entry["mean_seconds"]), format_ms(entry["p95_seconds"]))
            for name, entry in sorted(stages["timings"].items())
        ],
    )
