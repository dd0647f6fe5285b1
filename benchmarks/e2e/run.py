"""The repo's end-to-end benchmark: publish -> deliver, with a layer budget.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--json OUT] [--spans OUT]
                                  [--repeat N] [--record]

With ``--workload`` one workload runs in this process and the last line
of standard output is the result object ``BENCHMARK.json`` describes.
Without it every workload runs, each in a fresh process, one after
another, and a table is printed; ``--repeat N`` runs N such sets and
holds their spread against the bounds, ``--record`` appends the set to
``history.jsonl``.  See README.md beside this file.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The script's own directory leaves the import path (trace.py must not
# shadow the standard library's module); the benchmark is imported as
# the package ``benchmarks.e2e``, the program from ``src``.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

WORK = HERE / ".work"
HISTORY = HERE / "history.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: set-ups per plain run; ``setup_s`` reports their median
SETUPS = 3


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a repository


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_path: Optional[str]) -> Dict[str, Any]:
    from benchmarks.e2e import yardstick

    # Set-up is stated at the reference host speed like every other time:
    # a yardstick pass on both sides of the imports and of each build.
    yard = yardstick.Yardstick()
    passes = [yard.once()]
    from benchmarks.e2e.driver import Driver, now
    from benchmarks.e2e.measure import plain_run, traced_run
    from benchmarks.e2e.workloads import WORKLOADS, make_inputs

    spec = WORKLOADS[name]
    inputs = make_inputs(spec, seed)
    import_s = time.perf_counter() - PROCESS_START - passes[0]
    passes.append(yard.once())
    import_s *= yardstick.speed(*passes)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        build_s = []
        driver = None
        for attempt in range(1 if trace else SETUPS):
            if driver is not None:
                driver.close()
            started = now()
            driver = Driver(spec, inputs, os.path.join(workdir, str(attempt)),
                            yard)
            elapsed = now() - started
            passes.append(yard.once())
            build_s.append(elapsed * yardstick.speed(*passes[-2:]))
        assert driver is not None
        if trace:
            metrics, detail = traced_run(driver, seconds, spans_path)
        else:
            metrics, detail = plain_run(driver, seconds)
            metrics["setup_s"] = import_s + statistics.median(build_s)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        driver.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(declared):
        raise SystemExit(
            "metrics drifted from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )
    return {
        "workload": name,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_speed_index": detail.pop("host_speed_index"),
        "setups_s": build_s,
        "import_s": import_s,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "failed_fraction": driver.failed / max(1, driver.attempted),
        "failures": driver.failures,
        "metrics": {
            key: {"value": value, "unit": declared[key]["unit"]}
            for key, value in metrics.items()
        },
        "detail": detail,
    }


def print_result(result: Dict[str, Any]) -> None:
    print(
        f"# {result['workload']}  commit {result['commit']}  python "
        f"{result['python']}  nproc {result['nproc']}  seed {result['seed']}"
        f"  seconds {result['seconds']:g}  trace {int(result['trace'])}  "
        f"host_speed_index {result['host_speed_index']:.3f}"
    )
    for key, metric in result["metrics"].items():
        print(f"{key:48s} {metric['value']:14.4f} {metric['unit']}")
    paced = result["detail"]["paced"]
    if not result["trace"]:
        print(f"{'deliver_p99_ms (not bounded, see README)':48s} "
              f"{paced['p99_ms']:14.4f} ms")
    print(f"{'paced latency samples':48s} {paced['samples']:14d} count")
    print(f"{'failed_fraction':48s} {result['failed_fraction']:14.6f} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------


def run_set(args: argparse.Namespace, trace: bool) -> Dict[str, Dict[str, Any]]:
    WORK.mkdir(exist_ok=True)
    results = {}
    for name in WORKLOAD_NAMES:
        handle, out = tempfile.mkstemp(suffix=".json", dir=WORK)
        os.close(handle)
        try:
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(int(trace)),
                 "--json", out],
                stdout=subprocess.DEVNULL, timeout=600,
            ).returncode
            results[name] = json.loads(Path(out).read_text(encoding="utf-8"))
        finally:
            os.unlink(out)
        results[name]["exit_code"] = code
    return results


def print_table(results: Dict[str, Dict[str, Any]], declared: Dict[str, Any]
                ) -> None:
    names = list(results)
    print(f"{'metric':46s} {'unit':>9s} " + " ".join(f"{n:>14s}" for n in names))
    for key, meta in declared.items():
        row = " ".join(
            f"{results[n]['metrics'][key]['value']:14.4f}" for n in names
        )
        print(f"{key:46s} {meta['unit']:>9s} {row}")
    if declared is END_TO_END:
        print(f"{'deliver_p99_ms (not bounded)':46s} {'ms':>9s} " + " ".join(
            f"{results[n]['detail']['paced']['p99_ms']:14.4f}" for n in names
        ))
    print(f"{'failed_fraction':46s} {'ratio':>9s} " + " ".join(
        f"{results[n]['failed_fraction']:14.6f}" for n in names
    ))
    print(f"{'host_speed_index':46s} {'ratio':>9s} " + " ".join(
        f"{results[n]['host_speed_index']:14.3f}" for n in names
    ))


def print_obs_delta(results: Dict[str, Dict[str, Any]]) -> None:
    """``repro.obs`` is called inline, out of the wrappers' sight: what
    it costs each layer is the difference between the watched workload
    and the same workload unwatched."""
    watched = results["fabric_obs"]["metrics"]
    plain = results["fabric_small"]["metrics"]
    for key in watched:
        if key.endswith(".self_us_per_event"):
            layer = key[: -len(".self_us_per_event")]
            delta = watched[key]["value"] - plain[key]["value"]
            print(f"obs.delta_us_per_event.{layer:23s} {'us':>9s} {delta:14.4f}")


def compare_sets(sets: List[Dict[str, Dict[str, Any]]]) -> int:
    """Per (metric, workload): every value, their spread as a share of
    their median, and the bound.  Returns how many exceed the bound."""
    over = 0
    print(f"{'metric':22s} {'workload':15s} {'spread':>8s} {'bound':>6s}  values")
    for key, meta in END_TO_END.items():
        for name in WORKLOAD_NAMES:
            values = [s[name]["metrics"][key]["value"] for s in sets]
            spread = (max(values) - min(values)) / statistics.median(values)
            flag = ""
            if spread > meta["bound"]:
                over += 1
                flag = "  OVER"
            print(f"{key:22s} {name:15s} {spread:8.4f} {meta['bound']:6.2f}  "
                  + " ".join(f"{v:.4f}" for v in values) + flag)
    return over


def record(results: Dict[str, Dict[str, Any]], args: argparse.Namespace) -> None:
    first = results[WORKLOAD_NAMES[0]]
    entry = {
        "commit": first["commit"],
        "date": datetime.date.today().isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "python": first["python"],
        "nproc": first["nproc"],
        "host_speed_index": statistics.median(
            r["host_speed_index"] for r in results.values()
        ),
        "results": {
            name: {
                **{k: m["value"] for k, m in r["metrics"].items()},
                "deliver_p99_ms": r["detail"]["paced"]["p99_ms"],
                "failed_fraction": r["failed_fraction"],
            }
            for name, r in results.items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--spans", metavar="OUT",
                        help="with --workload and --trace: write every span")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.spans)
        print_result(result)
        if args.json:
            Path(args.json).write_text(json.dumps(result, indent=1),
                                       encoding="utf-8")
        correct = result["failed"] == 0
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
        return 0 if correct else 1

    sets = []
    bad = 0
    for _ in range(args.repeat):
        results = run_set(args, trace=False)
        print_table(results, END_TO_END)
        bad += sum(r["failed"] > 0 or r["exit_code"] != 0
                   for r in results.values())
        sets.append(results)
    if args.trace:
        traced = run_set(args, trace=True)
        print_table(traced, PER_LAYER)
        print_obs_delta(traced)
        bad += sum(r["failed"] > 0 for r in traced.values())
    if args.repeat > 1:
        bad += compare_sets(sets)
    if args.record:
        record(sets[-1], args)
    if args.json:
        Path(args.json).write_text(json.dumps(sets, indent=1), encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
