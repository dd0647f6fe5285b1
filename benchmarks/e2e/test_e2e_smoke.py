"""Smoke test for the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by the tier-1 run (``testpaths = ["tests"]``).  Each
workload runs end to end in a subprocess with very short phases; the
oracle is exercised in-process against a broken reference.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: sim workloads with no wall-clock-driven traffic (``fabric_obs`` ships
#: telemetry once per wall second, UDP retransmits on real timers)
DETERMINISTIC = ["fabric_small", "fabric_batch64", "fabric_large",
                 "echo_evolve"]
#: counts taken over the whole traced phase, whose length is wall time
WHOLE_PHASE = {"fabric.journal.compactions_per_kevent",
               "fabric.journal.disk_bytes_per_event"}


def run(tmp_path, workload, *extra, seconds=0.6):
    out = tmp_path / f"{workload}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--json", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    contract = json.loads(proc.stdout.strip().splitlines()[-1])
    return contract, json.loads(out.read_text(encoding="utf-8")), proc.stdout


def test_declared_names():
    from benchmarks.e2e import workloads

    names = WORKLOADS + END_TO_END + list(PER_LAYER)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes_correct(tmp_path, workload):
    contract, full, stdout = run(tmp_path, workload)
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True
    assert contract["failed"] == 0 and contract["attempted"] >= 1
    assert full["failed_fraction"] == 0
    assert set(contract["metrics"]) == set(END_TO_END)
    for name in END_TO_END:
        assert re.search(rf"^{re.escape(name)}\s", stdout, re.M), name
        assert contract["metrics"][name]["value"] > 0
    for stamp in ("commit", "python", "nproc", "seed", "seconds",
                  "host_speed_index"):
        assert stamp in full


def test_trace_accounts_for_the_traced_wall_time(tmp_path):
    spans = tmp_path / "spans.csv"
    contract, full, _stdout = run(
        tmp_path, "fabric_small", "--trace", "1", "--spans", str(spans)
    )
    assert set(contract["metrics"]) == set(PER_LAYER)
    rows = [line.split(",") for line in
            spans.read_text(encoding="utf-8").splitlines()[1:]]
    self_ns = {}
    roots_ns = 0
    for layer, start, end, parent, *_key in rows:
        duration = int(end) - int(start)
        self_ns[layer] = self_ns.get(layer, 0) + duration
        if int(parent) < 0:
            roots_ns += duration
        else:
            up = rows[int(parent)][0]
            self_ns[up] = self_ns.get(up, 0) - duration
    detail = full["detail"]
    assert detail["spans"] == len(rows)
    assert sum(self_ns.values()) == roots_ns
    assert roots_ns / 1e3 == pytest.approx(detail["layers_sum_us"])
    assert detail["layers_sum_us"] + detail["unattributed_us"] == (
        pytest.approx(detail["traced_wall_us"])
    )
    assert any(row[6] for row in rows), "no span carries its event's key"
    metrics = contract["metrics"]
    assert 0 <= metrics["unattributed_fraction"]["value"] < 0.15
    assert metrics["net.batch.calls_per_event"]["value"] == 0
    assert metrics["ecode.codegen.compiles_per_kevent"]["value"] == 0


@pytest.mark.parametrize("workload", DETERMINISTIC)
def test_one_seed_gives_the_same_counts(tmp_path, workload):
    runs = []
    for attempt in ("a", "b"):
        path = tmp_path / attempt
        path.mkdir()
        contract, _full, _stdout = run(path, workload, "--trace", "1")
        runs.append(contract["metrics"])
    for name, meta in PER_LAYER.items():
        exact = (meta["unit"] in ("count", "bytes")
                 and not name.startswith("obs.") and name not in WHOLE_PHASE)
        if exact:
            assert runs[0][name]["value"] == runs[1][name]["value"], name
    if workload != "echo_evolve":
        assert runs[0]["fabric.journal.calls_per_event"]["value"] == 1
    else:
        assert runs[0]["fabric.journal.calls_per_event"]["value"] == 0


def test_wire_bytes_repeat_for_a_seed(tmp_path):
    values = []
    for attempt in ("a", "b"):
        path = tmp_path / attempt
        path.mkdir()
        contract, _full, _stdout = run(path, "fabric_small")
        values.append(contract["metrics"]["wire_bytes_per_event"]["value"])
    assert values[0] == values[1]


def test_oracle_catches_a_wrong_record_and_a_duplicate(tmp_path, monkeypatch):
    from benchmarks.e2e import reference, yardstick
    from benchmarks.e2e.driver import Driver
    from benchmarks.e2e.workloads import WORKLOADS as specs, make_inputs

    spec = specs["fabric_small"]
    driver = Driver(spec, make_inputs(spec, 0), str(tmp_path),
                    yardstick.Yardstick())
    try:
        with driver.phase():
            driver.emit(128)
            driver.drain()
        assert driver.failed == 0 and driver.attempted == 128 * 3

        def broken(published):
            record = reference.as_v1(published)
            record["src_count"] += 1
            return record

        monkeypatch.setitem(reference.READERS, "v1", broken)
        with driver.phase():
            driver.emit(128)
            driver.drain()
        wrong = driver.failed
        assert wrong >= 1

        monkeypatch.undo()
        first = len(driver.ev_pool)
        driver.emit(64)
        driver.drain()
        driver.got[0].append(driver.got[0][0])
        driver.check(first)
        assert driver.failed == wrong + 1
    finally:
        driver.close()
