"""The budgeted fuzzing loop and corpus replay.

A *budget* is a case count, split across the oracles roughly by where
historical bugs hide: round-trip differentials and hostile-buffer
mutations get the bulk; ECode differentials, fusion/morph scenarios,
whole-deployment reliability chaos and batched-vs-single parity share
the rest.  Every case is
reproducible from ``(seed, oracle, index)`` alone, and ``only`` focuses
the entire budget on one oracle (the CI chaos smoke runs
``only="reliability"``).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional

from repro.check import oracles
from repro.check.corpus import Corpus, minimize_wire
from repro.check.oracles import Finding
from repro.errors import ReproError
from repro.pbio.serialization import format_from_dict

#: Fraction of the budget each oracle consumes.
BUDGET_SPLIT = {
    "roundtrip": 0.24,
    "mutation": 0.22,
    "ecode": 0.10,
    "fusion": 0.10,
    "morph": 0.08,
    "reliability": 0.08,
    "batching": 0.07,
    "projection": 0.05,
    "crash": 0.06,
}

#: Each morph case already simulates several messages over the network;
#: weigh it so `--budget` approximates total work, not loop iterations.
_MORPH_CASE_WEIGHT = 10

#: Each fusion case pushes a multi-message stream through three
#: receivers (one of which compiles a route); same weighting rationale.
_FUSION_CASE_WEIGHT = 5

#: Each reliability case stands up a whole middleware deployment (format
#: servers, three or four ECho processes on reliable endpoints) and runs
#: membership plus an event stream through a faulty fabric.
_RELIABILITY_CASE_WEIGHT = 25

#: Each batching case runs TWO full reliable deployments (the single-
#: submit arm and the batched arm) over the same faulty fabric.
_BATCHING_CASE_WEIGHT = 40

#: Each projection case runs two full deployments (full-format vs
#: negotiated push-down) through a three-phase subscriber-churn script,
#: plus a hostile-projected-wire round.
_PROJECTION_CASE_WEIGHT = 40

#: Each crash case stands up a three-worker journaled fabric, kills (or
#: partitions) the shard owner mid-stream, and drives lease expiry,
#: fenced recovery and client redrive to quiescence.
_CRASH_CASE_WEIGHT = 50


class CheckRunner:
    """Run the oracles under a case budget, collecting findings."""

    def __init__(
        self,
        seed: int = 0,
        budget: int = 2000,
        corpus: Optional[Corpus] = None,
        only: Optional[str] = None,
        transport: str = "sim",
    ) -> None:
        if only is not None and only not in BUDGET_SPLIT:
            raise ReproError(
                f"unknown oracle {only!r}; expected one of "
                f"{sorted(BUDGET_SPLIT)}"
            )
        if transport not in ("sim", "socket"):
            raise ReproError(
                f"unknown transport {transport!r}; expected 'sim' or "
                "'socket'"
            )
        self.seed = seed
        self.budget = budget
        self.corpus = corpus
        #: restrict the run to a single oracle (the whole budget goes to
        #: it); None runs the full split
        self.only = only
        #: fabric the deployment oracles run on: "sim" or "socket"
        self.transport = transport
        self.findings: List[Finding] = []
        self.cases: Dict[str, int] = {name: 0 for name in BUDGET_SPLIT}
        self.mutations_applied = 0

    # -- internals -----------------------------------------------------

    def _record(self, findings: List[Finding]) -> None:
        for finding in findings:
            self.findings.append(finding)
            if self.corpus is not None and finding.entry is not None:
                entry = dict(finding.entry)
                wire_hex = entry.get("wire_hex")
                fmt_dict = entry.get("format")
                if wire_hex and fmt_dict and entry.get("kind") == "mutation":
                    fmt = format_from_dict(fmt_dict)
                    wire = bytes.fromhex(wire_hex)
                    shrunk = minimize_wire(
                        wire,
                        lambda data: bool(
                            oracles.check_wire_hostility(fmt, data)
                        ),
                    )
                    entry["wire_hex"] = shrunk.hex()
                    entry["original_wire_hex"] = wire_hex
                self.corpus.add(entry)

    def _rng(self, oracle: str, index: int) -> random.Random:
        # One independent stream per (seed, oracle, case): findings name
        # their case, and reordering oracle phases never shifts streams.
        return random.Random(f"{self.seed}:{oracle}:{index}")

    # -- the loop ------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        if self.only is not None:
            plan = {name: 0 for name in BUDGET_SPLIT}
            plan[self.only] = self.budget
        else:
            plan = {
                name: max(1, int(self.budget * fraction))
                for name, fraction in BUDGET_SPLIT.items()
            }
        plan["morph"] = (
            max(1, plan["morph"] // _MORPH_CASE_WEIGHT)
            if plan["morph"] else 0
        )
        plan["fusion"] = (
            max(1, plan["fusion"] // _FUSION_CASE_WEIGHT)
            if plan["fusion"] else 0
        )
        plan["reliability"] = (
            max(1, plan["reliability"] // _RELIABILITY_CASE_WEIGHT)
            if plan["reliability"] else 0
        )
        plan["batching"] = (
            max(1, plan["batching"] // _BATCHING_CASE_WEIGHT)
            if plan["batching"] else 0
        )
        plan["projection"] = (
            max(1, plan["projection"] // _PROJECTION_CASE_WEIGHT)
            if plan["projection"] else 0
        )
        plan["crash"] = (
            max(1, plan["crash"] // _CRASH_CASE_WEIGHT)
            if plan["crash"] else 0
        )

        for index in range(plan["roundtrip"]):
            self.cases["roundtrip"] += 1
            self._record(oracles.check_roundtrip(self._rng("roundtrip", index)))
        for index in range(plan["mutation"]):
            self.cases["mutation"] += 1
            applied, found = oracles.check_mutation(self._rng("mutation", index))
            self.mutations_applied += applied
            self._record(found)
        for index in range(plan["ecode"]):
            self.cases["ecode"] += 1
            self._record(oracles.check_ecode(self._rng("ecode", index)))
        for index in range(plan["fusion"]):
            self.cases["fusion"] += 1
            self._record(oracles.check_fusion(self._rng("fusion", index)))
        for index in range(plan["morph"]):
            self.cases["morph"] += 1
            self._record(oracles.check_morph(self._rng("morph", index)))
        for index in range(plan["reliability"]):
            self.cases["reliability"] += 1
            self._record(
                oracles.check_reliability(
                    self._rng("reliability", index),
                    transport=self.transport,
                )
            )
        for index in range(plan["batching"]):
            self.cases["batching"] += 1
            self._record(
                oracles.check_batching(
                    self._rng("batching", index),
                    transport=self.transport,
                )
            )
        for index in range(plan["projection"]):
            self.cases["projection"] += 1
            self._record(
                oracles.check_projection(
                    self._rng("projection", index),
                    transport=self.transport,
                )
            )
        for index in range(plan["crash"]):
            self.cases["crash"] += 1
            self._record(
                oracles.check_crash(
                    self._rng("crash", index),
                    transport=self.transport,
                )
            )
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "transport": self.transport,
            "cases": dict(self.cases),
            "cases_total": sum(self.cases.values()),
            "mutations_applied": self.mutations_applied,
            "findings": [
                {"oracle": f.oracle, "detail": f.detail} for f in self.findings
            ],
            "finding_count": len(self.findings),
            "corpus_size": len(self.corpus) if self.corpus is not None else 0,
            "ok": not self.findings,
        }


def run_check(
    seed: int = 0,
    budget: int = 2000,
    corpus_dir: Optional[str] = None,
    only: Optional[str] = None,
    transport: str = "sim",
) -> Dict[str, Any]:
    """Convenience entry point: run the harness, return the summary."""
    corpus = Corpus(corpus_dir) if corpus_dir else None
    return CheckRunner(
        seed=seed, budget=budget, corpus=corpus, only=only,
        transport=transport,
    ).run()


# ---------------------------------------------------------------------------
# Corpus replay
# ---------------------------------------------------------------------------


def replay_entry(entry: Dict[str, Any]) -> List[Finding]:
    """Re-run the invariant a corpus *entry* captured.  Returns the
    findings the entry still provokes (empty = regression fixed/held)."""
    kind = entry.get("kind")
    if kind in ("mutation", "roundtrip"):
        fmt = format_from_dict(entry["format"])
        wire = bytes.fromhex(entry["wire_hex"])
        return oracles.check_wire_hostility(
            fmt, wire, mutation=entry.get("mutation", "replay")
        )
    if kind == "ecode":
        return _replay_ecode(entry)
    if kind == "fusion":
        return _replay_fusion(entry)
    if kind == "reliability":
        return _replay_reliability(entry)
    if kind == "batching":
        return _replay_batching(entry)
    if kind == "projection":
        return _replay_projection(entry)
    if kind == "crash":
        return _replay_crash(entry)
    raise ReproError(f"cannot replay corpus entry of kind {kind!r}")


def _replay_crash(entry: Dict[str, Any]) -> List[Finding]:
    """Crash chaos cases are fully determined by their scenario
    parameters; replay re-runs the kill/partition/ablation script."""
    return oracles.check_crash_chaos(
        entry["net_seed"], entry["loss_rate"], entry["jitter"],
        entry["messages"], scenario=entry.get("scenario", "kill"),
        transport=entry.get("transport", "sim"),
        batch=entry.get("batch", 1),
    )


def _replay_projection(entry: Dict[str, Any]) -> List[Finding]:
    """Projection parity cases are fully determined by their scenario
    parameters; replay re-runs both arms of the churn script."""
    return oracles.check_projection_pushdown(
        entry["net_seed"], entry["loss_rate"], entry["jitter"],
        entry["messages"], entry["batch_size"],
        transport=entry.get("transport", "sim"),
    )


def _replay_batching(entry: Dict[str, Any]) -> List[Finding]:
    """Batching parity cases are fully determined by their scenario
    parameters, like reliability cases: replay re-runs both arms."""
    return oracles.check_batching_parity(
        entry["net_seed"], entry["loss_rate"], entry["jitter"],
        entry["messages"], entry["batch_size"],
        transport=entry.get("transport", "sim"),
    )


def _replay_reliability(entry: Dict[str, Any]) -> List[Finding]:
    """Reliability cases are fully determined by their scenario
    parameters (the virtual network is seeded), so replay re-runs the
    scenario rather than re-injecting bytes."""
    scenario = entry.get("scenario")
    transport = entry.get("transport", "sim")
    if scenario == "chain":
        return oracles.check_reliability_chain(
            entry["net_seed"], entry["loss_rate"], entry["jitter"],
            entry["messages"], transport=transport,
        )
    if scenario == "failover":
        return oracles.check_reliability_failover(
            entry["net_seed"], entry["loss_rate"], entry["jitter"],
            entry["messages"], entry.get("crash_primary", True),
            transport=transport,
        )
    raise ReproError(f"cannot replay reliability scenario {scenario!r}")


def _replay_fusion(entry: Dict[str, Any]) -> List[Finding]:
    from repro.echo.protocol import (
        RESPONSE_V0,
        RESPONSE_V1,
        V1_TO_V0_TRANSFORM,
        V2_TO_V1_TRANSFORM,
    )
    from repro.pbio.registry import FormatRegistry, TransformSpec

    registry = FormatRegistry()
    if entry.get("scenario") == "echo":
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        handler_fmt = (
            RESPONSE_V0 if entry["reader_version"] == "0.0" else RESPONSE_V1
        )
    else:
        writer = format_from_dict(entry["writer_format"])
        registry.register(writer)
        handler_fmt = format_from_dict(entry["reader_format"])
        if "program" in entry:  # "removed": the writer's retro-transform
            registry.register_transform(
                TransformSpec(writer, handler_fmt, entry["program"]))
    wires = [bytes.fromhex(h) for h in entry["wires_hex"]]
    return oracles.check_fusion_wires(registry, handler_fmt, wires)


def _replay_ecode(entry: Dict[str, Any]) -> List[Finding]:
    if entry.get("arm") == "record":
        from repro.pbio.record import Record

        return oracles.check_ecode_records(
            format_from_dict(entry["source_format"]),
            format_from_dict(entry["target_format"]),
            entry["program"], Record(entry["record"]),
        )
    return oracles.check_ecode_scalars(
        entry["program"], entry.get("inputs") or {"a": 0, "b": 0, "c": 0}
    )


def replay_corpus(corpus: Corpus) -> Dict[str, Any]:
    """Replay every corpus entry; summarize which still fire."""
    results = []
    for path, entry in zip(corpus.paths(), corpus.entries()):
        found = replay_entry(entry)
        results.append({
            "path": path,
            "kind": entry.get("kind"),
            "still_failing": [f.detail for f in found],
        })
    failing = [r for r in results if r["still_failing"]]
    return {
        "entries": len(results),
        "still_failing": len(failing),
        "results": results,
        "ok": not failing,
    }


def to_json(summary: Dict[str, Any]) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
