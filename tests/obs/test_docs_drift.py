"""docs/OBSERVABILITY.md metric catalog ⇄ instrumented code, both ways.

The catalog is a contract: every metric the code can emit is
documented, and every documented metric exists in the code.  This test
extracts both sides and diffs them, so a new ``counter("x.y")`` without
a catalog row — or a catalog row whose metric was renamed away — fails
CI with the exact missing names.

Code-side extraction handles the three emission styles in the tree:

* literal calls — ``counter("pbio.encode.bytes")``,
  ``bounded_counter(f"morph.transform.applied", ...)``, plus the
  registry-internal ``_get_or_create(Counter, "obs.labels.overflow")``;
* dynamic families — ``self._count("sends")`` routed through a helper
  that prepends an f-string prefix (``f"net.reliable.{name}"``).
  Prefix and call sites are associated *per class chunk* because
  ``pbio/server.py`` hosts two such families with different prefixes;
* indirection — names passed as plain string arguments to a helper
  (``_cache_codec(..., "pbio.context.encoder_cache_size")``), pinned
  by the explicit ``INDIRECT_SITES`` list below, which also asserts
  the literal still lives in the named file so the list cannot rot.

Sites that hold their instruments (``Handles.counter("x.y", ...)``) are
literal calls to the regexes.  The half no regex can give is dynamic:
whatever names a run actually leaves in the registry must be in the
catalog too, however the site spelled them.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.morph.receiver import STAT_COUNTERS
from tests.obs import parity_scenario

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "OBSERVABILITY.md"

#: literal instrument constructions — the first string argument is the
#: metric name (dotted names only; single-word names are test-local)
CALL_RE = re.compile(
    r'(?:counter|gauge|histogram|bounded_counter)'
    r'\(\s*f?["\']([a-z0-9_.]+)["\']'
)
#: the registry's internal create path (used for its own meta-metrics)
GET_OR_CREATE_RE = re.compile(
    r'_get_or_create\(\s*[A-Za-z]+,\s*["\']([a-z0-9_.]+)["\']'
)
#: a dynamic family's prefix: ``f"net.reliable.{name}"``
DYNAMIC_PREFIX_RE = re.compile(r'f["\']([a-z0-9_.]+)\.\{name\}["\']')
#: ...and the names fed into it: ``self._count("sends", ...)``
DYNAMIC_ARG_RE = re.compile(r'self\._count\(\s*["\']([a-z0-9_]+)["\']')

#: (path under src/repro, metric name) for names that reach their
#: instrument call through a helper argument the regexes cannot see
INDIRECT_SITES = [
    ("pbio/context.py", "pbio.context.encoder_cache_size"),
    ("pbio/context.py", "pbio.context.decoder_cache_size"),
]


def code_metric_names():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        # The bench harness synthesizes app-side workload registries
        # ("app.events" and friends) to measure the plane — those are
        # measurement props, not part of the library's metric contract.
        if (SRC / "bench") in path.parents:
            continue
        text = path.read_text()
        for regex in (CALL_RE, GET_OR_CREATE_RE):
            for match in regex.finditer(text):
                if "." in match.group(1):
                    names.add(match.group(1))
        # Dynamic families: associate prefixes with _count() arguments
        # within the same class body, never across classes.
        for chunk in re.split(r"\nclass ", text):
            prefixes = DYNAMIC_PREFIX_RE.findall(chunk)
            if not prefixes:
                continue
            arguments = DYNAMIC_ARG_RE.findall(chunk)
            for prefix in prefixes:
                for argument in arguments:
                    names.add(f"{prefix}.{argument}")
    # morph.receiver.* flows through Stats.inc(name) — the authoritative
    # name list is importable rather than greppable.
    names.update(f"morph.receiver.{name}" for name in STAT_COUNTERS)
    for relative, name in INDIRECT_SITES:
        source = (SRC / relative).read_text()
        assert name in source, (
            f"INDIRECT_SITES is stale: {name!r} no longer appears in "
            f"src/repro/{relative}"
        )
        names.add(name)
    return names


def documented_metric_names():
    """Metric names from every ``| `...` |`` table row in the doc.

    Only the row's first cell is read.  A token starting with ``.`` is
    shorthand expanded against the previous full name with its last
    segment stripped (``net.transport.messages`` / ``.bytes``); tokens
    without a dot (wire-field tables) are not metric names.
    """
    names = set()
    base = None
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for token in re.findall(r"`([^`]+)`", first_cell):
            token = token.strip()
            if token.startswith("."):
                assert base is not None and "." in base, (
                    f"suffix token {token!r} has no expandable base "
                    f"in doc row: {line!r}"
                )
                names.add(base.rsplit(".", 1)[0] + token)
            else:
                base = token
                if "." in token:
                    names.add(token)
    return names


class TestMetricCatalogDrift:
    def test_every_emitted_metric_is_documented(self):
        undocumented = code_metric_names() - documented_metric_names()
        assert not undocumented, (
            "metrics emitted in src/repro/ but missing from the "
            "docs/OBSERVABILITY.md catalog tables:\n  "
            + "\n  ".join(sorted(undocumented))
        )

    def test_every_documented_metric_is_emitted(self):
        phantom = documented_metric_names() - code_metric_names()
        assert not phantom, (
            "metrics documented in docs/OBSERVABILITY.md but never "
            "emitted anywhere in src/repro/:\n  "
            + "\n  ".join(sorted(phantom))
        )

    def test_every_recorded_metric_is_documented(self, tmp_path):
        """The dynamic half: run the observed-fabric scenario and hold
        what the registry ends up with against the catalog."""
        fingerprint = parity_scenario.run(str(tmp_path / "journal.jsonl"))
        recorded = {key.split("{")[0] for key in fingerprint["instruments"]}
        assert len(recorded) > 40
        # the scenario's agents ship a registry of their own with this
        # one app-side counter in it; it reaches the live registry only
        # as telemetry payload, never as an instrument
        assert "parity.heartbeats" not in recorded
        undocumented = recorded - documented_metric_names()
        assert not undocumented, (
            "metrics recorded by tests/obs/parity_scenario.py but missing "
            "from the docs/OBSERVABILITY.md catalog tables:\n  "
            + "\n  ".join(sorted(undocumented))
        )
        unextracted = recorded - code_metric_names()
        assert not unextracted, (
            "metrics recorded at run time that the source extractors "
            "above cannot see (extend CALL_RE / INDIRECT_SITES):\n  "
            + "\n  ".join(sorted(unextracted))
        )

    def test_extraction_is_not_trivially_broken(self):
        """Guard the guards: both extractors must see a healthy
        population, and the known-tricky names must be present."""
        code = code_metric_names()
        documented = documented_metric_names()
        assert len(code) > 100
        assert len(documented) > 100
        for tricky in (
            "net.reliable.retries",          # dynamic family
            "fabric.journal.fenced_appends",  # dynamic family
            "pbio.format_server.registers",   # dynamic, file w/ 2 prefixes
            "pbio.resolver.failovers",        # ...the other prefix
            "morph.receiver.cache_hits",      # STAT_COUNTERS import
            "obs.labels.overflow",            # _get_or_create path
            "pbio.context.encoder_cache_size",  # INDIRECT_SITES
            "obs.telemetry.collector.deltas",   # literal
        ):
            assert tricky in code, f"extractor lost {tricky!r}"
            assert tricky in documented, f"doc parser lost {tricky!r}"
