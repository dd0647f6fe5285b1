"""docs/OBSERVABILITY.md metric catalog ⇄ instrumented code ⇄ readers.

The catalog is a contract with three sides:

* **every metric the code can emit is documented, and every documented
  metric exists in the code** — a new ``counter("x.y")`` without a
  catalog row, or a row (in *any* ``docs/*.md`` table) whose metric was
  renamed away, fails with the exact names;
* **every catalogued metric has a consumer** — its name appears in a
  *reader* (:data:`READER_FILES`: the ``--top`` view, the SLO engine,
  the CLI smokes, the bench and check harnesses, ``benchmarks/e2e``,
  the examples, any other test or its golden), and the module that
  emits a name does not count as its reader.  A metric nobody reads is
  deleted, not documented; the catalog's *Read by* column is the
  evidence and is checked here too;
* **every reader names something that exists** — a metric-shaped string
  in the ``--top`` view, the SLO engine or the CLI smokes is a
  catalogued metric or a span some site records (a ``ratio`` over a
  series that does not exist reads 0 for ever and never fires).

Code-side extraction handles the three emission styles in the tree:

* literal calls — ``counter("pbio.encode.bytes")``,
  ``Handles.bounded_counter("morph.transform.applied", ...)``, plus the
  registry-internal ``_get_or_create(Counter, "obs.labels.overflow")``;
* one dynamic family — ``self._count("sends")`` routed through a helper
  that prepends an f-string prefix (``f"net.reliable.{name}"``), prefix
  and call sites associated per file;
* indirection — names passed as plain string arguments to a helper
  (``_cache_codec(..., "pbio.context.encoder_cache_size")``), pinned
  by the explicit ``INDIRECT_SITES`` list below, which also asserts
  the literal still lives in the named file so the list cannot rot.

The half no regex can give is dynamic: whatever names a run actually
leaves in the registry must be in the catalog too, however the site
spelled them.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Dict, List, Set

from tests.obs import parity_scenario

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
CATALOG = REPO / "docs" / "OBSERVABILITY.md"
DOCS = sorted((REPO / "docs").glob("*.md"))

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
#: span sites: ``OBS.tracer.span("morph.process", ...)``
SPAN_RE = re.compile(r'\.span\(\s*["\']([a-z0-9_.]+)["\']')

#: (path under src/repro, metric name) for names that reach their
#: instrument call through a helper argument the regexes cannot see
INDIRECT_SITES = [
    ("pbio/context.py", "pbio.codegen.encoders"),
    ("pbio/context.py", "pbio.codegen.decoders"),
    ("pbio/context.py", "pbio.context.encoder_cache_size"),
    ("pbio/context.py", "pbio.context.decoder_cache_size"),
]
#: the same for span names chosen into a variable before ``span(name)``
INDIRECT_SPANS = [
    ("net/reliable.py", "net.reliable.send"),
    ("net/reliable.py", "net.reliable.retransmit"),
]

#: where a metric can be read from, relative to the repo root: files,
#: and directories searched whole (code, goldens, recorded histories)
READER_FILES = (
    "src/repro/obs/topview.py",
    "src/repro/obs/slo.py",
    "src/repro/obs/__main__.py",
    "src/repro/obs/collector.py",
    "src/repro/fabric/__main__.py",
    "src/repro/bench",
    "src/repro/check",
    "benchmarks/e2e",
    "examples",
    "tests",
)
#: the readers an operator meets, held to the catalog the other way
OPERATOR_READERS = (
    "src/repro/obs/topview.py",
    "src/repro/obs/slo.py",
    "src/repro/obs/__main__.py",
)
#: a quoted dotted name in one of the layers' namespaces
METRIC_SHAPED_RE = re.compile(
    r'["\']((?:pbio|net|morph|fabric|echo|ecode|obs)\.[a-z0-9_.]+)["\']'
)


def metric_emitters() -> Dict[str, Set[str]]:
    """``{metric name: repo-relative files that construct it}``."""
    emitters: Dict[str, Set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        # The bench harness synthesizes app-side workload registries
        # ("app.events" and friends) to measure the plane — those are
        # measurement props, not part of the library's metric contract.
        if (SRC / "bench") in path.parents:
            continue
        text = path.read_text()
        names = {
            match.group(1)
            for regex in (CALL_RE, GET_OR_CREATE_RE)
            for match in regex.finditer(text)
            if "." in match.group(1)
        }
        names.update(
            f"{prefix}.{argument}"
            for prefix in DYNAMIC_PREFIX_RE.findall(text)
            for argument in DYNAMIC_ARG_RE.findall(text)
        )
        for name in names:
            emitters.setdefault(name, set()).add(
                path.relative_to(REPO).as_posix()
            )
    for relative, name in _still_there(INDIRECT_SITES):
        emitters.setdefault(name, set()).add(f"src/repro/{relative}")
    return emitters


def _still_there(sites):
    for relative, name in sites:
        assert f'"{name}"' in (SRC / relative).read_text(), (
            f"stale indirect site: {name!r} no longer appears in "
            f"src/repro/{relative}"
        )
    return sites


def code_metric_names() -> Set[str]:
    return set(metric_emitters())


def span_names() -> Set[str]:
    return {
        name
        for path in SRC.rglob("*.py")
        for name in SPAN_RE.findall(path.read_text())
    } | {name for _relative, name in _still_there(INDIRECT_SPANS)}


def catalog_rows(doc: Path = CATALOG) -> List[Dict[str, object]]:
    """Every ``| `...` |`` table row of *doc* whose first cell names
    metrics, as ``{"names": [...], "read_by": [...]}`` (``read_by``: the
    backticked paths of the row's last cell).

    In the first cell a token starting with ``.`` is shorthand expanded
    against the previous full name with its last segment stripped
    (``net.transport.messages`` / ``.bytes``); tokens without a dot
    (wire-field tables) are not metric names.
    """
    rows = []
    for line in doc.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.split("|")
        names: List[str] = []
        base = None
        for token in re.findall(r"`([^`]+)`", cells[1]):
            token = token.strip()
            if token.startswith("."):
                assert base is not None and "." in base, (
                    f"suffix token {token!r} has no expandable base "
                    f"in doc row: {line!r}"
                )
                names.append(base.rsplit(".", 1)[0] + token)
            else:
                base = token
                if "." in token:
                    names.append(token)
        if names:
            rows.append({
                "names": names,
                "read_by": re.findall(r"`([^`]+)`", cells[-2]),
            })
    return rows


def documented_metric_names(doc: Path = CATALOG) -> Set[str]:
    return {name for row in catalog_rows(doc) for name in row["names"]}


@functools.lru_cache(maxsize=None)
def metric_readers() -> Dict[str, Set[str]]:
    """``{catalogued metric: reader files naming it}`` — whole-name
    matches in :data:`READER_FILES`, less this file and less the files
    that emit the name themselves."""
    texts = {}
    for entry in READER_FILES:
        root = REPO / entry
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            if path.is_file() and path != Path(__file__).resolve() and (
                path.suffix in (".py", ".json", ".jsonl", ".md")
            ):
                texts[path.relative_to(REPO).as_posix()] = path.read_text()
    emitters = metric_emitters()
    readers = {}
    for name in documented_metric_names():
        mention = re.compile(
            r"(?<![a-z0-9_.])" + re.escape(name) + r"(?![a-z0-9_])"
        )
        readers[name] = {
            relative for relative, text in texts.items()
            if relative not in emitters.get(name, ()) and mention.search(text)
        }
    return readers


class TestMetricCatalogDrift:
    def test_every_emitted_metric_is_documented(self):
        undocumented = code_metric_names() - documented_metric_names()
        assert not undocumented, (
            "metrics emitted in src/repro/ but missing from the "
            "docs/OBSERVABILITY.md catalog tables:\n  "
            + "\n  ".join(sorted(undocumented))
        )

    def test_every_documented_metric_is_emitted(self):
        """Over every ``docs/*.md``: a second metric table elsewhere
        cannot keep a name the code dropped."""
        code = code_metric_names()
        phantom = {
            f"{doc.name}: {name}"
            for doc in DOCS
            for name in documented_metric_names(doc) - code
        }
        assert not phantom, (
            "metrics documented in a docs/*.md table but never emitted "
            "anywhere in src/repro/:\n  " + "\n  ".join(sorted(phantom))
        )

    def test_every_catalogued_metric_has_a_reader(self):
        unread = sorted(
            name for name, files in metric_readers().items() if not files
        )
        assert not unread, (
            f"{len(unread)} catalogued metric(s) nothing reads — delete "
            "the instrument (emission site, Handles declaration, catalog "
            "row) or give it a reader that already exists:\n  "
            + "\n  ".join(unread)
            + "\nreaders searched (the emitting module never counts):\n  "
            + "\n  ".join(READER_FILES)
        )

    def test_read_by_column_names_real_readers(self):
        readers = metric_readers()
        wrong = [
            f"{name}: none of {row['read_by']} reads it"
            for row in catalog_rows()
            for name in row["names"]
            if not readers[name] & set(row["read_by"])
        ]
        assert not wrong, (
            "docs/OBSERVABILITY.md 'Read by' cells that name no reader of "
            "their metric:\n  " + "\n  ".join(wrong)
        )

    def test_operator_readers_name_things_that_exist(self):
        known = documented_metric_names() | span_names()
        unknown = sorted(
            f"{relative}: {name}"
            for relative in OPERATOR_READERS
            for name in METRIC_SHAPED_RE.findall((REPO / relative).read_text())
            if name not in known
        )
        assert not unknown, (
            "metric-shaped names in the --top view, the SLO engine or the "
            "CLI smokes that are neither a catalogued metric nor a "
            "recorded span:\n  " + "\n  ".join(unknown)
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
        """Guard the guards: every extractor must see a healthy
        population, and the known-tricky names must be present."""
        code = code_metric_names()
        documented = documented_metric_names()
        assert 60 < len(code) <= 75
        assert 60 < len(documented) <= 75
        assert len(span_names()) > 20
        for tricky in (
            "net.reliable.retries",           # the dynamic family
            "fabric.journal.compactions",     # Handles, one per name
            "morph.receiver.cache_hits",      # ReceiverStats mirror
            "morph.receiver.dlq_retried",     # cold path, asks the registry
            "fabric.shard.processed",         # bounded_counter
            "obs.labels.overflow",            # _get_or_create path
            "pbio.context.encoder_cache_size",  # INDIRECT_SITES
            "obs.telemetry.collector.deltas",   # literal
            "net.batch.unpacked_messages",    # `.suffix` shorthand row
        ):
            assert tricky in code, f"extractor lost {tricky!r}"
            assert tricky in documented, f"doc parser lost {tricky!r}"
        readers = metric_readers()
        # a name its own emitter also mentions: only the others count
        assert "src/repro/obs/topview.py" not in readers["echo.events"]
        assert "src/repro/obs/topview.py" in readers["net.reliable.retries"]
