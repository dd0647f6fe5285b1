"""Docs cannot name what the code no longer has.

The prose documents (README, DESIGN, EXPERIMENTS, ``docs/*.md``) point
at the code by name.  A consolidation PR that deletes a module, a method
or a constructor knob must delete its mentions too; this test makes the
leftovers fail with the file and the name:

* every backticked dotted name beginning ``repro.`` resolves by import
  plus ``getattr``;
* every backticked ``<Class>.<attr>``, for the classes the prose leans
  on (:data:`CLASSES`), is an attribute of that class or one its
  instances are given (``MorphReceiver.stats``, ``Network.handler_errors``);
* every ``<Class>(<keyword>=...)`` the docs show is a parameter of that
  class's ``__init__``.

(``tests/obs/test_docs_drift.py`` does the same for the metric catalog.)
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.echo.process import EChoProcess
from repro.fabric import FabricClient, FabricWorker, JournalStore, SeqLedger
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import Transformation
from repro.net.reliable import ReliableEndpoint
from repro.net.socket import SocketNetwork
from repro.net.transport import Network
from repro.obs import TelemetryAgent, TelemetryCollector
from repro.pbio.context import PBIOContext
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import CachingFormatResolver

#: the classes whose attributes and constructor knobs the docs name
CLASSES = {cls.__name__: cls for cls in (
    CachingFormatResolver, EChoProcess, FabricClient, FabricWorker,
    FormatRegistry, JournalStore, MorphReceiver, Network, PBIOContext,
    ReliableEndpoint, SeqLedger, SocketNetwork, TelemetryAgent,
    TelemetryCollector, Transformation,
)}
_CLASS = "|".join(CLASSES)

REPO = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    + list((REPO / "docs").glob("*.md"))
)

#: a backtick span that *starts* with a dotted ``repro.`` name (so
#: ``python -m repro.bench`` command lines are read from ``repro`` on;
#: ``repro.telemetry/1`` is a schema id, not a name)
DOTTED_RE = re.compile(
    r"`(?:python3? -m )?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?![A-Za-z0-9_/])"
)
ATTR_RE = re.compile(rf"`({_CLASS})\.([A-Za-z_][A-Za-z0-9_]*)")
#: a one-line call of a class that shows keywords: ``Class(a=1, b=...)``
CALL_RE = re.compile(rf"\b({_CLASS})\(([^()\n]*=[^()\n]*)")
KEYWORD_RE = re.compile(r"(?:^|[\s,])([a-z_]+)=")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of *dotted*, ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def _mentions(regex: re.Pattern) -> list:
    """Sorted ``(doc, match)`` — a match is a name, or a tuple of the
    pattern's groups."""
    return sorted({
        (doc.relative_to(REPO).as_posix(), match)
        for doc in DOCS
        for match in regex.findall(doc.read_text())
    })


def _has_attribute(cls: type, name: str) -> bool:
    """*name* is on the class, or ``__init__``-style code of the class
    (or a base) assigns ``self.<name>``."""
    if hasattr(cls, name):
        return True
    assigned = re.compile(rf"\bself\.{name}\b[^=\n]*=[^=]")
    return any(
        assigned.search(inspect.getsource(base)) for base in cls.__mro__[:-1]
    )


def test_the_docs_are_where_this_test_looks():
    assert len(DOCS) >= 10
    assert len(_mentions(DOTTED_RE)) >= 50
    assert len(_mentions(ATTR_RE)) >= 25
    assert len({m[1][0] for m in _mentions(CALL_RE)}) >= 4


def test_every_dotted_repro_name_resolves():
    missing = [m for m in _mentions(DOTTED_RE) if not _resolves(m[1])]
    assert missing == [], "docs name modules or attributes that are gone"


def test_every_receiver_attribute_resolves():
    """``MorphReceiver.<attr>`` — and the same for every class in
    :data:`CLASSES` (the test id predates the other classes)."""
    missing = [
        (doc, f"{cls}.{attr}") for doc, (cls, attr) in _mentions(ATTR_RE)
        if not _has_attribute(CLASSES[cls], attr)
    ]
    assert missing == [], "docs name class attributes that are gone"


def test_every_receiver_keyword_is_a_constructor_parameter():
    """``MorphReceiver(<kw>=`` — and the same for every class in
    :data:`CLASSES`."""
    missing = [
        (doc, f"{cls}({keyword}=")
        for doc, (cls, arguments) in _mentions(CALL_RE)
        for keyword in KEYWORD_RE.findall(arguments)
        if keyword not in inspect.signature(CLASSES[cls].__init__).parameters
    ]
    assert missing == [], "docs show constructor knobs that are gone"


@pytest.mark.parametrize("cls, name, expected", [
    (MorphReceiver, "stats", True),           # given to the instance
    (Network, "handler_errors", True),
    (FabricWorker, "_on_segments", True),     # on the class
    (TelemetryCollector, "_SeqLedger", False),
    (JournalStore, "torn", False),            # a prefix of torn_tail
    (Transformation, "fact", True),
    (Transformation, "validate", False),
])
def test_the_attribute_check_tells_present_from_absent(cls, name, expected):
    assert _has_attribute(cls, name) is expected


@pytest.mark.parametrize("dotted, expected", [
    ("repro.morph.receiver.MorphReceiver.process_batch", True),
    ("repro.morph.receiver.MorphReceiver.no_such_method", False),
    ("repro.pbio.no_such_module", False),
    ("repro.obs.TelemetryAgent", True),  # a lazy (PEP 562) export
])
def test_the_resolver_tells_present_from_absent(dotted, expected):
    assert _resolves(dotted) is expected
