"""Docs cannot name what the code no longer has.

The prose documents (README, DESIGN, EXPERIMENTS, ``docs/*.md``) point
at the code by name.  A consolidation PR that deletes a module, a method
or a constructor knob must delete its mentions too; this test makes the
leftovers fail with the file and the name:

* every backticked dotted name beginning ``repro.`` resolves by import
  plus ``getattr``;
* every backticked ``MorphReceiver.<attr>`` is an attribute of a
  receiver;
* every ``MorphReceiver(<keyword>=...)`` the docs show is a parameter of
  ``MorphReceiver.__init__``.

(``tests/obs/test_docs_drift.py`` does the same for the metric catalog.)
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.morph.receiver import MorphReceiver

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
RECEIVER_ATTR_RE = re.compile(r"`MorphReceiver\.([A-Za-z_][A-Za-z0-9_]*)")
RECEIVER_KEYWORD_RE = re.compile(r"MorphReceiver\(([a-z_]+)=")


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
    return sorted({
        (doc.relative_to(REPO).as_posix(), name)
        for doc in DOCS
        for name in regex.findall(doc.read_text())
    })


def test_the_docs_are_where_this_test_looks():
    assert len(DOCS) >= 10
    assert len(_mentions(DOTTED_RE)) >= 50


def test_every_dotted_repro_name_resolves():
    missing = [m for m in _mentions(DOTTED_RE) if not _resolves(m[1])]
    assert missing == [], "docs name modules or attributes that are gone"


def test_every_receiver_attribute_resolves():
    receiver = MorphReceiver()  # ``stats`` and friends are set per instance
    missing = [
        m for m in _mentions(RECEIVER_ATTR_RE) if not hasattr(receiver, m[1])
    ]
    assert missing == [], "docs name MorphReceiver attributes that are gone"


def test_every_receiver_keyword_is_a_constructor_parameter():
    parameters = inspect.signature(MorphReceiver.__init__).parameters
    missing = [m for m in _mentions(RECEIVER_KEYWORD_RE) if m[1] not in parameters]
    assert missing == [], "docs show MorphReceiver knobs that are gone"


@pytest.mark.parametrize("dotted, expected", [
    ("repro.morph.receiver.MorphReceiver.process_batch", True),
    ("repro.morph.receiver.MorphReceiver.no_such_method", False),
    ("repro.pbio.no_such_module", False),
    ("repro.obs.TelemetryAgent", True),  # a lazy (PEP 562) export
])
def test_the_resolver_tells_present_from_absent(dotted, expected):
    assert _resolves(dotted) is expected
