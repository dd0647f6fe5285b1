"""No definition in ``src/repro`` that nothing names.

A consolidation that takes a caller off a path leaves the callee behind
unless someone notices.  This test notices: every non-dunder ``def`` or
``class`` name in ``src/repro`` must appear, as a whole word, somewhere
other than a ``def`` / ``class`` line — in the code, the tests, the
benchmarks, the examples, the docs, the README or the CI workflow.
Nothing is exempt.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
TREES = ("src", "tests", "benchmarks", "examples", "docs")
FILES = ("README.md", ".github/workflows/ci.yml")

WORD_RE = re.compile(r"\w+")
DEFINITION_RE = re.compile(r"\b(?:def|class)\s+(\w+)")


def _corpus() -> Iterator[str]:
    """The text of every file a name may be mentioned in (build and
    cache leftovers and this file excluded)."""
    paths = [REPO / name for name in FILES]
    for tree in TREES:
        for path in sorted((REPO / tree).rglob("*")):
            folders = path.relative_to(REPO).parts[:-1]
            if path.is_file() and not any(
                folder.startswith((".", "__pycache__"))
                or folder.endswith(".egg-info") for folder in folders
            ):
                paths.append(path)
    for path in paths:
        if path == Path(__file__).resolve():
            continue
        try:
            yield path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue


def _definitions() -> Counter:
    names: Counter = Counter()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def test_every_definition_is_named_somewhere():
    words: Counter = Counter()
    sites: Counter = Counter()
    for text in _corpus():
        words.update(WORD_RE.findall(text))
        sites.update(DEFINITION_RE.findall(text))
    dead = sorted(
        name for name in _definitions()
        if words[name] <= sites[name]
    )
    assert not dead, f"defined in src/repro and named nowhere else: {dead}"
