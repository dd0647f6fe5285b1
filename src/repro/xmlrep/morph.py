"""Message morphing over XML-structured messages.

Section 2 of the paper: "message morphing techniques like those described
in this paper could be applied to XML-structured messages by using
transformation languages like XSLT".  This module does exactly that —
the *same* MaxMatch/Algorithm 2 machinery (``repro.morph``), with:

* XML text as the wire representation (the format is identified by the
  root tag = format name and the ``version`` attribute),
* XSL stylesheets as the writer-supplied transformations,
* the same structural reconciliation for imperfect matches (operating on
  the decoded record).

Demonstrates that the morphing algorithms are representation-agnostic:
only the decode step and the transform engine are swapped.  It is also
the slow-by-construction arm the Figure 10 benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NoMatchError, UnknownFormatError, XSLTError
from repro.morph.compat import coerce_record
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
    max_match,
)
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import transform_chains
from repro.xmlrep.decode import record_from_tree
from repro.xmlrep.parse import parse_xml
from repro.xmlrep.tree import XMLElement
from repro.xmlrep.xslt import Stylesheet

Handler = Callable[[Record], Any]


@dataclass(frozen=True)
class XSLTTransformSpec:
    """A writer-supplied XML conversion: a stylesheet turning documents
    of *source* into documents of *target*."""

    source: IOFormat
    target: IOFormat
    stylesheet: str
    description: str = ""


@dataclass
class _XMLRoute:
    wire_format: IOFormat
    stylesheets: List[Stylesheet]
    coercion: Optional[Tuple[IOFormat, IOFormat]]
    handler_format: Optional[IOFormat]

    @property
    def is_reject(self) -> bool:
        return self.handler_format is None


class XMLMorphReceiver:
    """Algorithm 2 over XML documents with XSLT transformations.

    Formats are declared (writer side) with :meth:`declare_format` /
    :meth:`register_transform` and consumed (reader side) with
    :meth:`register_handler`; :meth:`process` takes raw XML text.
    """

    def __init__(
        self,
        diff_threshold: float = DEFAULT_DIFF_THRESHOLD,
        mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD,
    ) -> None:
        self.diff_threshold = diff_threshold
        self.mismatch_threshold = mismatch_threshold
        #: (name, version) -> format, for root-tag resolution
        self._declared: Dict[Tuple[str, Optional[str]], IOFormat] = {}
        self._transforms: Dict[int, List[XSLTTransformSpec]] = {}
        self._handlers: Dict[int, Handler] = {}
        self._handler_formats: List[IOFormat] = []
        self._routes: Dict[int, _XMLRoute] = {}
        self.morphed = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------

    def declare_format(self, fmt: IOFormat) -> None:
        """Make *fmt* resolvable from its root tag + version attribute."""
        self._declared[(fmt.name, fmt.version)] = fmt

    def register_transform(self, spec: XSLTTransformSpec) -> None:
        self.declare_format(spec.source)
        self.declare_format(spec.target)
        Stylesheet.from_string(spec.stylesheet)  # fail fast on bad XSL
        self._transforms.setdefault(spec.source.format_id, []).append(spec)
        self._routes.clear()

    def register_handler(self, fmt: IOFormat, handler: Handler) -> None:
        self.declare_format(fmt)
        self._handlers[fmt.format_id] = handler
        if all(f.format_id != fmt.format_id for f in self._handler_formats):
            self._handler_formats.append(fmt)
        self._routes.clear()

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process(self, text: str) -> Any:
        root = parse_xml(text)
        incoming = self._resolve(root)
        route = self._routes.get(incoming.format_id)
        if route is not None:
            self.cache_hits += 1
        else:
            route = self._plan(incoming)
            self._routes[incoming.format_id] = route
        return self._run(route, root)

    def _resolve(self, root: XMLElement) -> IOFormat:
        key = (root.tag, root.attributes.get("version"))
        fmt = self._declared.get(key)
        if fmt is None:
            raise UnknownFormatError(hash(key) & 0xFFFFFFFF)
        return fmt

    def _plan(self, incoming: IOFormat) -> _XMLRoute:
        targets = [f for f in self._handler_formats if f.name == incoming.name]
        direct = max_match(
            incoming, targets, self.diff_threshold, self.mismatch_threshold
        )
        if direct is not None and direct.is_perfect:
            coercion = None
            if direct.f2.format_id != incoming.format_id:
                # a perfect score is not structural equality: a reader
                # field of importance 0 may be missing or differently typed
                coercion = (incoming, direct.f2)
            return _XMLRoute(incoming, [], coercion, direct.f2)
        chains = transform_chains(incoming.format_id, self._transforms)
        candidates = [incoming] + [chain[-1].target for chain in chains]
        best = max_match(
            candidates, targets, self.diff_threshold, self.mismatch_threshold
        )
        if best is None:
            return _XMLRoute(incoming, [], None, None)
        stylesheets: List[Stylesheet] = []
        if best.f1.format_id != incoming.format_id:
            specs = next(
                chain for chain in chains
                if chain[-1].target.format_id == best.f1.format_id
            )
            stylesheets = [Stylesheet.from_string(s.stylesheet) for s in specs]
        coercion = None
        if not best.is_perfect or best.f1.format_id != best.f2.format_id:
            coercion = (best.f1, best.f2)
        return _XMLRoute(incoming, stylesheets, coercion, best.f2)

    def _run(self, route: _XMLRoute, root: XMLElement) -> Any:
        if route.is_reject:
            raise NoMatchError(
                f"no acceptable match for XML message <{route.wire_format.name}> "
                f"v{route.wire_format.version}"
            )
        for stylesheet in route.stylesheets:
            root = stylesheet.transform(root)
        if route.stylesheets:
            self.morphed += 1
        decode_format = (
            route.coercion[0] if route.coercion is not None else route.handler_format
        )
        assert decode_format is not None
        record = record_from_tree(decode_format, root)
        if route.coercion is not None:
            record = coerce_record(route.coercion[0], route.coercion[1], record)
        handler_format = route.handler_format
        assert handler_format is not None
        return self._handlers[handler_format.format_id](record)
