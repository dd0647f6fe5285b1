"""Tracing spans — nestable timed sections with attributes.

A *span* records one named section of work: wall-clock start, duration,
free-form attributes, and its parent span (maintained per thread, so
``with span(...)`` blocks nest naturally).  Finished spans land in a
bounded in-memory ring buffer — old spans fall off the back, the
recorder never grows without bound, and a long-running process can be
snapshotted at any time.

Two recorders share the interface:

* :class:`SpanRecorder` — the real thing, installed by
  :func:`repro.obs.enable`;
* :class:`NullRecorder` — the default.  Its :meth:`~NullRecorder.span`
  returns a shared no-op context manager, so tracing a disabled system
  costs one attribute lookup and one method call per site (and hot paths
  additionally guard on ``OBS.enabled``, skipping even that).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs import tracectx
from repro.obs.metrics import Handles
from repro.obs.state import OBS

DEFAULT_CAPACITY = 4096


class Span:
    """One finished (or in-flight) span.

    The three distributed-tracing fields are populated only for spans
    recorded while a :class:`~repro.obs.tracectx.TraceContext` was
    active: ``trace_id`` joins the span to its cross-process trace,
    ``dspan_id`` is set on the root span that *created* the context (the
    hop id the wire block carries downstream), and ``remote_parent``
    links a receive-side root span back to the sender's hop."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attrs", "trace_id", "dspan_id", "remote_parent")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,  # seconds, time.perf_counter() clock
        duration: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
        trace_id: Optional[int] = None,
        dspan_id: Optional[int] = None,
        remote_parent: Optional[int] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.attrs = attrs if attrs is not None else {}
        self.trace_id = trace_id
        self.dspan_id = dspan_id
        self.remote_parent = remote_parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, span_id={self.span_id}, "
                f"parent_id={self.parent_id}, duration={self.duration})")

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            out["trace_id"] = f"{self.trace_id:032x}"
            if self.dspan_id is not None:
                out["dspan_id"] = f"{self.dspan_id:016x}"
            if self.remote_parent is not None:
                out["remote_parent"] = f"{self.remote_parent:016x}"
        return out


class _ActiveSpan:
    """Context manager for one span; records into its recorder on exit."""

    __slots__ = ("recorder", "span", "_stack")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.span = Span(name, next(recorder._ids), None, 0.0, 0.0, attrs)

    def set_attr(self, key: str, value: Any) -> None:
        """Attach an attribute discovered mid-span (e.g. the match score
        once MaxMatch finishes)."""
        self.span.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        # the thread's stack, fetched once for enter and exit
        stack = self._stack = self.recorder._stack()
        span = self.span
        if stack:
            span.parent_id = stack[-1]
        stack.append(span.span_id)
        ctx = tracectx.current()
        if ctx is not None and ctx.sampled:
            span.trace_id = ctx.trace_id
            if span.parent_id is None:
                if ctx.origin:
                    # this root span *is* the hop the context names; the
                    # wire block carries its id to the receiving process
                    span.dspan_id = ctx.span_id
                    ctx.origin = False
                else:
                    span.remote_parent = ctx.span_id
        span.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self.span
        span.duration = time.perf_counter() - span.start
        stack = self._stack
        if stack and stack[-1] == span.span_id:
            stack.pop()
        if exc_type is not None:
            # mark the span as failed with the exception type (and a
            # bounded message) so exports and the flight recorder can
            # roll an error flag up the hop timeline
            span.attrs.setdefault("error", exc_type.__name__)
            if exc is not None:
                message = str(exc)
                if len(message) > 200:
                    message = message[:197] + "..."
                span.attrs.setdefault("error_message", message)
        self.recorder.record(span)


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullRecorder`."""

    __slots__ = ()

    #: what ``as active`` sites read (``active.span.duration``) when the
    #: tracer was swapped for a NullRecorder under them: took no time
    span = Span("", 0, None, 0.0)

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled-tracing recorder: every span is the same no-op."""

    capacity = 0
    dropped = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, span: Span) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


class SpanRecorder:
    """Bounded ring buffer of finished spans, with per-thread nesting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("span ring buffer capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.recorded_total = 0  # includes spans already evicted
        #: spans silently evicted from the ring by newer recordings —
        #: surfaced in snapshots and as the ``obs.trace.dropped`` counter
        #: so a truncated trace is distinguishable from a complete one
        self.dropped = 0
        # a steady-state recorder evicts on every span: hold the counter
        self._obs_dropped = Handles.counter("obs.trace.dropped")

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def record(self, span: Span) -> None:
        with self._lock:
            evicting = len(self._ring) == self.capacity
            self._ring.append(span)
            self.recorded_total += 1
            if evicting:
                self.dropped += 1
        if evicting and OBS.enabled:
            self._obs_dropped().inc()

    def spans(self) -> List[Span]:
        """Buffered spans, oldest first (completion order)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- tree reconstruction -------------------------------------------

    def tree(self) -> List[Dict[str, Any]]:
        """Nest the buffered spans into ``{span..., "children": [...]}``
        dicts.  Children whose parent has been evicted from the ring (or
        is still open) surface as roots — the tree is always complete
        over what the buffer holds."""
        spans = self.spans()
        nodes: Dict[int, Dict[str, Any]] = {}
        for span in spans:
            node = span.to_dict()
            node["children"] = []
            nodes[span.span_id] = node
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        # children completed before their parents (inner spans exit
        # first); order each level by start time for readable output
        def sort_level(level: List[Dict[str, Any]]) -> None:
            level.sort(key=lambda n: n["start"])
            for item in level:
                sort_level(item["children"])

        sort_level(roots)
        return roots


def find_spans(tree: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    """All nodes named *name* anywhere in a :meth:`SpanRecorder.tree`
    result (testing/reporting helper)."""
    found: List[Dict[str, Any]] = []
    for node in tree:
        if node["name"] == name:
            found.append(node)
        found.extend(find_spans(node["children"], name))
    return found
