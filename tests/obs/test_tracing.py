"""Unit tests for spans: nesting, ring-buffer bounds, null recorder."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.tracing import (
    NullRecorder,
    SpanRecorder,
    _NULL_SPAN,
    find_spans,
)


class TestSpanNesting:
    def test_parent_ids_follow_with_blocks(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("sibling"):
                pass
        spans = {s.name: s for s in recorder.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id

    def test_spans_record_duration_and_attrs(self):
        recorder = SpanRecorder()
        with recorder.span("work", stage="decode") as active:
            active.set_attr("bytes", 128)
        (span,) = recorder.spans()
        assert span.duration >= 0.0
        assert span.attrs == {"stage": "decode", "bytes": 128}

    def test_exception_marks_span_and_propagates(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("will-fail"):
                raise ValueError("boom")
        (span,) = recorder.spans()
        assert span.attrs["error"] == "ValueError"

    def test_tree_nests_and_orders_children_by_start(self):
        recorder = SpanRecorder()
        with recorder.span("root"):
            with recorder.span("first"):
                with recorder.span("leaf"):
                    pass
            with recorder.span("second"):
                pass
        tree = recorder.tree()
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["first", "second"]
        assert root["children"][0]["children"][0]["name"] == "leaf"

    def test_resume_parents_spans_under_a_closed_one(self):
        recorder = SpanRecorder()
        with recorder.span("queued"):
            parent = recorder.innermost()
        assert recorder.innermost() is None
        with recorder.resume(parent):
            with recorder.span("sent"):
                pass
        with recorder.resume(None):
            with recorder.span("alone"):
                pass
        spans = {s.name: s for s in recorder.spans()}
        assert spans["sent"].parent_id == spans["queued"].span_id == parent
        assert spans["alone"].parent_id is None
        assert recorder.innermost() is None

    def test_find_spans_searches_all_depths(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("b"):
            pass
        tree = recorder.tree()
        assert len(find_spans(tree, "b")) == 2
        assert find_spans(tree, "zzz") == []


class TestRingBuffer:
    def test_capacity_bounds_buffer_but_not_total(self):
        recorder = SpanRecorder(capacity=4)
        for i in range(10):
            with recorder.span(f"s{i}"):
                pass
        spans = recorder.spans()
        assert len(spans) == 4
        assert [s.name for s in spans] == ["s6", "s7", "s8", "s9"]
        assert recorder.recorded_total == 10

    def test_eviction_drops_oldest_completed_spans(self):
        # Inner spans complete (and are recorded) before their parent, so
        # the oldest child is the one the ring evicts first.
        recorder = SpanRecorder(capacity=2)
        with recorder.span("parent"):
            with recorder.span("child1"):
                pass
            with recorder.span("child2"):
                pass
        names = [s.name for s in recorder.spans()]
        assert names == ["child2", "parent"]
        tree = recorder.tree()
        assert [c["name"] for c in tree[0]["children"]] == ["child2"]

    def test_children_of_open_parent_surface_as_roots(self):
        # A snapshot taken while the parent span is still open must not
        # lose the completed children — they show up as roots.
        recorder = SpanRecorder()
        with recorder.span("open-parent"):
            with recorder.span("child"):
                pass
            tree_mid = recorder.tree()
        assert [n["name"] for n in tree_mid] == ["child"]

    def test_clear_empties_buffer(self):
        recorder = SpanRecorder()
        with recorder.span("s"):
            pass
        recorder.clear()
        assert recorder.spans() == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestNullRecorder:
    def test_span_is_shared_noop(self):
        recorder = NullRecorder()
        span = recorder.span("anything", k="v")
        assert span is _NULL_SPAN
        with span as active:
            active.set_attr("ignored", 1)
        assert recorder.spans() == []
        assert recorder.innermost() is None
        assert recorder.resume(7) is _NULL_SPAN

    def test_module_level_span_helper_respects_enable(self):
        assert not obs.is_enabled()
        assert obs.span("x") is _NULL_SPAN
        obs.enable()
        try:
            with obs.span("x"):
                pass
            assert [s.name for s in obs.get_tracer().spans()] == ["x"]
        finally:
            obs.disable(reset=True)
        assert obs.span("x") is _NULL_SPAN
