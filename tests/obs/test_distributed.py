"""Tests for trace assembly (TraceStore / flight recorder / Chrome
export), histogram exemplars, the span-drop counter, and the label
cardinality guard."""

import json

import pytest

from repro import obs
from repro.obs.distributed import FlightReport, TraceStore
from repro.obs.metrics import (
    DEFAULT_LABEL_LIMIT,
    OVERFLOW_LABEL,
    Registry,
)
from repro.obs.tracectx import activate, make_context, seed_ids
from repro.obs.tracing import SpanRecorder


def _record_one_hop(recorder, ctx, names=("stage.a", "stage.b")):
    """One root span with children under *ctx*, as a process would."""
    with activate(ctx):
        with recorder.span(names[0], process="P"):
            for name in names[1:]:
                with recorder.span(name):
                    pass


class TestTraceStore:
    def test_add_recorder_and_trace_ids(self):
        seed_ids(1)
        recorder = SpanRecorder()
        first, second = make_context(), make_context()
        _record_one_hop(recorder, first)
        _record_one_hop(recorder, second)
        store = TraceStore()
        assert store.add_recorder("P", recorder) == 4
        ids = store.trace_ids()
        assert ids == [f"{first.trace_id:032x}", f"{second.trace_id:032x}"]

    def test_add_snapshot_round_trips_through_json(self):
        seed_ids(2)
        recorder = SpanRecorder()
        ctx = make_context()
        _record_one_hop(recorder, ctx)
        from repro.obs.export import build_snapshot

        snap = json.loads(json.dumps(build_snapshot(Registry(), recorder)))
        store = TraceStore()
        assert store.add_snapshot("node-1", snap) == 2
        tid = f"{ctx.trace_id:032x}"
        assert store.trace_ids() == [tid]
        assert {s.name for s in store.spans_for(tid)} == {"stage.a", "stage.b"}

    def test_process_attr_overrides_tag(self):
        seed_ids(3)
        recorder = SpanRecorder()
        _record_one_hop(recorder, make_context())
        store = TraceStore()
        store.add_recorder("fallback", recorder)
        (tid,) = store.trace_ids()
        roots = [s for s in store.spans_for(tid) if s.parent_id is None]
        assert roots[0].process == "P"  # from the span's process attr


class TestFlight:
    def _two_hop_store(self):
        """Sender and receiver recorders joined by the wire context."""
        seed_ids(4)
        sender, receiver = SpanRecorder(), SpanRecorder()
        ctx = make_context()
        with activate(ctx):
            with sender.span("echo.publish", process="A"):
                pass
        wire_ctx = ctx.child(ctx.span_id)  # what decode_block would yield
        wire_ctx.origin = False
        with activate(wire_ctx):
            with receiver.span("net.deliver", process="B"):
                with receiver.span("morph.process"):
                    pass
        store = TraceStore()
        store.add_recorder("A", sender)
        store.add_recorder("B", receiver)
        return store, ctx

    def test_hops_ordered_and_linked(self):
        store, ctx = self._two_hop_store()
        report = store.flight(f"{ctx.trace_id:032x}")
        assert isinstance(report, FlightReport)
        assert [hop.process for hop in report.hops] == ["A", "B"]
        publish, deliver = report.hops
        # the sender's root claimed the context's hop id; the receiver's
        # root carries it back as remote_parent — that is the join
        assert publish.root.dspan_id == f"{ctx.span_id:016x}"
        assert deliver.root.remote_parent == publish.root.dspan_id

    def test_breakdown_and_report_text(self):
        store, ctx = self._two_hop_store()
        report = store.flight(f"{ctx.trace_id:032x}")
        totals = report.breakdown()
        assert set(totals) == {"echo.publish", "net.deliver", "morph.process"}
        text = report.hop_report()
        assert "hop 0 [A] echo.publish" in text
        assert "hop 1 [B] net.deliver" in text
        assert "breakdown:" in text

    def test_error_rollup(self):
        seed_ids(5)
        recorder = SpanRecorder()
        ctx = make_context()
        with activate(ctx):
            with pytest.raises(ValueError):
                with recorder.span("morph.process", process="B"):
                    raise ValueError("boom")
        store = TraceStore()
        store.add_recorder("B", recorder)
        report = store.flight(f"{ctx.trace_id:032x}")
        assert not report.ok
        assert report.errors == [("B", "morph.process", "ValueError")]
        assert "!! ValueError" in report.hop_report()

    def test_flight_for_unknown_trace_is_empty(self):
        report = TraceStore().flight("0" * 32)
        assert report.hops == []
        assert "no spans recorded" in report.hop_report()


class TestChromeExport:
    def test_events_shape(self):
        store, ctx = TestFlight()._two_hop_store()
        doc = store.to_chrome(f"{ctx.trace_id:032x}")
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"A", "B"}
        assert len(slices) == 3
        for event in slices:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == f"{ctx.trace_id:032x}"
        # distinct pids per process, matching their metadata events
        pids = {m["args"]["name"]: m["pid"] for m in meta}
        assert pids["A"] != pids["B"]
        json.dumps(doc)  # serializable

    def test_export_all_traces_when_unfiltered(self):
        seed_ids(6)
        recorder = SpanRecorder()
        _record_one_hop(recorder, make_context())
        _record_one_hop(recorder, make_context())
        store = TraceStore()
        store.add_recorder("P", recorder)
        doc = store.to_chrome()
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 4


class TestExemplars:
    def test_histogram_records_last_traceparent_per_bucket(self):
        registry = Registry()
        hist = registry.histogram("x.seconds", bounds=(1.0, 10.0))
        seed_ids(7)
        ctx = make_context()
        with activate(ctx):
            hist.observe(0.5)
            hist.observe(5.0)
        hist.observe(50.0)  # no active context: bucket keeps no exemplar
        pairs = hist.exemplars()
        assert dict((le, tp) for le, tp in pairs if tp) == {
            1.0: ctx.traceparent(),
            10.0: ctx.traceparent(),
        }
        snap = hist.snapshot()
        traced = [e for e in snap["exemplars"] if e["trace"]]
        assert len(traced) == 2

    def test_no_exemplars_key_when_none_recorded(self):
        hist = Registry().histogram("y.seconds")
        hist.observe(1.0)
        assert "exemplars" not in hist.snapshot()


class TestDropCounter:
    def test_eviction_counts_dropped_and_bumps_counter(self):
        obs.enable(capacity=4)
        recorder = obs.get_tracer()
        for i in range(7):
            with recorder.span(f"s{i}"):
                pass
        assert recorder.dropped == 3
        assert recorder.recorded_total == 7
        assert obs.get_registry().counter("obs.trace.dropped").value == 3
        snap = obs.snapshot()
        assert snap["spans"]["dropped"] == 3

    def test_no_drops_below_capacity(self):
        obs.enable(capacity=16)
        recorder = obs.get_tracer()
        with recorder.span("only"):
            pass
        assert recorder.dropped == 0
        assert obs.snapshot()["spans"]["dropped"] == 0


class TestLabelGuard:
    def test_values_within_limit_pass_through(self):
        registry = Registry()
        out = registry.bounded("m", limit=4, channel="a")
        assert out == {"channel": "a"}

    def test_overflow_collapses_and_counts(self):
        registry = Registry()
        for i in range(6):
            registry.counter("m", **registry.bounded(
                "m", limit=4, channel=f"ch-{i}")).inc()
        names = {
            labels_value
            for instrument in registry.instruments()
            if instrument.name == "m"
            for key, labels_value in instrument.labels
        }
        assert OVERFLOW_LABEL in names
        assert len([n for n in names if n != OVERFLOW_LABEL]) == 4
        overflow = registry.counter("obs.labels.overflow", metric="m")
        assert overflow.value == 2

    def test_seen_values_stay_stable_after_overflow(self):
        registry = Registry()
        registry.bounded("m", limit=1, k="first")
        assert registry.bounded("m", limit=1, k="second") == {
            "k": OVERFLOW_LABEL
        }
        # the value admitted before the limit keeps its identity
        assert registry.bounded("m", limit=1, k="first") == {"k": "first"}

    def test_default_limit_exists(self):
        assert DEFAULT_LABEL_LIMIT >= 8
