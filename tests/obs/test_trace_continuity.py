"""Trace-continuity tests (ISSUE 5 satellites + acceptance).

A trace must survive everything the middleware does to a message:
retransmission after loss, dead-letter parking and later retry, the
fused-vs-staged execution choice — and must not spread to the message
the reorder buffer hands up beside it.  The final class is the PR's
acceptance scenario: a two-process morphing chain over a 10% lossy
fabric where every delivered message yields exactly one trace spanning
publish → (retransmits) → decode → transform chain → dispatch.
"""

import pytest

from repro import obs
from repro.echo.process import EChoProcess
from repro.morph.receiver import MorphReceiver
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.distributed import TraceStore
from repro.obs.tracectx import TraceContext, current, make_context, seed_ids
from repro.pbio.buffer import FLAG_TRACE, attach_trace, unpack_header
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

EVT_V1 = IOFormat(
    "CtEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="1.0",
)
EVT_V0 = IOFormat("CtEvt", [IOField("n", "integer")], version="0.0")
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0, code="old.n = new.n;",
    description="CtEvt 1.0 -> 0.0",
)


def _store_from_tracer() -> TraceStore:
    store = TraceStore()
    store.add_recorder("local", obs.get_tracer())
    return store


def _traced_wire(registry: FormatRegistry, ctx: TraceContext) -> bytes:
    wire = PBIOContext(registry).encode(EVT_V1, EVT_V1.make_record(n=5, extra=9))
    return attach_trace(wire, ctx)


class TestReliableRetransmitContinuity:
    def test_retransmits_share_the_original_trace(self):
        """Drop enough frames that some event needs a retransmission;
        its retransmit spans must carry the same trace id as its
        publish span."""
        registry = FormatRegistry()
        registry.register(EVT_V0)
        obs.enable(capacity=16384, sample_every=1)
        seed_ids(11)
        net = Network(
            seed=3, default_link=LinkSpec(latency=0.001, loss_rate=0.25)
        )
        a = EChoProcess(net, "A", registry, reliable=True)
        b = EChoProcess(net, "B", registry, reliable=True)
        a.create_channel("ch")
        b.open_channel("ch", "A", as_sink=True)
        net.run()
        got = []
        b.subscribe("ch", EVT_V0, got.append)
        for i in range(20):
            a.submit("ch", EVT_V0, EVT_V0.make_record(n=i))
        net.run()
        assert len(got) == 20
        store = _store_from_tracer()
        retransmitted = [
            tid for tid in store.trace_ids()
            if store.flight(tid).retransmits
        ]
        assert retransmitted, "seed produced no retransmissions — retune"
        for tid in retransmitted:
            report = store.flight(tid)
            names = set(report.span_names())
            # the retransmit belongs to the same trace as the original
            # publish and the eventual delivery
            assert "echo.publish" in names
            assert "net.reliable.retransmit" in names
            assert "morph.dispatch" in names
            assert all(s.trace_id == tid for s in report.spans)


class TestDlqRetryContinuity:
    def test_retry_dead_letters_resumes_the_trace(self):
        """A message dead-lettered for want of a handler re-joins its
        original trace when retry_dead_letters replays it."""
        registry = FormatRegistry()
        registry.register(EVT_V1)
        receiver = MorphReceiver(registry, contain_failures=True)
        obs.enable(capacity=4096)
        seed_ids(12)
        ctx = make_context()
        ctx.origin = False  # as if decoded off the wire
        wire = _traced_wire(registry, ctx)
        assert receiver.process(wire) is None
        assert len(receiver.dead_letters) == 1
        # the cause is fixed: a handler appears
        delivered = []
        receiver.register_handler(EVT_V1, delivered.append)
        succeeded, requeued = receiver.retry_dead_letters()
        assert (succeeded, requeued) == (1, 0)
        assert len(delivered) == 1
        tid = f"{ctx.trace_id:032x}"
        store = _store_from_tracer()
        assert store.trace_ids() == [tid]
        report = store.flight(tid)
        # two morph.process roots — the failed pass and the successful
        # retry — both on the same trace, the retry reaching dispatch
        roots = [hop.root.name for hop in report.hops]
        assert roots.count("morph.process") == 2
        assert "morph.dispatch" in set(report.span_names())
        assert any(hop.errors for hop in report.hops)

    def test_parked_format_replay_resumes_the_trace(self):
        """An event parked while its format is fetched from the server
        fleet delivers under its original trace id."""
        from repro.pbio.server import FormatServer

        server_registry = FormatRegistry()
        server_registry.register(EVT_V1)
        server_registry.register(EVT_V0)
        server_registry.register_transform(V1_TO_V0)
        obs.enable(capacity=8192)
        seed_ids(13)
        net = Network(seed=4, default_link=LinkSpec(latency=0.001))
        FormatServer(net, "fs", registry=server_registry)
        writer = EChoProcess(net, "W", version="1.0", format_servers=["fs"])
        reader = EChoProcess(net, "R", version="0.0", format_servers=["fs"])
        # the writer knows V1 + the transform; the reader starts blank
        writer.registry.register(EVT_V1)
        writer.registry.register_transform(V1_TO_V0)
        writer.resolver.publish()
        reader.registry.register(EVT_V0)
        writer.create_channel("ch")
        reader.open_channel("ch", "W", as_sink=True)
        net.run()
        got = []
        reader.subscribe("ch", EVT_V0, got.append)
        writer.submit("ch", EVT_V1, EVT_V1.make_record(n=3, extra=4))
        net.run()
        assert len(got) == 1
        assert reader.parked >= 1
        store = _store_from_tracer()
        ids = store.trace_ids()
        assert len(ids) == 1
        names = set(store.flight(ids[0]).span_names())
        assert "echo.publish" in names
        assert "morph.dispatch" in names


class TestFusedStagedParity:
    def _run(self, use_fusion: bool):
        registry = FormatRegistry()
        registry.register(EVT_V1)
        registry.register_transform(V1_TO_V0)
        receiver = MorphReceiver(registry, use_fusion=use_fusion)
        delivered = []
        receiver.register_handler(EVT_V0, delivered.append)
        obs.disable(reset=True)
        obs.enable(capacity=4096)
        seed_ids(14)
        ctx = make_context()
        ctx.origin = False
        receiver.process(_traced_wire(registry, ctx))
        assert len(delivered) == 1
        store = _store_from_tracer()
        tid = f"{ctx.trace_id:032x}"
        report = store.flight(tid)
        applied = obs.get_registry().counter(
            "morph.transform.applied", format="CtEvt"
        ).value
        dispatched = obs.get_registry().counter(
            "morph.dispatch.delivered", format="CtEvt"
        ).value
        obs.disable(reset=True)
        return report, applied, dispatched, delivered[0]

    def test_span_trees_agree_on_the_trace_story(self):
        fused, fused_applied, fused_disp, fused_rec = self._run(True)
        staged, staged_applied, staged_disp, staged_rec = self._run(False)
        assert fused_rec == staged_rec
        # identical labeled counters on both execution paths
        assert (fused_applied, fused_disp) == (staged_applied, staged_disp) == (1, 1)
        for report in (fused, staged):
            assert len(report.hops) == 1
            assert report.hops[0].root.name == "morph.process"
            names = set(report.span_names())
            assert "morph.dispatch" in names
            # transform evidence: the fused routine or the staged chain
            assert "morph.fused" in names or "morph.transform" in names
            assert all(
                s.trace_id == report.trace_id for s in report.spans
            )
            # receive-side root links back to the sender's hop id
            assert report.hops[0].root.remote_parent is not None


class TestReorderBufferIsolation:
    """A payload the reliable layer hands up from its reorder buffer is
    not the datagram whose arrival is the active context: it runs under
    its own, or under none."""

    def _overtaken(self, sample_every):
        """One fabric owner, V2/V1/V0 subscribers, a link on which size
        decides arrival: a long event is published, then a short one that
        overtakes it and waits in the owner's reorder buffer.  Returns
        (owner, delivered datagrams per publish seq, contexts the
        subscribers' handlers ran under per seq)."""
        from repro.echo.protocol import (
            RESPONSE_V0, RESPONSE_V1, RESPONSE_V2,
            V1_TO_V0_TRANSFORM, V2_TO_V1_TRANSFORM,
        )
        from repro.fabric import EventFabric
        from repro.fabric.protocol import FABRIC_DELIVER
        from repro.net.reliable import HEADER_SIZE as RELIABLE_HEADER_SIZE

        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        net = Network(default_link=LinkSpec(latency=0.001, bandwidth=1e5))
        fabric = EventFabric(net, registry=registry, reliable=True)
        owner = fabric.add_worker("w0")
        net.run()
        pub = fabric.client("pub")
        seen = {}
        for index, fmt in enumerate((RESPONSE_V2, RESPONSE_V1, RESPONSE_V0)):
            fabric.client(f"sub{index}").subscribe(
                "ch", fmt,
                lambda c, p, seq, r: seen.setdefault(seq, []).append(current()),
            )
        net.run()
        obs.enable(sample_every=sample_every)
        seed_ids(16)
        delivered = {}
        send = net.send

        def tap(source, destination, data):
            if source == "w0" and destination.startswith("sub"):
                wire = data[RELIABLE_HEADER_SIZE:]
                header = unpack_header(wire)
                end = header.body_offset + header.payload_length
                seq = PBIOContext(registry).decode_as(
                    FABRIC_DELIVER, wire[:end])["seq"]
                delivered.setdefault(seq, []).append(
                    (header, unpack_header(wire, end)))
            return send(source, destination, data)

        net.send = tap

        def event(members):
            return RESPONSE_V2.make_record(
                channel_id="ch", member_count=members,
                member_list=[
                    {"info": f"host-{i}", "ID": i, "is_Source": True,
                     "is_Sink": False} for i in range(members)
                ])

        assert pub.publish("ch", RESPONSE_V2, event(40)) == 1
        assert pub.publish("ch", RESPONSE_V2, event(0)) == 2
        net.run()
        assert owner.reliable.reordered == 1
        assert sorted(delivered) == sorted(seen) == [1, 2]
        assert all(len(v) == 3 for v in (*delivered.values(), *seen.values()))
        return owner, delivered, seen

    def test_an_unsampled_neighbour_stays_untraced(self):
        _owner, delivered, seen = self._overtaken(sample_every=64)
        for envelope, payload in delivered[1]:
            assert envelope.flags & payload.flags & FLAG_TRACE
        for envelope, payload in delivered[2]:
            assert not (envelope.flags | payload.flags) & FLAG_TRACE
        assert seen[2] == [None, None, None]
        spans = obs.get_tracer().spans()
        (trace_id,) = {s.trace_id for s in spans if s.trace_id is not None}
        assert {ctx.trace_id for ctx in seen[1]} == {trace_id}
        # the short event was reliable seq 1 of pub's stream to the owner
        assert [s.attrs["seq"] for s in spans
                if s.name == "net.reliable.deliver"
                and s.attrs["peer"] == "pub"] == [0]
        assert sum(s.name == "fabric.morph" for s in spans) == 1

    def test_a_sampled_neighbour_keeps_its_own_trace(self):
        _owner, delivered, seen = self._overtaken(sample_every=1)
        traces = {
            seq: {h.trace.trace_id for pair in pairs for h in pair}
            for seq, pairs in delivered.items()
        }
        assert len(traces[1]) == len(traces[2]) == 1
        assert traces[1] != traces[2]
        for seq in (1, 2):
            assert {ctx.trace_id for ctx in seen[seq]} == traces[seq]
        handed_up = {
            s.attrs["seq"]: s.trace_id for s in obs.get_tracer().spans()
            if s.name == "net.reliable.deliver" and s.attrs["peer"] == "pub"
        }
        assert {handed_up[0]} == traces[1] and {handed_up[1]} == traces[2]


class TestEndToEndAcceptance:
    def test_lossy_two_process_chain_one_trace_per_message(self):
        """The acceptance scenario: V1 writer → V0 sink over a 10% lossy
        link with reliable endpoints.  Every delivered message produced
        exactly one trace whose merged timeline spans publish →
        (retransmits) → decode → transform → dispatch."""
        registry = FormatRegistry()
        registry.register(EVT_V1)
        registry.register(EVT_V0)
        registry.register_transform(V1_TO_V0)
        obs.enable(capacity=65536, sample_every=1)
        seed_ids(15)
        net = Network(
            seed=5, default_link=LinkSpec(latency=0.001, loss_rate=0.10)
        )
        writer = EChoProcess(net, "writer", registry, version="1.0",
                             reliable=True)
        sink = EChoProcess(net, "sink", registry, version="0.0",
                           reliable=True)
        writer.create_channel("ch")
        sink.open_channel("ch", "writer", as_sink=True)
        net.run()
        got = []
        sink.subscribe("ch", EVT_V0, got.append)
        messages = 25
        for i in range(messages):
            writer.submit("ch", EVT_V1, EVT_V1.make_record(n=i, extra=i * 2))
        net.run()
        assert len(got) == messages

        store = _store_from_tracer()
        ids = store.trace_ids()
        assert len(ids) == messages
        total_retransmits = 0
        for tid in ids:
            report = store.flight(tid)
            assert report.ok
            names = set(report.span_names())
            for required in ("echo.publish", "net.deliver", "morph.process",
                             "morph.dispatch"):
                assert required in names, (tid, sorted(names))
            assert "morph.fused" in names or "morph.transform" in names
            # publish is always the first hop, on the writer
            assert report.hops[0].root.name == "echo.publish"
            assert report.hops[0].process == "writer"
            total_retransmits += report.retransmits
        assert total_retransmits > 0, "10% loss produced no retransmits"
        # nothing fell out of the ring: the traces above are complete
        assert obs.snapshot()["spans"]["dropped"] == 0
