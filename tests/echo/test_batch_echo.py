"""ECho ``submit_batch`` — wire-level batching through the event layer.

The batched publish path must be observationally identical to the
per-event path: exactly-once, in-order, morphed-per-revision delivery
over a lossy reliable fabric — including when whole BATCH1 frames are
retransmitted — plus one frame-level trace context threading every
contained event's delivery spans.
"""

from repro import obs
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.tracing import find_spans
from repro.pbio.registry import FormatRegistry

from repro.echo.process import EChoProcess

from tests.echo.test_reliable_echo import (
    EVT_V0,
    EVT_V1,
    EVT_V2,
    V1_TO_V0,
    V2_TO_V1,
)


def run_batch_chain(
    messages=40, batch_size=8, net_seed=0, loss_rate=0.1, jitter=0.005
):
    """The reliable-echo acceptance chain, publishing in BATCH1 frames:
    V2 writer -> V1 + V0 sinks over a lossy fabric."""
    net = Network(
        seed=net_seed,
        default_link=LinkSpec(loss_rate=loss_rate, jitter=jitter),
    )
    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1)
    registry.register_transform(V1_TO_V0)
    procs = [
        EChoProcess(net, name, registry, version=version, reliable=True)
        for name, version in (
            ("creator", "2.0"), ("source", "2.0"),
            ("sink1", "1.0"), ("sink0", "0.0"),
        )
    ]
    creator, source, sink1, sink0 = procs
    creator.create_channel("ch")
    source.open_channel("ch", "creator", as_source=True)
    sink1.open_channel("ch", "creator", as_sink=True)
    sink0.open_channel("ch", "creator", as_sink=True)
    net.run()
    got1, got0 = [], []
    sink1.subscribe("ch", EVT_V1, lambda r: got1.append(r["n"]))
    sink0.subscribe("ch", EVT_V0, lambda r: got0.append(r["n"]))
    for start in range(0, messages, batch_size):
        source.submit_batch(
            "ch", EVT_V2,
            [
                EVT_V2.make_record(n=n, extra=2 * n, flag=1)
                for n in range(start, min(start + batch_size, messages))
            ],
        )
    net.run()
    return net, got1, got0, procs


class TestBatchedLossyChain:
    def test_batched_chain_is_exactly_once_and_in_order(self):
        net, got1, got0, _procs = run_batch_chain()
        assert got1 == list(range(40))
        assert got0 == list(range(40))
        assert net.pending == 0
        assert net.handler_errors == 0

    def test_retransmitted_frames_deliver_each_message_exactly_once(self):
        """The loss rate forces whole-frame retransmits; duplicate
        suppression at the reliable layer must keep every *contained*
        message exactly-once."""
        _net, got1, got0, procs = run_batch_chain(net_seed=5)
        assert sum(proc.reliable.retries for proc in procs) > 0
        assert got1 == sorted(set(got1)) == list(range(40))
        assert got0 == sorted(set(got0)) == list(range(40))
        for proc in procs:
            counters = proc.reliable.counters()
            assert counters["sent"] == counters["acked"]
            assert counters["failed"] == counters["rejected"] == 0
            assert proc.reliable.in_flight == 0

    def test_batch_sends_fewer_reliable_frames_than_single(self):
        """The point of batching: 40 events in frames of 8 cost the
        source 5 reliable sequence numbers per sink, not 40."""
        _net, _got1, _got0, procs = run_batch_chain(
            loss_rate=0.0, jitter=0.0
        )
        source = procs[1]
        # 2 remote sinks x 5 frames (plus channel-control traffic,
        # which is single-digit)
        assert source.reliable.sent < 40

    def test_empty_submit_batch_is_a_no_op(self):
        net = Network(seed=0)
        registry = FormatRegistry()
        creator = EChoProcess(net, "creator", registry, version="2.0",
                              reliable=True)
        source = EChoProcess(net, "source", registry, version="2.0",
                             reliable=True)
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        net.run()
        assert source.submit_batch("ch", EVT_V2, []) == 0


class TestBatchTraceContinuity:
    def test_one_frame_level_trace_covers_every_delivery(self):
        obs.enable(registry=obs.Registry(), sample_every=1)
        try:
            run_batch_chain(
                messages=8, batch_size=4, loss_rate=0.0, jitter=0.0
            )
            tree = obs.get_tracer().tree()
            publishes = find_spans(tree, "echo.publish_batch")
            receives = find_spans(tree, "echo.batch.receive")
            assert len(publishes) == 2  # 8 events / batch_size 4
            assert receives, "sinks recorded no batch receive spans"
            minted = {span.get("trace_id") for span in publishes}
            assert None not in minted
            assert {span.get("trace_id") for span in receives} <= minted
        finally:
            obs.disable(reset=True)
