"""ECho ``submit_batch`` — wire-level batching through the event layer.

The batched publish path must be observationally identical to the
per-event path: exactly-once, in-order, morphed-per-revision delivery
over a lossy reliable fabric — including when whole BATCH1 frames are
retransmitted — plus one frame-level trace context threading every
contained event's delivery spans.  A poisoned segment costs one
contained failure and its neighbours still deliver; so does a hostile
datagram — a bare short one, a truncated frame, a nested frame.
"""

import pytest

from repro import obs
from repro.echo.protocol import EVENT_ENVELOPE
from repro.errors import ReproError
from repro.net.batch import pack_batch
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.tracing import find_spans
from repro.pbio.buffer import HEADER_SIZE, pack_header, unpack_header
from repro.pbio.registry import FormatRegistry

from repro.echo.process import EChoProcess

from tests.echo.test_reliable_echo import (
    EVT_V0,
    EVT_V1,
    EVT_V2,
    V1_TO_V0,
    V2_TO_V1,
)
from tests.echo import test_projection_echo as projection
from tests.fabric.test_batch_fabric import OBS_MODES, observed
from tests.integration.test_hold import settle, transport
from tests.net.test_frame_ceiling import recorded_sends


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
        EChoProcess(net, name, registry, version=version)
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
        creator = EChoProcess(net, "creator", registry, version="2.0")
        source = EChoProcess(net, "source", registry, version="2.0")
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


def echo_fleet(local):
    """A V2 source and a V1 sink on one channel; with *local* the source
    is a sink of it too."""
    net = Network(seed=0)
    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1)
    creator, source, sink = (
        EChoProcess(net, name, registry, version=version)
        for name, version in (("creator", "2.0"), ("source", "2.0"),
                              ("sink", "1.0"))
    )
    creator.create_channel("ch")
    source.open_channel("ch", "creator", as_source=True, as_sink=local)
    sink.open_channel("ch", "creator", as_sink=True)
    net.run()
    got = []
    if local:
        source.subscribe("ch", EVT_V2, lambda r: got.append(r["n"]))
    sink.subscribe("ch", EVT_V1, lambda r: None)
    return source, EVT_V2, got


def projected_fleet():
    """A source whose channel has negotiated a projection to ``n``."""
    net, _creator, source, _sink0, _got0 = projection.build_fleet()
    projection.send_range(net, source, 0, 2)  # negotiate
    projection.send_range(net, source, 2, 3)  # promote the fence
    return source, projection.EVT_V2, []


class TestOneSendBody:
    """``submit`` and ``submit_batch`` share one body: what each hands
    the reliable endpoint is the wire the two bodies it replaced sent,
    byte for byte — on a plain channel, a projected one and one with a
    local sink — with observation off and for an unsampled event.  A
    batch of one is the one wire that changed: it leaves as a
    ``submit``."""

    CASES = pytest.mark.parametrize("case", ["plain", "projected", "local"])

    def sent(self, case, mode, call):
        """What *call* (given the source, its event format and 5 events)
        sends, the 5 ``envelope + payload`` wires the source would build
        for those events, and the events delivered locally."""
        if case == "projected":
            source, fmt, got = projected_fleet()
        else:
            source, fmt, got = echo_fleet(local=case == "local")
        events = [fmt.make_record(n=n, extra=2 * n, flag=1) for n in range(5)]
        first = source.channel("ch").seq + 1
        sent = recorded_sends(source.reliable)
        with observed(mode):
            call(source, fmt, events)
        state = source._projection_send.get(("ch", fmt.format_id))
        wire_fmt = state["format"] if state else fmt
        assert (case == "projected") == (wire_fmt.field_names() == ["n"])
        wires = [
            source.pbio.encode(EVENT_ENVELOPE, EVENT_ENVELOPE.make_record(
                channel_id="ch", seq=seq,
            )) + source.pbio.encode(wire_fmt, record)
            for seq, record in enumerate(events, first)
        ]
        return sent, wires, got

    @CASES
    @OBS_MODES
    def test_submit_sends_envelope_then_payload(self, case, mode):
        sent, wires, got = self.sent(
            case, mode, lambda source, fmt, events: source.submit(
                "ch", fmt, events[0]))
        assert sent == wires[:1]
        assert got == ([0] if case == "local" else [])

    @CASES
    @OBS_MODES
    def test_submit_batch_sends_one_packed_frame(self, case, mode):
        sent, wires, got = self.sent(
            case, mode, lambda source, fmt, events: source.submit_batch(
                "ch", fmt, events))
        assert sent == [pack_batch(wires)]
        assert got == (list(range(5)) if case == "local" else [])

    @CASES
    @OBS_MODES
    def test_submit_batch_of_one_is_a_submit(self, case, mode):
        batch, wires, _ = self.sent(
            case, mode, lambda source, fmt, events: source.submit_batch(
                "ch", fmt, events[:1]))
        single, _, _ = self.sent(
            case, mode, lambda source, fmt, events: source.submit(
                "ch", fmt, events[0]))
        assert batch == single == wires[:1]


def _short(segment):
    return segment[:HEADER_SIZE - 1]


def _corrupt_header(segment):
    return b"\xde\xad\xbe\xef" + segment[4:]


def _cut_envelope(segment):
    """The envelope alone, its body cut three bytes short and its header
    declaring the shorter length: the header reads, the envelope does
    not decode."""
    header = unpack_header(segment)
    body = segment[header.body_offset:][:header.payload_length - 3]
    return pack_header(header.format_id, len(body)) + body


def _in_frame(poison):
    """Segment 2 of a five-event frame, poisoned: its neighbours deliver."""
    def datagrams(segment):
        segments = [segment(n) for n in range(5)]
        segments[2] = poison(segments[2])
        return [pack_batch(segments)], [0, 1, 3, 4]
    return datagrams


def _bare_short(segment):
    return [b"\x00\x01", segment(1)], [1]


def _truncated_frame(segment):
    return [pack_batch([segment(0), segment(1)])[:-3], segment(2)], [2]


def _nested_frame(segment):
    nested = pack_batch([segment(1), segment(2)])
    return [pack_batch([segment(0), nested, segment(3)])], [0, 3]


class TestPoisonedSegment:
    """The sink's ``_on_segments`` contains each segment, as the fabric's
    worker and client do: the reliable layer acked the whole frame, so
    a segment that raised out of the loop would take its neighbours with
    it for good.  What is hostile in a whole datagram — a bare message
    shorter than a header, a frame cut short, a frame nested in a frame
    — is one contained failure too, and what travels beside it or after
    it still delivers.  None of it reaches the transport."""

    @pytest.mark.parametrize(
        "hostile",
        [_in_frame(_short), _in_frame(_corrupt_header),
         _in_frame(_cut_envelope), _bare_short, _truncated_frame,
         _nested_frame],
        ids=["shorter_than_a_header", "corrupt_header", "cut_envelope",
             "bare_short", "truncated_frame", "nested_frame"],
    )
    @pytest.mark.parametrize("kind", ["sim", "socket"])
    def test_neighbours_of_a_poisoned_segment_deliver_in_order(
        self, kind, hostile
    ):
        with transport(kind) as net:
            registry = FormatRegistry()
            registry.register_transform(V2_TO_V1)
            creator = EChoProcess(net, "creator", registry, version="2.0")
            sink = EChoProcess(net, "sink", registry, version="1.0")
            creator.create_channel("ch")
            sink.open_channel("ch", "creator", as_sink=True)
            settle(net)
            got = []
            sink.subscribe("ch", EVT_V1, lambda r: got.append(r["n"]))

            def segment(n):
                envelope = EVENT_ENVELOPE.make_record(channel_id="ch", seq=n)
                event = EVT_V2.make_record(n=n, extra=2 * n, flag=1)
                return (creator.pbio.encode(EVENT_ENVELOPE, envelope)
                        + creator.pbio.encode(EVT_V2, event))

            datagrams, expected = hostile(segment)
            for datagram in datagrams:
                creator.reliable.send("sink", datagram)
            settle(net)
            assert got == expected
            assert sink.errors == 1
            assert isinstance(sink.last_error, ReproError)
            assert net.handler_errors == 0
