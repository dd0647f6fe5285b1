"""End-to-end projection push-down over ECho channels.

The full negotiated loop: sinks announce their fused interest sets on
first delivery, the format-server fleet unions them per channel and
derives a :class:`ProjectionFormat`, sources encode only the live
fields, and subscriber churn widens immediately / narrows behind the
publish-boundary epoch fence.
"""

import pytest

from repro import obs
from repro.echo.process import EChoProcess
from repro.echo.protocol import EVENT_ENVELOPE
from repro.net.batch import pack_batch
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.metrics import Registry
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import TransformSpec
from repro.pbio.server import FormatServer

pytestmark = pytest.mark.integration

EVT_V0 = IOFormat("Evt", [IOField("n", "integer")], version="0.0")
EVT_V1 = IOFormat(
    "Evt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="1.0",
)
EVT_V2 = IOFormat(
    "Evt",
    [IOField("n", "integer"), IOField("extra", "integer"),
     IOField("flag", "integer")],
    version="2.0",
)
V2_TO_V1 = TransformSpec(
    source=EVT_V2, target=EVT_V1,
    code="old.n = new.n;\nold.extra = new.extra;",
)
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0, code="old.n = new.n;",
)


def event(n):
    return EVT_V2.make_record(n=n, extra=2 * n, flag=1)


@pytest.fixture
def metrics():
    registry = Registry()
    obs.enable(registry=registry)
    yield registry
    obs.disable(reset=True)


def build_fleet():
    net = Network(default_link=LinkSpec(latency=0.001))
    big = 1_000_000
    FormatServer(net, "fs-a", peer="fs-b", seed=1, breaker_threshold=big)
    FormatServer(net, "fs-b", seed=2, breaker_threshold=big)
    servers = ["fs-a", "fs-b"]
    options = {"request_timeout": 0.5}

    def process(address, version):
        return EChoProcess(
            net, address, version=version,
            format_servers=servers, resolver_options=options,
        )

    creator = process("creator", "2.0")
    source = process("source", "2.0")
    sink0 = process("sink0", "0.0")
    source.resolver.register(EVT_V2, transforms=[V2_TO_V1, V1_TO_V0])
    net.run()
    creator.create_channel("ch")
    source.open_channel("ch", "creator", as_source=True)
    sink0.open_channel("ch", "creator", as_sink=True)
    net.run()
    got0 = []
    sink0.subscribe("ch", EVT_V0, lambda r: got0.append(r["n"]))
    return net, creator, source, sink0, got0


def send_range(net, source, start, stop):
    for n in range(start, stop):
        source.submit("ch", EVT_V2, event(n))
    net.run()


class TestNegotiatedNarrowing:
    def test_interest_announced_on_first_delivery_then_projected(
        self, metrics
    ):
        net, _creator, source, _sink0, got0 = build_fleet()
        send_range(net, source, 0, 3)
        assert got0 == [0, 1, 2]
        state = source.channel("ch").projections[EVT_V2.format_id]
        # narrowing is epoch-fenced: parked until the next publish
        assert state.format is None and state.pending is not None
        assert state.pending[0].field_names() == ["n"]

        send_range(net, source, 3, 6)  # first submit promotes the fence
        assert got0 == list(range(6))
        assert state.format.field_names() == ["n"]
        assert state.pending is None
        assert metrics.counter("net.projection.messages").value == 3
        assert metrics.counter("net.projection.bytes_saved_est").value > 0

    def test_projected_wire_is_narrower(self, metrics):
        net, _creator, source, _sink0, _got0 = build_fleet()
        send_range(net, source, 0, 2)
        send_range(net, source, 2, 3)
        proj = source.channel("ch").projections[EVT_V2.format_id].format
        rec = event(9)
        assert len(source.pbio.encode(proj, rec)) < len(
            source.pbio.encode(EVT_V2, rec)
        )

    def test_delivery_unchanged_without_format_servers(self):
        from repro.pbio.registry import FormatRegistry

        net = Network(default_link=LinkSpec(latency=0.001))
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        registry.register_transform(V1_TO_V0)
        creator = EChoProcess(net, "creator", registry, version="2.0")
        source = EChoProcess(net, "source", registry, version="2.0")
        sink = EChoProcess(net, "sink", registry, version="0.0")
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        sink.open_channel("ch", "creator", as_sink=True)
        net.run()
        got = []
        sink.subscribe("ch", EVT_V0, lambda r: got.append(r["n"]))
        for n in range(4):
            source.submit("ch", EVT_V2, event(n))
        net.run()
        assert got == [0, 1, 2, 3]
        assert not source.channel("ch").projections


class TestBatchFastPath:
    def test_projected_batches_deliver_and_stay_byte_identical(self):
        net, _creator, source, _sink0, got0 = build_fleet()
        send_range(net, source, 0, 2)   # negotiate
        send_range(net, source, 2, 3)   # promote the fence
        proj = source.channel("ch").projections[EVT_V2.format_id].format
        first = source.channel("ch").seq + 1
        sent = []
        send = source.reliable.send
        source.reliable.send = lambda to, data: sent.append(data) or send(
            to, data)
        source.submit_batch("ch", EVT_V2, [event(n) for n in range(3, 9)])
        net.run()
        assert got0 == list(range(9))

        assert sent == [pack_batch([
            source.pbio.encode(
                EVENT_ENVELOPE,
                EVENT_ENVELOPE.make_record(channel_id="ch", seq=first + i),
            )
            + source.pbio.encode(proj, event(n))
            for i, n in enumerate(range(3, 9))
        ])]


class TestChurn:
    def test_join_widens_immediately_leave_narrows_behind_the_fence(
        self, metrics
    ):
        net, _creator, source, _sink0, got0 = build_fleet()
        send_range(net, source, 0, 3)   # negotiate {n}
        send_range(net, source, 3, 5)   # promote
        state = source.channel("ch").projections[EVT_V2.format_id]
        assert state.format.field_names() == ["n"]

        sink1 = EChoProcess(
            net, "sink1", version="1.0",
            format_servers=["fs-a", "fs-b"],
            resolver_options={"request_timeout": 0.5},
        )
        sink1.open_channel("ch", "creator", as_sink=True)
        net.run()
        got1 = []
        sink1.subscribe("ch", EVT_V1, lambda r: got1.append((r["n"], r["extra"])))
        net.run()
        # the widening prime: sink1's first event is still narrow, its
        # announce rides back during net.run
        send_range(net, source, 5, 6)
        send_range(net, source, 6, 9)
        assert set(state.format.field_names()) >= {"n", "extra"}
        tail = [pair for pair in got1 if pair[0] >= 6]
        assert tail == [(n, 2 * n) for n in range(6, 9)]

        sink1.leave_channel("ch")
        net.run()
        send_range(net, source, 9, 10)   # promotes the narrowing
        send_range(net, source, 10, 11)
        assert state.format.field_names() == ["n"]
        assert got0 == list(range(11))
        widened = metrics.counter(
            "net.projection.renegotiations", kind="widened"
        ).value
        narrowed = metrics.counter(
            "net.projection.renegotiations", kind="narrowed"
        ).value
        assert widened >= 1 and narrowed >= 1

    def test_leave_retracts_the_interest_on_the_server(self):
        net, _creator, source, sink0, _got0 = build_fleet()
        send_range(net, source, 0, 2)
        assert sink0.channel("ch").interest_parents
        sink0.leave_channel("ch")
        net.run()
        assert not sink0.channel("ch").interest_parents
        assert not sink0.channel("ch").announced


class TestDerivedChannels:
    def test_derived_sinks_receive_full_format_events(self):
        # Derived-channel sinks negotiate per *derived* channel; the
        # parent's projection must never starve their filters.
        net, creator, source, _sink0, got0 = build_fleet()
        creator.create_derived_channel("ch", "ch.hot", "return input.extra > 6;")
        hot = EChoProcess(
            net, "hot", version="1.0",
            format_servers=["fs-a", "fs-b"],
            resolver_options={"request_timeout": 0.5},
        )
        hot.open_channel("ch.hot", "creator", as_sink=True)
        net.run()
        got_hot = []
        hot.subscribe("ch.hot", EVT_V1, lambda r: got_hot.append((r["n"], r["extra"])))
        send_range(net, source, 0, 3)   # negotiate parent narrowing
        send_range(net, source, 3, 8)   # projected on "ch", full on "ch.hot"
        assert got0 == list(range(8))
        # the filter reads `extra`, a field dead on the parent channel —
        # derived delivery still sees real values, not defaults
        assert got_hot == [(n, 2 * n) for n in range(4, 8)]
