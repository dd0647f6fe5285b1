"""The endpoint's one hold (``EndpointMixin._hold``).

A receiver that meets a never-seen format revision holds the message
while it fetches the meta-data from the format-server fleet.  Everything
later from the same peer queues behind it, so a reader sees each
publisher's events in publish order — on both endpoints (ECho peer to
peer, the fabric's owning worker) and on both transports.  Below that:
the primitive's contract on a bare endpoint, the worker's three fetch
regressions, and a count-based price guard for traffic with no hold open.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.echo.process import EChoProcess
from repro.echo.protocol import (
    EVENT_ENVELOPE,
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
    register_protocol,
)
from repro.errors import ReproError
from repro.fabric import EventFabric
from repro.fabric import worker as worker_module
from repro.net.link import LinkSpec
from repro.net.reliable import PENDING_LIMIT, EndpointMixin
from repro.net.socket import SocketNetwork
from repro.net.transport import Network
from repro.pbio.buffer import pack_header, unpack_header
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.server import FormatServer

EVENTS = 64
REVISED_AT = 10
READERS = (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0)

REVISION = IOFormat(
    "ChannelOpenResponse",
    list(RESPONSE_V2.fields) + [IOField("ext", "integer")],
    version="2.9",
)
REVISION_TO_V2 = TransformSpec(
    source=REVISION, target=RESPONSE_V2,
    code="""
int i;
old.channel_id = new.channel_id;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    old.member_list[i].is_Source = new.member_list[i].is_Source;
    old.member_list[i].is_Sink = new.member_list[i].is_Sink;
}
""",
    description="ChannelOpenResponse 2.9 -> 2.0",
)


def fields(index: int):
    return dict(
        channel_id=f"e{index:02d}",
        member_count=1,
        member_list=[{"info": "a", "ID": index, "is_Source": True,
                      "is_Sink": True}],
    )


def v2_event(index: int):
    return RESPONSE_V2, RESPONSE_V2.make_record(**fields(index))


def event(index: int):
    """Event *index*: the never-seen revision at REVISED_AT, else v2.0."""
    if index == REVISED_AT:
        return REVISION, REVISION.make_record(ext=7, **fields(index))
    return v2_event(index)


EXPECTED = [f"e{i:02d}" for i in range(EVENTS)]


@contextlib.contextmanager
def transport(kind: str):
    if kind == "sim":
        yield Network(seed=11, default_link=LinkSpec(latency=0.001,
                                                     jitter=0.0005))
    else:
        with SocketNetwork(seed=11) as net:
            yield net


def settle(net) -> None:
    if isinstance(net, SocketNetwork):
        net.run(max_time=10.0)
    else:
        net.run()


def fleet(net) -> None:
    FormatServer(net, "fs-a", peer="fs-b", seed=1)
    FormatServer(net, "fs-b", seed=2)


def run_echo(net):
    fleet(net)

    def process(address: str, version: str) -> EChoProcess:
        return EChoProcess(net, address, version=version,
                           format_servers=["fs-a", "fs-b"])

    source = process("source", "2.0")
    source.create_channel("ch")
    sinks = [process(f"sink-{fmt.version}", fmt.version) for fmt in READERS]
    settle(net)
    got = {fmt.version: [] for fmt in READERS}
    for sink, fmt in zip(sinks, READERS):
        sink.open_channel("ch", source.address, as_sink=True)
        settle(net)
        sink.subscribe("ch", fmt, lambda r, v=fmt.version: got[v].append(
            r["channel_id"]))
    source.resolver.register(REVISION, transforms=[REVISION_TO_V2])
    settle(net)
    for index in range(EVENTS):
        source.submit("ch", *event(index))
    settle(net)
    return got, sinks


def run_fabric(net):
    fleet(net)
    fabric = EventFabric(net, format_servers=["fs-a", "fs-b"])
    workers = [fabric.add_worker("w1"), fabric.add_worker("w2")]
    pub = fabric.client("pub")
    pub.resolver.register(
        RESPONSE_V2, RESPONSE_V1, RESPONSE_V0,
        transforms=[V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM],
    )
    settle(net)
    got = {fmt.version: [] for fmt in READERS}
    for fmt in READERS:
        fabric.client(f"sub-{fmt.version}").subscribe(
            "ch", fmt,
            lambda c, p, s, r, v=fmt.version: got[v].append(r["channel_id"]),
        )
    settle(net)
    pub.resolver.register(REVISION, transforms=[REVISION_TO_V2])
    settle(net)
    for index in range(EVENTS):
        pub.publish("ch", *event(index))
    settle(net)
    return got, workers


@pytest.mark.parametrize("kind", ["sim", "socket"])
@pytest.mark.parametrize("endpoint", ["echo", "fabric"])
def test_every_reader_sees_publish_order_across_a_fetch(endpoint, kind):
    with transport(kind) as net:
        got, hosts = (run_echo if endpoint == "echo" else run_fabric)(net)
    for version, names in got.items():
        assert names == EXPECTED, f"reader v{version}"
    assert sum(host.unresolved for host in hosts) == 0
    assert sum(host.parked for host in hosts) >= 1


# ---------------------------------------------------------------------------
# The primitive's contract, on a bare endpoint
# ---------------------------------------------------------------------------


class Endpoint(EndpointMixin):
    """A bare endpoint that is its own resolver: fetches are recorded,
    and the test answers them."""

    def __init__(self):
        self.fetches = []
        self._open_endpoint(Network(), "e", FormatRegistry(), None, None,
                            None, ReproError)
        self.resolver = self

    def refresh(self, format_id, on_done):
        self.fetches.append((format_id, on_done))

    def answer(self, found=RESPONSE_V2):
        _format_id, on_done = self.fetches.pop(0)
        on_done(found)

    def _on_message(self, source, data):  # pragma: no cover - no traffic
        pass


class TestHoldContract:
    def test_head_replays_first_then_the_queue_in_order(self):
        ep, log = Endpoint(), []
        ep._hold("p", lambda: log.append(0), 5)
        ep._hold("p", lambda: log.append(1))
        ep._hold("q", lambda: log.append("q"))  # another key: its own hold
        ep._hold("p", lambda: log.append(2))
        assert [fid for fid, _ in ep.fetches] == [5]  # queued: no fetch
        assert log == []
        ep.answer()
        assert log == [0, 1, 2]
        assert ep.parked == 4 and ep.unresolved == 0
        assert ep._refreshed == {5} and list(ep._holds) == ["q"]

    def test_unknown_format_drops_the_head_and_releases_the_queue(self):
        ep, log = Endpoint(), []
        ep._hold("p", lambda: log.append(0), 5)
        ep._hold("p", lambda: log.append(1))
        ep.answer(None)
        assert log == [1]
        assert ep.unresolved == 1 and not ep._refreshed and not ep._holds

    def test_a_replay_that_holds_again_keeps_the_rest_behind_it(self):
        ep, log = Endpoint(), []
        ep._hold("p", lambda: log.append(0), 5)
        ep._hold("p", lambda: ep._hold("p", lambda: log.append(1), 6))
        ep._hold("p", lambda: log.append(2))
        ep.answer()
        assert log == [0] and [fid for fid, _ in ep.fetches] == [6]
        ep._hold("p", lambda: log.append(3))  # arrives during the 2nd fetch
        ep.answer()
        assert log == [0, 1, 2, 3]

    def test_the_queue_is_bounded_and_overflow_counted_once(self):
        ep, log = Endpoint(), []
        for index in range(PENDING_LIMIT + 1):
            ep._hold("p", lambda i=index: log.append(i), 5)
        assert ep.parked == PENDING_LIMIT and ep.unresolved == 1
        ep.answer()
        assert log == list(range(PENDING_LIMIT))

    def test_a_cleared_hold_replays_nothing(self):
        ep, log = Endpoint(), []
        ep._hold("p", lambda: log.append(0), 5)
        ep._holds.clear()
        ep.answer()
        assert log == [] and ep.unresolved == 0


# ---------------------------------------------------------------------------
# Regressions
# ---------------------------------------------------------------------------


def revision(k: int):
    fmt = IOFormat("ChannelOpenResponse",
                   list(RESPONSE_V2.fields) + [IOField(f"ext_{k}", "integer")],
                   version=f"2.{k}")
    return fmt, TransformSpec(source=fmt, target=RESPONSE_V2,
                              code=REVISION_TO_V2.code)


def revised_event(k: int, index: int):
    fmt, _spec = revision(k)
    return fmt, fmt.make_record(**{f"ext_{k}": k}, **fields(index))


def test_the_owner_fetches_payload_meta_data_for_every_group():
    """Four never-seen revisions through three groups: every event is
    delivered to every reader, in order, one fetch per revision."""
    net = Network(seed=5, default_link=LinkSpec(latency=0.001))
    fleet(net)
    fabric = EventFabric(net, format_servers=["fs-a", "fs-b"])
    worker = fabric.add_worker("w1")
    pub = fabric.client("pub")
    pub.resolver.register(RESPONSE_V2, RESPONSE_V1, RESPONSE_V0,
                          transforms=[V2_TO_V1_TRANSFORM, V1_TO_V0_TRANSFORM])
    got = {fmt.version: [] for fmt in READERS}
    for fmt in READERS:
        fabric.client(f"sub-{fmt.version}").subscribe(
            "ch", fmt,
            lambda c, p, s, r, v=fmt.version: got[v].append(r["channel_id"]))
    net.run()
    pub.publish("ch", *event(0))  # V2 itself is fetched here
    net.run()
    revised = {2: 1, 5: 2, 8: 3, 11: 4}
    for k in revised.values():
        fmt, spec = revision(k)
        pub.resolver.register(fmt, transforms=[spec])
    net.run()
    lookups = worker.resolver.stats["lookups_sent"]
    for index in range(1, 12):
        pub.publish("ch", *(
            revised_event(revised[index], index) if index in revised
            else v2_event(index)))
    net.run()
    for names in got.values():
        assert names == [f"e{i:02d}" for i in range(12)]
    assert worker.errors == 0 and worker.unresolved == 0
    assert worker.resolver.stats["lookups_sent"] - lookups == 4


def partition(net, node: str, up: bool) -> None:
    for server in ("fs-a", "fs-b"):
        net.set_link(node, server, net.default_link if up
                     else LinkSpec(loss_rate=1.0))


def test_echo_fetches_again_after_a_failed_fetch():
    """The fleet is unreachable when a sink first meets a revision, and
    reachable later: the later message is fetched and delivered."""
    net = Network(seed=6, default_link=LinkSpec(latency=0.001))
    fleet(net)
    source = EChoProcess(net, "source", format_servers=["fs-a", "fs-b"])
    source.create_channel("ch")
    partition(net, "sink:meta", up=False)
    sink = EChoProcess(net, "sink", format_servers=["fs-a", "fs-b"])
    sink.open_channel("ch", "source", as_sink=True)
    net.run()
    got = []
    sink.subscribe("ch", RESPONSE_V2, lambda r: got.append(r["channel_id"]))
    source.resolver.register(REVISION, transforms=[REVISION_TO_V2])
    net.run()
    source.submit("ch", REVISION, event(REVISED_AT)[1])
    net.run()
    assert got == [] and sink.unresolved == 1
    partition(net, "sink:meta", up=True)
    sink.resolver.retry_pending()
    net.run()
    source.submit("ch", REVISION, event(REVISED_AT)[1])
    net.run()
    assert got == ["e10"]


def test_worker_fetches_again_after_a_failed_fetch():
    """A subscriber's format could not be fetched at first sight; once
    the fleet is back, the re-subscription is fetched and served."""
    net = Network(seed=6, default_link=LinkSpec(latency=0.001))
    fleet(net)
    fabric = EventFabric(net, format_servers=["fs-a", "fs-b"])
    pub = fabric.client("pub")
    pub.resolver.register(RESPONSE_V2, RESPONSE_V1,
                          transforms=[V2_TO_V1_TRANSFORM])
    partition(net, "w1:meta", up=False)
    worker = fabric.add_worker("w1")
    sub = fabric.client("sub")
    got = []
    sub.subscribe("ch", RESPONSE_V1, lambda c, p, s, r: got.append(s))
    net.run()
    assert not worker._channels  # no format, no group
    partition(net, "w1:meta", up=True)
    worker.resolver.retry_pending()
    net.run()
    sub.subscribe("ch", RESPONSE_V1, lambda c, p, s, r: got.append(s))
    net.run()
    assert RESPONSE_V1.format_id in worker._channels["ch"].groups
    pub.publish("ch", *event(0))
    net.run()
    assert got == [1] and worker.errors == 0


def test_a_fetch_reply_after_a_crash_replays_nothing():
    """The worker crashes while a subscriber's format is in flight: the
    reply must not install the subscriber into the dead worker."""
    net = Network(seed=8, default_link=LinkSpec(latency=0.01))
    fleet(net)
    fabric = EventFabric(net, format_servers=["fs-a", "fs-b"])
    worker = fabric.add_worker("w1")
    net.run()
    fabric.client("sub").subscribe("ch", RESPONSE_V1, lambda *a: None)
    step = net.now
    while not worker.resolver._inflight:  # the subscriber's format
        step += 0.001
        net.run(max_time=step)
    worker.crash()
    net.run()
    assert not worker.resolver._inflight  # the reply did land
    assert worker._channels == {} and worker.owned_shards() == []


def warm_echo_pair(net):
    """A source and a sink behind the fleet: event 0 delivered, the
    revision registered; returns both and the sink's delivery log."""
    fleet(net)
    source = EChoProcess(net, "source", format_servers=["fs-a", "fs-b"])
    source.create_channel("ch")
    sink = EChoProcess(net, "sink", format_servers=["fs-a", "fs-b"])
    sink.open_channel("ch", "source", as_sink=True)
    net.run()
    got = []
    sink.subscribe("ch", RESPONSE_V2, lambda r: got.append(r["channel_id"]))
    source.submit("ch", *v2_event(0))
    source.resolver.register(REVISION, transforms=[REVISION_TO_V2])
    net.run()
    return source, sink, got


def test_an_echo_frame_behind_an_open_hold_parks_each_message():
    """A frame that reaches a sink while its sender's hold is open parks
    message by message, as a worker's does, and replays in order after
    the fetch."""
    net = Network(seed=7, default_link=LinkSpec(latency=0.001))
    source, sink, got = warm_echo_pair(net)
    for server in ("fs-a", "fs-b"):  # a slow fleet keeps the hold open
        net.set_link("sink:meta", server, LinkSpec(latency=0.05))
    source.submit("ch", *event(REVISED_AT))
    step = net.now
    while "source" not in sink._holds:
        step += 0.001
        net.run(max_time=step)
    parked = sink.parked
    source.submit_batch(
        "ch", RESPONSE_V2, [v2_event(i)[1] for i in range(1, 5)])
    net.run(max_time=step + 0.01)
    assert "source" in sink._holds  # the fetch is still out
    assert sink.parked - parked == 4
    net.run()
    assert got == ["e00", "e10", "e01", "e02", "e03", "e04"]
    assert sink.errors == 0 and sink.unresolved == 0


def test_a_replay_that_fails_is_contained_and_the_queue_replays():
    """A held revision whose body is cut short fails when it replays
    after the fetch: one contained failure, and the event queued behind
    it still delivers."""
    net = Network(seed=6, default_link=LinkSpec(latency=0.001))
    source, sink, got = warm_echo_pair(net)
    envelope = source.pbio.encode(EVENT_ENVELOPE, EVENT_ENVELOPE.make_record(
        channel_id="ch", seq=1))
    payload = source.pbio.encode(*event(REVISED_AT))
    header = unpack_header(payload)
    body = payload[header.body_offset:][:header.payload_length - 3]
    source.reliable.send("sink", envelope + pack_header(
        header.format_id, len(body)) + body)
    source.submit("ch", *v2_event(1))
    net.run()
    assert got == ["e00", "e01"]
    assert sink.errors == 1 and isinstance(sink.last_error, ReproError)
    assert net.handler_errors == 0


# ---------------------------------------------------------------------------
# Price guard: wrap and count, never time
# ---------------------------------------------------------------------------


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture
def primitive_calls(monkeypatch):
    calls = {}
    for name in ("_hold", "_fetched", "_release"):
        _counting(monkeypatch, EndpointMixin, name, calls)
    return calls


def test_no_open_hold_costs_no_call_into_the_primitive(
        monkeypatch, primitive_calls):
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    net = Network(seed=9)
    fabric = EventFabric(net, registry=registry)
    fabric.add_worker("w1")
    pub = fabric.client("pub")
    fabric.client("sub").subscribe("ch", RESPONSE_V1, lambda *a: None)
    fleet(net)
    source = EChoProcess(net, "source", format_servers=["fs-a", "fs-b"])
    source.create_channel("ech")
    sink = EChoProcess(net, "sink", format_servers=["fs-a", "fs-b"])
    sink.open_channel("ech", "source", as_sink=True)
    net.run()
    sink.subscribe("ech", RESPONSE_V2, lambda r: None)
    source.submit("ech", *v2_event(0))
    pub.publish("ch", *v2_event(0))
    net.run()
    primitive_calls.clear()
    headers = {}
    _counting(monkeypatch, worker_module, "unpack_header", headers)
    for index in range(1, 65):
        pub.publish("ch", *v2_event(index))
        source.submit("ech", *v2_event(index))
    net.run()
    assert primitive_calls == {}
    # the envelope's and the payload's, once each: the payload header
    # parsed at admission is the one every group receiver reads
    assert headers == {"unpack_header": 128}
