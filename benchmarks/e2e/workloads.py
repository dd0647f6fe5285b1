"""The six workloads: their frozen parameters, seeded inputs and fleets.

A fleet is built only through the public API of ``repro.fabric`` /
``repro.echo`` in the configuration the system runs in: reliable
endpoints, failure containment on, file-backed journal on.  Why each
workload exists is recorded next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro import obs
from repro.bench.workloads import members_for_size
from repro.echo.process import EChoProcess
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.fabric import EventFabric, JournalStore
from repro.net.link import LinkSpec
from repro.net.socket import SocketNetwork
from repro.net.transport import Network
from repro.obs.agent import TelemetryAgent
from repro.obs.collector import TelemetryCollector
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.server import FormatServer

POOL_SIZE = 256
#: event slots before the seeded schedule repeats (four passes over the
#: pool, so a burst workload still spreads over every channel)
SCHEDULE_SLOTS = 1024
CHANNELS = 8
PUBLISHERS = 2
WORKERS = 2
LINK = LinkSpec(latency=0.0005)

#: echo_evolve: every REVISION_EVERY-th event is of a never-seen format
#: revision; the narrow sink leaves and rejoins once per CHURN_EVERY
#: events, half-way through so each count window holds exactly one.
REVISION_EVERY = 50
CHURN_EVERY = 1000
CHURN_OFFSET = 500
ECHO_CHANNEL = "evolve"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fabric" | "echo"
    transport: str  # "sim" | "udp"
    members: int  # nominal member count of one event
    batch: int  # events per publish call
    window: int  # closed loop: events outstanding
    #: open loop: events/s, about 37% of the saturate median measured on
    #: the commit that added the benchmark; frozen from then on
    paced_rate: float
    #: events in the fixed-work window the exact per-event counts and
    #: ``wire_bytes_per_event`` are taken over
    count_events: int
    obs: bool = False


SMALL = 8
LARGE = members_for_size(10_000)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fabric_small", "fabric", "sim", SMALL, 1, 64, 400.0, 1024),
        Workload("fabric_batch64", "fabric", "sim", SMALL, 64, 64, 400.0,
                 1024),
        Workload("fabric_large", "fabric", "sim", LARGE, 1, 64, 45.0, 256),
        Workload("fabric_obs", "fabric", "sim", SMALL, 1, 64, 160.0, 512,
                 obs=True),
        Workload("fabric_udp", "fabric", "udp", SMALL, 1, 16, 250.0, 512),
        Workload("echo_evolve", "echo", "sim", SMALL, 1, 64, 250.0, 1024),
    )
}

#: subscriber classes, in subscription order
FABRIC_READERS = (("v2", RESPONSE_V2), ("v1", RESPONSE_V1), ("v0", RESPONSE_V0))
NARROW = IOFormat(
    "ChannelOpenResponse",
    [IOField("channel_id", "string"), IOField("member_count", "integer")],
    version="0.1",
)
ECHO_READERS = FABRIC_READERS + (("narrow", NARROW),)

_EXT_TO_V2_CODE = """
int i;
old.channel_id = new.channel_id;
old.member_count = new.member_count;
for (i = 0; i < new.member_count; i++) {
    old.member_list[i].info = new.member_list[i].info;
    old.member_list[i].ID = new.member_list[i].ID;
    old.member_list[i].is_Source = new.member_list[i].is_Source;
    old.member_list[i].is_Sink = new.member_list[i].is_Sink;
}
"""


def revision(k: int) -> Tuple[IOFormat, TransformSpec]:
    """Revision *k*: v2.0 plus one trailing integer ("attribute added"),
    with the writer's one-hop retro-transform back to v2.0."""
    fmt = IOFormat(
        "ChannelOpenResponse",
        list(RESPONSE_V2.fields) + [IOField(f"ext_{k}", "integer")],
        version=f"2.{k}",
    )
    return fmt, TransformSpec(
        source=fmt, target=RESPONSE_V2, code=_EXT_TO_V2_CODE,
        description=f"ChannelOpenResponse 2.{k} -> 2.0",
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything generated from the seed, before the clock starts."""

    pool: List[Record]
    #: per event slot: (pool index, channel index, publisher index); the
    #: driver cycles through it
    schedule: List[Tuple[int, int, int]]
    sample_salt: int


def make_inputs(spec: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{spec.name}:{seed}")
    # Member counts are the same multiset for every seed (evenly spread
    # over +-25% of the nominal count, then shuffled), and every string
    # has a fixed width: a seed changes contents and order, never bytes.
    low = spec.members - spec.members // 4
    span = 2 * (spec.members // 4) + 1
    counts = [low + i % span for i in range(POOL_SIZE)]
    rng.shuffle(counts)
    pool = []
    for count in counts:
        # two thirds of the members are sources and half are sinks, as in
        # repro.bench.workloads, so the v1.0 rollback grows about 3x
        sources = [i < round(count * 2 / 3) for i in range(count)]
        sinks = [i < count // 2 for i in range(count)]
        rng.shuffle(sources)
        rng.shuffle(sinks)
        members = [
            Record(
                info=f"host-{rng.randrange(10**6):06d}.cc.gatech.edu:"
                     f"{rng.randrange(1000, 10000)}",
                ID=rng.randrange(1, 2**31),
                is_Source=is_source,
                is_Sink=is_sink,
            )
            for is_source, is_sink in zip(sources, sinks)
        ]
        pool.append(Record(
            channel_id=f"ch-{rng.randrange(10**6):06d}",
            member_count=count,
            member_list=members,
        ))
    order = []
    for _ in range(SCHEDULE_SLOTS // POOL_SIZE):
        cycle = list(range(POOL_SIZE))
        rng.shuffle(cycle)
        order.extend(cycle)
    # a publish call (one event, or one burst) goes to one channel from
    # one publisher; publishers alternate
    calls = [
        (rng.randrange(CHANNELS), call % PUBLISHERS)
        for call in range(SCHEDULE_SLOTS // spec.batch)
    ]
    schedule = [
        (index, *calls[position // spec.batch])
        for position, index in enumerate(order)
    ]
    return Inputs(pool, schedule, rng.randrange(64))


# ---------------------------------------------------------------------------
# Fleets
# ---------------------------------------------------------------------------


class FabricFleet:
    """Sim or UDP network, 2 workers, 2 publishers, 3 subscribers."""

    def __init__(self, spec: Workload, workdir: str,
                 handler_for: Callable[[int], Callable[..., Any]]) -> None:
        self.spec = spec
        if spec.obs:
            obs.disable(reset=True)
            obs.enable()
        if spec.transport == "udp":
            self.net: Any = SocketNetwork(record_trace=False)
        else:
            self.net = Network(default_link=LINK)
        registry = FormatRegistry()
        for _name, fmt in FABRIC_READERS:
            registry.register(fmt)
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        fabric = EventFabric(
            self.net, registry=registry, reliable=True,
            journal=JournalStore(path=os.path.join(workdir, "journal.jsonl")),
        )
        self.workers = [fabric.add_worker(f"w{i}") for i in range(WORKERS)]
        self.settle()
        self.publishers = [fabric.client(f"pub{i}") for i in range(PUBLISHERS)]
        self.channels = [f"bench/{i}" for i in range(CHANNELS)]
        for index, (_name, fmt) in enumerate(FABRIC_READERS):
            client = fabric.client(f"sub{index}")
            for channel in self.channels:
                client.subscribe(channel, fmt, handler_for(index))
        if spec.obs:
            collector = TelemetryCollector(clock=self.net)
            collector.subscribe_fabric(fabric.client("monitor"))
            for worker in self.workers:
                worker.attach_telemetry(TelemetryAgent.over_fabric(
                    fabric.client(f"agent-{worker.address}"),
                    worker=worker.address, interval=1.0,
                ))
        self.settle()

    def settle(self) -> None:
        """Run the network to quiescence (set-up only)."""
        self.net.run()
        self.net.trace.clear()

    def close(self) -> None:
        if self.spec.transport == "udp":
            self.net.close()
        if self.spec.obs:
            obs.disable(reset=True)


class EchoFleet:
    """Two format servers, one v2.0 source that owns the channel, and
    v2.0 / v1.0 / v0.0 / narrow sinks, all resolving formats through the
    servers so new revisions travel out of band."""

    def __init__(self, spec: Workload, workdir: str,
                 handler_for: Callable[[int], Callable[..., Any]]) -> None:
        self.spec = spec
        self.net = Network(default_link=LINK)
        big = 1_000_000
        FormatServer(self.net, "fs-a", peer="fs-b", seed=1,
                     breaker_threshold=big)
        FormatServer(self.net, "fs-b", seed=2, breaker_threshold=big)

        def process(address: str, version: str) -> EChoProcess:
            return EChoProcess(
                self.net, address, version=version, reliable=True,
                format_servers=["fs-a", "fs-b"],
                resolver_options={"request_timeout": 0.5},
                contain_failures=True,
            )

        self.source = process("source", "2.0")
        self.source.create_channel(ECHO_CHANNEL)
        self.sinks = [
            process(f"sink-{name}", version)
            for name, version in (("v2", "2.0"), ("v1", "1.0"),
                                  ("v0", "0.0"), ("narrow", "2.0"))
        ]
        self.settle()
        self.handlers = [handler_for(i) for i in range(len(self.sinks))]
        for index in range(len(self.sinks)):
            self.join(index)

    def join(self, index: int) -> None:
        sink = self.sinks[index]
        sink.open_channel(ECHO_CHANNEL, self.source.address, as_sink=True)
        self.settle()
        sink.subscribe(ECHO_CHANNEL, ECHO_READERS[index][1],
                       self.handlers[index])
        self.settle()

    def churn(self) -> None:
        """The narrow sink leaves and rejoins."""
        self.sinks[-1].leave_channel(ECHO_CHANNEL)
        self.settle()
        self.join(len(self.sinks) - 1)

    def settle(self) -> None:
        self.net.run()
        self.net.trace.clear()

    def close(self) -> None:
        pass


def build_fleet(spec: Workload, workdir: str,
                handler_for: Callable[[int], Callable[..., Any]]) -> Any:
    cls = EchoFleet if spec.kind == "echo" else FabricFleet
    return cls(spec, workdir, handler_for)
