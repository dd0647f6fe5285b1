"""Fabric benches: multi-worker scaling over real sockets, plus a
deterministic churn/migration record on the simulated transport.

The scaling bench answers the subsystem's headline question — does
sharding the morph-at-owner work across N worker *processes* buy N
cores of aggregate morphing capacity?  Wall-clock throughput cannot
show that on a CI box where every process shares one or two cores, so
the bench measures **CPU capacity**: each worker process reports its
own busy time via :func:`time.process_time`, and

    aggregate capacity = delivered messages / max(worker CPU seconds)

The max (not the sum) is the honest denominator: with per-channel
morph work spread over N workers, the busiest worker's CPU seconds is
what one core must spend per wall second at saturation, so capacity
scales with the fleet exactly when the shard assignment balances.

Raw CPU seconds drift with host speed (frequency scaling, noisy
neighbors) — and not proportionally, since worker time mixes
interpreter work with kernel/socket work.  Each row is therefore
normalized into ``cpu_units`` (busiest-worker CPU seconds over a codec
calibration loop bracketing the row), and what the regression gate
tracks is the **intra-run scaling cost**: a fleet's ``cpu_units``
relative to the same run's 1-worker row.  Both sides share the host
regime, so machine drift cancels exactly while a genuine loss of
horizontal scaling still shows.  (Per-message morph-path regressions
are gated by figures 8-10 and the fusion ablation.)

The churn bench replays a seeded join/leave schedule on the simulated
transport while a lossy morph chain publishes — the same scenario the
churn tests assert on — and records migration metrics (handoffs,
forwarded messages, duplicates suppressed).  Virtual-clock
deterministic, so it ships under a ``metrics`` payload: nothing in it
is a cost ratio for the regression gate to hold.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.fabric.client import FabricClient
from repro.fabric.hashing import DEFAULT_NUM_SHARDS, HashRing, shard_of
from repro.fabric.membership import EventFabric, FabricDirectory, RemoteWorker
from repro.fabric.worker import FabricWorker
from repro.net.link import LinkSpec
from repro.net.socket import SocketNetwork
from repro.net.transport import Network
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry


def _make_registry() -> FormatRegistry:
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


def _bench_record(channel_id: str, members: int = 8) -> Record:
    """A ChannelOpenResponse v2.0 with enough members that the
    V2 -> V0 morph chain does real per-message work."""
    return RESPONSE_V2.make_record(
        channel_id=channel_id,
        member_count=members,
        member_list=[
            {
                "info": f"member-{i}",
                "ID": i + 1,
                "is_Source": i == 0,
                "is_Sink": i != 0,
            }
            for i in range(members)
        ],
    )


def calibration_seconds(iterations: int = 400, attempts: int = 3) -> float:
    """Best-of-*attempts* CPU time of a fixed encode/decode workload —
    the yardstick :attr:`FabricScalingRow.cpu_units` divides by."""
    from repro.pbio.context import PBIOContext

    registry = _make_registry()
    ctx = PBIOContext(registry)
    record = _bench_record("calibration")
    wire = ctx.encode(RESPONSE_V2, record)
    best = float("inf")
    for _attempt in range(attempts):
        start = time.process_time()
        for _ in range(iterations):
            ctx.encode(RESPONSE_V2, record)
            ctx.decode_as(RESPONSE_V2, wire)
        best = min(best, time.process_time() - start)
    return best


def balanced_channels(
    fleet: Sequence[str], per_worker: int,
    num_shards: int = DEFAULT_NUM_SHARDS,
) -> List[str]:
    """Pick channel ids such that every fleet member owns exactly
    *per_worker* of them under the rendezvous assignment — the bench
    controls its workload, so it removes channel-placement luck from
    the scaling measurement."""
    ring = HashRing()
    for address in fleet:
        ring.add(address)
    assignment = ring.assign(num_shards)
    wanted = {address: per_worker for address in fleet}
    channels: List[str] = []
    candidate = 0
    while any(wanted.values()):
        channel_id = f"bench/{candidate}"
        candidate += 1
        owner = assignment[shard_of(channel_id, num_shards)]
        if wanted[owner]:
            wanted[owner] -= 1
            channels.append(channel_id)
    return channels


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _fabric_worker_main(
    conn: Any, address: str, fleet: Sequence[str], num_shards: int
) -> None:
    """Child-process body: host one FabricWorker on its own UDP socket
    and its own directory replica (stubs for the rest of the fleet),
    serve until the parent says stop, report CPU busy seconds."""
    try:
        net = SocketNetwork()
        directory = FabricDirectory(num_shards=num_shards)
        worker = FabricWorker(
            directory, net, address, registry=_make_registry()
        )
        directory.bootstrap(
            [
                worker if member == address else RemoteWorker(member)
                for member in fleet
            ]
        )
        conn.send(("bind", address, net.node(address).port))
        peers: Dict[str, Tuple[str, int]] = conn.recv()
        for peer, (host, port) in peers.items():
            if peer != address:
                net.register_peer(peer, host, port)
        conn.send(("ready", address))
        cpu_start = time.process_time()
        while not conn.poll():
            net.run_for(0.02)
        conn.recv()  # consume the stop token
        cpu_seconds = time.process_time() - cpu_start
        conn.send(
            (
                "stats",
                {
                    "address": address,
                    "processed": worker.processed,
                    "deliveries": worker.deliveries,
                    "duplicates": worker.duplicates,
                    "errors": worker.errors,
                    "cpu_seconds": cpu_seconds,
                },
            )
        )
        net.close()
    except BaseException:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


def _recv_ok(conn: Any) -> Tuple[Any, ...]:
    message = conn.recv()
    if message[0] == "error":
        raise RuntimeError(f"fabric bench worker failed:\n{message[1]}")
    return message


# ----------------------------------------------------------------------
# Scaling bench (parent process)
# ----------------------------------------------------------------------


@dataclass
class FabricScalingRow:
    """One fleet size of the scaling bench."""

    workers: int
    messages: int
    delivered: int
    wall_seconds: float
    #: same-run calibration yardstick (see :func:`calibration_seconds`)
    calibration: float = 1.0
    worker_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    worker_processed: Dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.workers}w"

    @property
    def max_cpu_seconds(self) -> float:
        return max(self.worker_cpu_seconds.values())

    @property
    def cpu_units(self) -> float:
        """Machine-speed-normalized cost: busiest worker's CPU seconds
        per calibration second — the gated timing."""
        return self.max_cpu_seconds / self.calibration

    @property
    def capacity(self) -> float:
        """Aggregate capacity: messages morphable per busiest-core
        CPU second."""
        return self.delivered / self.max_cpu_seconds


def _scaling_row(
    workers: int,
    messages: int,
    channels_per_worker: int,
    num_shards: int,
    window: int,
    drain_timeout: float,
) -> FabricScalingRow:
    fleet = [f"w{i}" for i in range(1, workers + 1)]
    channels = balanced_channels(fleet, channels_per_worker, num_shards)
    ctx = multiprocessing.get_context("fork")
    conns = []
    procs = []
    # Children fork before the parent creates its asyncio loop — each
    # process must own a fresh loop.
    for address in fleet:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_fabric_worker_main,
            args=(child_conn, address, fleet, num_shards),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)
    try:
        ports: Dict[str, int] = {}
        for conn in conns:
            _, address, port = _recv_ok(conn)
            ports[address] = port

        net = SocketNetwork()
        try:
            directory = FabricDirectory(num_shards=num_shards)
            directory.bootstrap([RemoteWorker(member) for member in fleet])
            registry = _make_registry()
            pub = FabricClient(directory, net, "pub", registry=registry)
            sub = FabricClient(directory, net, "sub", registry=registry)
            book = {
                address: (net.host, port) for address, port in ports.items()
            }
            book["pub"] = (net.host, net.node("pub").port)
            book["sub"] = (net.host, net.node("sub").port)
            for conn in conns:
                conn.send(book)
            for conn in conns:
                _recv_ok(conn)
            for address, (host, port) in book.items():
                if address in fleet:
                    net.register_peer(address, host, port)

            for channel_id in channels:
                sub.subscribe(
                    channel_id, RESPONSE_V0, lambda c, p, s, r: None
                )
            net.run_for(0.1)  # let subscriptions install fleet-wide

            event = _bench_record("bench")
            wall_start = time.perf_counter()
            for i in range(messages):
                pub.publish(channels[i % len(channels)], RESPONSE_V2, event)
                while pub.published - sub.delivered > window:
                    net.run_for(0.002)
            deadline = time.perf_counter() + drain_timeout
            while (
                sub.delivered < messages
                and time.perf_counter() < deadline
            ):
                net.run_for(0.02)
            wall_seconds = time.perf_counter() - wall_start

            row = FabricScalingRow(
                workers=workers,
                messages=messages,
                delivered=sub.delivered,
                wall_seconds=wall_seconds,
            )
            for conn in conns:
                conn.send("stop")
            for conn in conns:
                _, stats = _recv_ok(conn)
                row.worker_cpu_seconds[stats["address"]] = stats[
                    "cpu_seconds"
                ]
                row.worker_processed[stats["address"]] = stats["processed"]
            return row
        finally:
            net.close()
    finally:
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hang containment
                proc.terminate()
                proc.join(timeout=5)


def bench_fabric_scaling(
    worker_counts: Sequence[int] = (1, 2, 4),
    messages: int = 1920,
    channels_per_worker: int = 4,
    num_shards: int = DEFAULT_NUM_SHARDS,
    window: int = 64,
    drain_timeout: float = 30.0,
    repeats: int = 2,
) -> List[FabricScalingRow]:
    """Run the multiprocess socket-transport scaling bench: the same
    publish workload against 1, 2, ... worker processes; every row's
    messages are spread round-robin over ownership-balanced channels.

    Each worker count runs ``repeats`` times and keeps the best
    (lowest busiest-worker CPU) row — the same best-of-K convention the
    single-process figures use.  The :func:`calibration_seconds`
    yardstick is re-measured immediately before and after every run, so
    a host-speed shift mid-bench cannot skew the normalized cost, and a
    row is stated against the fastest draw around its repeats: best-of-K
    on each side of the ratio, because the lowest *ratio* would pick the
    repeat whose yardstick happened to run slow.
    """
    rows: List[FabricScalingRow] = []
    calibration = calibration_seconds()
    for workers in worker_counts:
        best: FabricScalingRow | None = None
        yardstick = calibration
        for _repeat in range(max(1, repeats)):
            row = _scaling_row(
                workers, messages, channels_per_worker, num_shards,
                window, drain_timeout,
            )
            calibration = calibration_seconds()
            yardstick = min(yardstick, calibration)
            if best is None or row.max_cpu_seconds < best.max_cpu_seconds:
                best = row
        best.calibration = yardstick
        rows.append(best)
    return rows


# ----------------------------------------------------------------------
# Churn / migration bench (simulated transport — deterministic)
# ----------------------------------------------------------------------


@dataclass
class FabricChurnResult:
    """Seeded churn scenario outcome (virtual-clock deterministic)."""

    published: int
    delivered_v1: int
    delivered_v0: int
    duplicates: int
    handoffs: int
    forwarded: int
    redirects: int
    epochs: int
    workers_joined: int
    workers_left: int

    @property
    def exactly_once(self) -> bool:
        return (
            self.delivered_v1 == self.published
            and self.delivered_v0 == self.published
            and self.duplicates == 0
        )


def bench_fabric_churn(
    rounds: int = 6, publishes_per_round: int = 5, seed: int = 11
) -> FabricChurnResult:
    """Seeded join/leave schedule under a 15%-lossy V2 -> V1/V0 morph
    chain on the simulated transport; reports what migration cost and
    proves the exactly-once invariant held."""
    import random

    net = Network(
        seed=seed,
        default_link=LinkSpec(latency=0.002, loss_rate=0.15, jitter=0.5),
    )
    fabric = EventFabric(net, registry=_make_registry())
    fabric.add_worker("w1")
    fabric.add_worker("w2")
    workers = {
        "w1": fabric.directory.worker("w1"),
        "w2": fabric.directory.worker("w2"),
    }
    active = ["w1", "w2"]
    joined = 2
    left = 0
    pub = fabric.client("pub")
    sub1 = fabric.client("sub-v1")
    sub0 = fabric.client("sub-v0")
    channels = [f"churn/{i}" for i in range(4)]
    for channel_id in channels:
        sub1.subscribe(channel_id, RESPONSE_V1, lambda c, p, s, r: None)
        sub0.subscribe(channel_id, RESPONSE_V0, lambda c, p, s, r: None)
    net.run()

    rng = random.Random(seed * 1_000_003 + 17)
    next_worker = 3
    for _round in range(rounds):
        for _ in range(publishes_per_round):
            channel_id = rng.choice(channels)
            pub.publish(channel_id, RESPONSE_V2, _bench_record(channel_id))
        net.run(max_time=net.now + 0.05)
        if len(active) <= 2 or rng.random() < 0.5:
            address = f"w{next_worker}"
            next_worker += 1
            workers[address] = fabric.add_worker(address)
            active.append(address)
            joined += 1
        else:
            address = rng.choice(active)
            fabric.remove_worker(address)
            active.remove(address)
            left += 1
        net.run(max_time=net.now + 0.05)
    net.run()

    fleet = list(workers.values())
    return FabricChurnResult(
        published=pub.published,
        delivered_v1=sub1.delivered,
        delivered_v0=sub0.delivered,
        duplicates=sub1.duplicates + sub0.duplicates,
        handoffs=sum(w.handoffs_sent for w in fleet),
        forwarded=sum(w.forwarded for w in fleet),
        redirects=sum(w.redirects_sent for w in fleet),
        epochs=fabric.directory.epoch,
        workers_joined=joined,
        workers_left=left,
    )


# ----------------------------------------------------------------------
# Crash recovery bench (simulated transport — deterministic)
# ----------------------------------------------------------------------


@dataclass
class FabricRecoveryRow:
    """One (crash timing, journaling arm) outcome of the recovery bench.

    Virtual-clock deterministic for a seed; the row's two headline
    numbers are the **unavailability window** (virtual seconds from the
    kill until every shard is owned by a live worker again) and the
    **events lost** across the outage.  ``tail_duplicates`` counts
    journal-tail re-deliveries the subscriber's ledger suppressed — the
    explicitly-counted duplicate budget of the recovery contract."""

    crash_fraction: float
    journaled: bool
    published: int
    delivered: int
    lost: int
    tail_duplicates: int
    replayed: int
    unavailability_seconds: float

    @property
    def label(self) -> str:
        arm = "journal" if self.journaled else "no-journal"
        return f"crash@{int(self.crash_fraction * 100)}%/{arm}"

    @property
    def exactly_once(self) -> bool:
        return self.lost == 0 and self.delivered == self.published


def _recovery_noop() -> None:
    """Clock pacer for the recovery pump (see check_crash_chaos)."""


def _recovery_row(
    crash_fraction: float, journaled: bool, messages: int, seed: int
) -> FabricRecoveryRow:
    from repro.fabric.journal import JournalStore

    net = Network(
        seed=seed,
        # Jitter is absolute seconds and must stay well under the
        # reliable base timeout, or retransmissions race the first copy.
        default_link=LinkSpec(latency=0.002, loss_rate=0.05, jitter=0.005),
    )
    reliable_options = {"base_timeout": 0.02, "max_retries": 5}
    fabric = EventFabric(
        net,
        registry=_make_registry(),
        journal=JournalStore() if journaled else None,
        lease_timeout=0.6,
    )
    workers = {
        address: fabric.add_worker(
            address, reliable_options=dict(reliable_options)
        )
        for address in ("w1", "w2", "w3")
    }
    pub = fabric.client("pub", reliable_options=dict(reliable_options))
    sub = fabric.client("sub", reliable_options=dict(reliable_options))
    channels = [f"recovery/{i}" for i in range(4)]
    delivered_ids: List[str] = []
    for channel_id in channels:
        sub.subscribe(
            channel_id, RESPONSE_V0,
            lambda c, p, s, r: delivered_ids.append(r["channel_id"]),
        )

    def pump(steps: int, step: float = 0.05) -> None:
        # Heartbeats are driven here, not by recurring timers, so the
        # simulated network can still fully quiesce at the end.
        for _ in range(steps):
            for worker in workers.values():
                worker.heartbeat()
            fabric.directory.check_leases()
            net.call_later(step, _recovery_noop)
            net.run(max_time=net.now + step)

    sent = 0

    def publish(count: int) -> None:
        nonlocal sent
        for _ in range(count):
            channel_id = channels[sent % len(channels)]
            # The event id rides in the channel_id field, which every
            # version of the morph chain preserves — unique delivery is
            # countable at the V0 sink.
            pub.publish(channel_id, RESPONSE_V2,
                        _bench_record(f"evt-{sent}", members=4))
            sent += 1

    pump(4)  # let subscriptions install fleet-wide
    victim_address = fabric.directory.owner(channels[0])
    victim = workers[victim_address]
    crash_point = max(1, min(messages - 1, int(messages * crash_fraction)))

    publish(crash_point)             # pre-crash traffic
    pump(2)                          # partial drain: leave in-flight work
    crash_time = net.now
    fabric.crash_worker(victim_address)
    publish(messages - crash_point)  # outage traffic (client redrive path)

    recovered_at = None
    for _ in range(40):              # past the lease deadline + recovery
        pump(1)
        if victim_address in fabric.directory.workers:
            continue
        assignment = fabric.directory.assignment
        if all(
            owner != victim_address
            and shard in workers[owner].owned_shards()
            for shard, owner in assignment.items()
        ):
            recovered_at = net.now
            break
    unavailability = (
        (recovered_at if recovered_at is not None else net.now) - crash_time
    )

    pump(4)
    victim.restart()
    if victim_address not in fabric.directory.workers:
        fabric.directory.join(victim)
    pump(10)                         # rejoin handoffs + buffered redrives
    net.run()                        # full drain

    unique = len(set(delivered_ids))
    return FabricRecoveryRow(
        crash_fraction=crash_fraction,
        journaled=journaled,
        published=sent,
        delivered=unique,
        lost=sent - unique,
        tail_duplicates=sub.duplicates + (len(delivered_ids) - unique),
        replayed=sum(w.tail_replayed for w in workers.values()),
        unavailability_seconds=unavailability,
    )


def bench_fabric_recovery(
    messages: int = 40,
    crash_fractions: Sequence[float] = (0.25, 0.5, 0.75),
    seed: int = 7,
) -> List[FabricRecoveryRow]:
    """SIGKILL the owner of a hot shard partway through a seeded stream
    and measure what recovery costs, with journaling on (the tentpole
    path: lease expiry, fenced journal recovery at the successor,
    client-side redrive) versus off (the ablation control arm).

    One row per (crash timing, arm): the journaled arm must deliver the
    whole stream exactly once regardless of when the kill lands, while
    the ablation arm's loss grows as the crash moves earlier — that A/B
    difference *is* what the journal buys.  Virtual-clock deterministic,
    so it ships under a ``metrics`` payload, which the gate does not read.
    """
    rows: List[FabricRecoveryRow] = []
    for crash_fraction in crash_fractions:
        for journaled in (True, False):
            rows.append(
                _recovery_row(crash_fraction, journaled, messages, seed)
            )
    return rows
