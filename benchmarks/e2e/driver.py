"""Load generator, subscriber handlers and correctness oracle.

One :class:`Driver` owns one fleet.  It publishes the seeded schedule in
a closed loop (:meth:`saturate`) or on a fixed timetable (:meth:`paced`),
its handlers log every delivery, and :meth:`check` holds the log against
what was published: exactly once, in per-(channel, publisher) order,
and — for a seeded 1-in-64 sample — equal to ``reference.py``.

Everything here is the ``bench.driver`` layer of the trace.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.echo.protocol import RESPONSE_V2
from repro.pbio.record import Record

from benchmarks.e2e import reference, yardstick
from benchmarks.e2e.workloads import (
    CHURN_EVERY,
    CHURN_OFFSET,
    ECHO_CHANNEL,
    ECHO_READERS,
    FABRIC_READERS,
    PUBLISHERS,
    REVISION_EVERY,
    Inputs,
    Workload,
    build_fleet,
    revision,
)

now = time.perf_counter

#: work between two yardstick passes; the host's speed shifts within a
#: second, and a slice is stated at the speed measured on both sides of it
SLICE = 0.25
#: give up waiting for UDP deliveries after this long; the oracle then
#: reports what is missing
UDP_DRAIN_TIMEOUT = 5.0


#: paced slices pooled into one latency distribution (about a second);
#: the phase reports the median of its groups' percentiles, so one host
#: stall of a second or two does not set the phase's p99
GROUP = 4


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise_paced(
    slices: List[Tuple[float, List[float], List[float]]]
) -> Dict[str, float]:
    """Latency at the reference host speed: every sample is scaled by
    its slice's host speed, slices are pooled GROUP at a time, and each
    figure is the median over the groups."""
    groups = [slices[i:i + GROUP] for i in range(0, len(slices), GROUP)]
    if len(groups) > 1 and len(groups[-1]) < GROUP:
        groups[-2:] = [groups[-2] + groups[-1]]
    pooled = [
        [latency * speed for speed, latencies, _lags in group
         for latency in latencies]
        for group in groups
    ]
    lags = [lag for _speed, _latencies, slice_lags in slices
            for lag in slice_lags]
    raw = [latency for _speed, latencies, _lags in slices
           for latency in latencies]
    return {
        "samples": len(raw),
        "samples_per_group": statistics.median(len(g) for g in pooled),
        "p50_ms": statistics.median(percentile(g, 0.50) for g in pooled) * 1e3,
        "p99_ms": statistics.median(percentile(g, 0.99) for g in pooled) * 1e3,
        "raw_p50_ms": percentile(raw, 0.50) * 1e3,
        "raw_p99_ms": percentile(raw, 0.99) * 1e3,
        "generator_lag_p99_ms": percentile(lags, 0.99) * 1e3,
    }


class Driver:
    def __init__(self, spec: Workload, inputs: Inputs, workdir: str,
                 yard: yardstick.Yardstick) -> None:
        self.spec = spec
        self.yard = yard
        self.inputs = inputs
        self.echo = spec.kind == "echo"
        self.udp = spec.transport == "udp"
        self.readers = [
            name for name, _fmt in (ECHO_READERS if self.echo else FABRIC_READERS)
        ]
        # per event id: pool index, due time (0 outside the paced phase),
        # stream (channel x publisher; ECho: wire format) order holds within
        self.ev_pool: List[int] = []
        self.ev_due: List[float] = []
        self.ev_stream: List[int] = []
        self.eid_of: Dict[Tuple[str, str, int], int] = {}
        self.got: List[List[int]] = [[] for _ in self.readers]
        self.samples: List[Tuple[int, int, Any]] = []
        self.latencies: List[float] = []
        self.delivered = 0
        self.next_slot = 0
        self.next_revision = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: set by run.py in a traced run, to tag spans with their event
        self.tracer: Optional[Any] = None
        os.makedirs(workdir, exist_ok=True)
        self.fleet = build_fleet(spec, workdir, self.handler_for)
        self.net = self.fleet.net
        self.next_heartbeat = now() + 1.0
        self.warm_up()

    # ------------------------------------------------------------------
    # Subscriber side
    # ------------------------------------------------------------------

    def handler_for(self, index: int) -> Callable[..., None]:
        # Looks ``on_event`` up at call time, so the tracer can wrap it
        # after the subscriptions exist.
        if self.echo:
            return lambda record: self.on_event(
                index, ECHO_CHANNEL, "source",
                int(record["channel_id"].rpartition("#")[2]), record,
            )
        return lambda channel, publisher, seq, record: self.on_event(
            index, channel, publisher, seq, record
        )

    def on_event(self, index: int, channel: str, publisher: str, seq: int,
                 record: Any) -> None:
        arrived = now()
        eid = seq if self.echo else self.eid_of[(channel, publisher, seq)]
        self.got[index].append(eid)
        self.delivered += 1
        due = self.ev_due[eid]
        if due:
            self.latencies.append(arrived - due)
        if eid & 63 == self.inputs.sample_salt:
            self.samples.append((index, eid, record))
        if self.tracer is not None:
            self.tracer.tag(channel, publisher, seq)

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------

    def emit(self, count: int, due: float = 0.0) -> None:
        """Publish the next *count* events of the schedule, one publish
        call per ``batch`` of them."""
        schedule = self.inputs.schedule
        step = self.spec.batch
        for _ in range(0, count, step):
            slots = [
                schedule[(self.next_slot + i) % len(schedule)]
                for i in range(step)
            ]
            self.next_slot += step
            if self.echo:
                self._submit(slots[0][0], due)
            else:
                self._publish(slots, due)

    def _publish(self, slots: List[Tuple[int, int, int]], due: float) -> None:
        """One fabric publish call: *slots* share a channel and publisher."""
        pool = self.inputs.pool
        _index, channel_index, publisher_index = slots[0]
        client = self.fleet.publishers[publisher_index]
        channel = self.fleet.channels[channel_index]
        if self.spec.batch == 1:
            seqs = [client.publish(channel, RESPONSE_V2, pool[slots[0][0]])]
        else:
            seqs = client.publish_batch(
                channel, RESPONSE_V2, [pool[slot[0]] for slot in slots]
            )
        stream = channel_index * PUBLISHERS + publisher_index
        for seq, slot in zip(seqs, slots):
            self.eid_of[(channel, client.address, seq)] = len(self.ev_pool)
            self.ev_pool.append(slot[0])
            self.ev_due.append(due)
            self.ev_stream.append(stream)
        if self.tracer is not None:
            self.tracer.tag(channel, client.address, seqs[0])

    def _submit(self, pool_index: int, due: float) -> None:
        """One ECho event.  Its id rides in the ``channel_id`` field,
        the one field every reader class keeps."""
        fleet = self.fleet
        eid = len(self.ev_pool)
        ordinal = eid + 1
        record = self.inputs.pool[pool_index]
        fmt = RESPONSE_V2
        stream = 0
        if ordinal % REVISION_EVERY == 0:
            # A sink parks the first message of an unknown format while it
            # fetches the meta-data, and later messages overtake it: ECho
            # keeps order per wire format, so each revision is a stream of
            # its own to the oracle.
            self.next_revision += 1
            stream = self.next_revision
            fmt, transform = revision(stream)
            record = Record(record)
            record[f"ext_{stream}"] = stream
            fleet.source.resolver.register(fmt, transforms=[transform])
            fleet.settle()  # the servers hold it before any sink asks
        record["channel_id"] = f"{ECHO_CHANNEL}#{eid}"
        self.ev_pool.append(pool_index)
        self.ev_due.append(due)
        self.ev_stream.append(stream)
        fleet.source.submit(ECHO_CHANNEL, fmt, record)
        if ordinal % CHURN_EVERY == CHURN_OFFSET:
            fleet.settle()
            fleet.churn()

    def warm_up(self) -> None:
        """One pass over every (channel, publisher) so codecs, routes and
        negotiated projections exist before the clock starts; the oracle
        checks these deliveries too, but they are not counted."""
        if self.echo:
            for _ in range(4):
                self.emit(1)
                self.fleet.settle()
        else:
            burst = min(self.spec.batch, 4)
            for channel_index in range(len(self.fleet.channels)):
                for publisher_index in range(PUBLISHERS):
                    self._publish(
                        [(i, channel_index, publisher_index)
                         for i in range(burst)], 0.0,
                    )
            self.fleet.settle()
        self.check(0, count=False)

    # ------------------------------------------------------------------
    # Driving the network
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Deliver everything outstanding."""
        if not self.udp:
            self.net.run()
            # Network.trace grows by one object per datagram, for ever
            self.net.trace.clear()
            return
        target = len(self.ev_pool) * len(self.readers)
        deadline = now() + UDP_DRAIN_TIMEOUT
        while self.delivered < target and now() < deadline:
            self.net.run_for(0)

    def wait_until(self, due: float) -> None:
        while True:
            remaining = due - now()
            if remaining <= 0:
                return
            if self.udp:
                self.net.run_for(min(remaining, 0.0005))
            elif remaining > 0.0005:
                time.sleep(remaining - 0.0003)

    def tick(self) -> None:
        """Once per wall second: every worker renews its lease (and, with
        telemetry attached, scrapes)."""
        if self.echo or now() < self.next_heartbeat:
            return
        self.next_heartbeat += 1.0
        for worker in self.fleet.workers:
            worker.heartbeat()

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def count_window(self, snapshot: Callable[[], Dict[str, float]]
                     ) -> Dict[str, float]:
        """Fixed work, not fixed time: the first ``count_events`` events
        after set-up, so per-event counts repeat exactly for a seed."""
        before = snapshot()
        for _ in range(self.spec.count_events // self.spec.window):
            self.emit(self.spec.window)
            self.drain()
        after = snapshot()
        return {name: after[name] - before[name] for name in after}

    def saturate(self, seconds: float) -> List[Tuple[int, float, float]]:
        """Closed loop: keep ``window`` events outstanding, in slices of
        SLICE seconds with a yardstick pass between them.  Returns each
        slice's (events, seconds, host speed)."""
        slices = []
        end = now() + seconds
        before = self.yard.once()
        while not slices or now() < end:
            published = len(self.ev_pool)
            started = now()
            while now() - started < SLICE:
                self.emit(self.spec.window)
                self.drain()
                self.tick()
            elapsed = now() - started
            after = self.yard.once()
            slices.append((len(self.ev_pool) - published, elapsed,
                           yardstick.speed(before, after)))
            before = after
        return slices

    def paced(self, seconds: float) -> List[Tuple[float, List[float], List[float]]]:
        """Open loop: each publish call is due on a fixed timetable,
        whether or not the system has kept up; latency runs from the due
        time, so a stall charges every event it delays.  The timetable
        pauses between slices for a yardstick pass.  Returns each slice's
        (host speed, latencies, generator lags) in seconds."""
        interval = self.spec.batch / self.spec.paced_rate
        calls = max(1, round(SLICE / interval))
        slices = []
        end = now() + seconds
        before = self.yard.once()
        while not slices or now() < end:
            self.latencies = []
            lags = []
            start = now() + 0.001
            for call in range(calls):
                due = start + call * interval
                self.wait_until(due)
                lags.append(now() - due)
                self.emit(self.spec.batch, due)
                if self.udp:
                    self.net.run_for(0)
                else:
                    self.drain()
                self.tick()
            self.drain()
            after = self.yard.once()
            slices.append(
                (yardstick.speed(before, after), self.latencies, lags)
            )
            before = after
        return slices

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------

    def check(self, first: int, count: bool = True) -> None:
        """Hold the deliveries logged since event *first* against what
        was published since then."""
        published = range(first, len(self.ev_pool))
        bad: Set[Tuple[int, int]] = set()
        for index, log in enumerate(self.got):
            seen = Counter(log)
            bad.update((index, eid) for eid in published if seen[eid] != 1)
            bad.update((index, eid) for eid in seen if eid < first)
            last: Dict[int, int] = {}
            for eid in log:
                stream = self.ev_stream[eid]
                if last.get(stream, -1) >= eid:
                    bad.add((index, eid))
                last[stream] = eid
            log.clear()
        for index, eid, record in self.samples:
            published_record = dict(self.inputs.pool[self.ev_pool[eid]])
            if self.echo:
                published_record["channel_id"] = f"{ECHO_CHANNEL}#{eid}"
            expected = reference.READERS[self.readers[index]](published_record)
            if record != expected:
                bad.add((index, eid))
        self.samples.clear()
        if count:
            self.attempted += len(published) * len(self.readers)
            self.failed += len(bad)
        for index, eid in sorted(bad)[:5]:
            self.failures.append(
                f"{self.readers[index]} reader, event {eid}: not delivered "
                "exactly once, in order and equal to the reference"
            )

    @contextlib.contextmanager
    def phase(self) -> Iterator[None]:
        """One phase: a collection before it, an oracle pass after it."""
        gc.collect()
        first = len(self.ev_pool)
        yield
        self.check(first)

    def close(self) -> None:
        self.fleet.close()
