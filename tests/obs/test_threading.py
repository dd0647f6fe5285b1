"""Thread-safety: hammer a registry, a recorder, a held histogram and a
shared receiver's tallies from worker threads."""

from __future__ import annotations

import contextlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.morph.receiver import MorphReceiver
from repro.obs import OBS
from repro.obs.metrics import Handles, Registry
from repro.obs.tracing import SpanRecorder
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat

WORKERS = 8
ITERATIONS = 2_000


def test_counter_increments_are_not_lost():
    registry = Registry()

    def hammer(worker: int) -> None:
        for _ in range(ITERATIONS):
            registry.counter("shared").inc()
            registry.counter("per_worker", worker=worker).inc()

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(hammer, range(WORKERS)))

    assert registry.counter("shared").value == WORKERS * ITERATIONS
    for worker in range(WORKERS):
        assert registry.counter("per_worker", worker=worker).value == ITERATIONS


def test_histogram_observations_are_not_lost():
    registry = Registry()

    def hammer(worker: int) -> None:
        hist = registry.histogram("latency", bounds=(1.0, 2.0, 4.0))
        for i in range(ITERATIONS):
            hist.observe((i % 5) + 0.5)

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(hammer, range(WORKERS)))

    hist = registry.histogram("latency")
    total = WORKERS * ITERATIONS
    assert hist.count == total
    # each worker observes 0.5, 1.5, 2.5, 3.5, 4.5 cyclically
    assert hist.sum == pytest.approx(total * 2.5)
    snap = hist.snapshot()
    assert sum(b["count"] for b in snap["buckets"]) == total


def test_get_or_create_race_returns_one_instrument():
    registry = Registry()

    def create(_: int):
        return registry.counter("contested")

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        instruments = list(pool.map(create, range(64)))

    assert len({id(i) for i in instruments}) == 1
    assert len(registry) == 1


def test_span_recorder_keeps_per_thread_nesting():
    recorder = SpanRecorder(capacity=100_000)
    spans_per_worker = 500

    def hammer(worker: int) -> None:
        for i in range(spans_per_worker):
            with recorder.span("outer", worker=worker):
                with recorder.span("inner", worker=worker):
                    pass

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(hammer, range(WORKERS)))

    spans = recorder.spans()
    assert len(spans) == WORKERS * spans_per_worker * 2
    assert recorder.recorded_total == len(spans)
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans)  # ids unique across threads
    for span in spans:
        if span.name == "inner":
            parent = by_id[span.parent_id]
            # nesting never crosses threads: the parent is this
            # worker's own outer span
            assert parent.name == "outer"
            assert parent.attrs["worker"] == span.attrs["worker"]
        else:
            assert span.parent_id is None


@contextlib.contextmanager
def _swapping_registries(count: int = 50):
    """Swap *count* enabled registries in, one after another, at a
    switch interval that preempts the threads the caller starts inside;
    yields the registries and the event that stops the threads."""
    registries = [Registry() for _ in range(count)]
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        obs.enable(registry=registries[0])
        yield registries, stop
    finally:
        sys.setswitchinterval(interval)
        stop.set()


def test_handles_survive_registry_swaps_under_fire():
    """One shared histogram handle, hammered while the live registry is
    swapped under it: every observation lands in exactly one of the
    registries that were live (none lost), and once the swapping stops
    the handle serves the live registry only — a thread caught mid-call
    by a swap must not leave the old registry's histogram held."""
    handle = Handles.histogram("stress.seconds")
    done = [0] * WORKERS

    def hammer(worker: int) -> None:
        while not stop.is_set():
            handle().observe(1.0)
            done[worker] += 1

    with _swapping_registries() as (registries, stop):
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(hammer, w) for w in range(WORKERS)]
            for registry in registries[1:]:
                obs.enable(registry=registry)
                for _ in range(200):
                    handle()
            stop.set()
            for future in futures:
                future.result(timeout=30)

    def hits(registry: Registry) -> int:
        return sum(i.count for i in registry.instruments())

    assert sum(done) > 0
    assert sum(hits(registry) for registry in registries) == sum(done)
    live = registries[-1]
    assert OBS.metrics is live
    before = [hits(registry) for registry in registries]
    for _ in range(100):
        handle().observe(1.0)
        handle().observe(1.0)
    after = [hits(registry) for registry in registries]
    assert after[:-1] == before[:-1]
    assert after[-1] == before[-1] + 200


def test_a_shared_receivers_tallies_split_exactly_across_registry_swaps():
    """One receiver, eight threads, 50 enabled registries swapped in
    under them: each swap takes one reading, which is both the outgoing
    registry's final state and the incoming one's zero point, so the
    registries' ``morph.receiver.messages`` add up to the receiver's
    own tally — whatever the threads did to it meanwhile."""
    fmt = IOFormat("Tick", [IOField("n", "integer")])
    receiver = MorphReceiver()
    receiver.register_handler(fmt, lambda record: None)
    wire = PBIOContext(receiver.registry).encode(fmt, {"n": 1})

    def hammer(worker: int) -> None:
        while not stop.is_set():
            receiver.process(wire)

    with _swapping_registries() as (registries, stop):
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(hammer, w) for w in range(WORKERS)]
            for registry in registries[1:]:
                obs.enable(registry=registry)
            stop.set()
            for future in futures:
                future.result(timeout=30)

    def messages(registry: Registry) -> int:
        instrument = registry.get("morph.receiver.messages")
        return 0 if instrument is None else instrument.value

    assert receiver.stats.messages > 0
    assert sum(messages(registry) for registry in registries) == (
        receiver.stats.messages
    )
