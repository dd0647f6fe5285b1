"""What one run measures: the plain run's end-to-end figures and the
traced run's layer table, from the phases a :class:`Driver` offers."""

from __future__ import annotations

import gc
import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import OBS

from benchmarks.e2e.driver import Driver, now, summarise_paced
from benchmarks.e2e.trace import LAYERS, PER_KEVENT, Tracer


def calibrated(slices: List[Any]) -> float:
    """Median over slices of events/s at the reference host speed."""
    return statistics.median(
        events / seconds / speed for events, seconds, speed in slices
    )


def plain_run(driver: Driver, seconds: float
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Tracing off: count window + saturate, then paced."""
    spec = driver.spec
    net = driver.net
    with driver.phase():
        started = now()
        window = driver.count_window(lambda: {"bytes": net.bytes_sent})
        slices = driver.saturate(seconds / 2 - (now() - started))
    with driver.phase():
        paced_slices = driver.paced(seconds / 2)
    paced = summarise_paced(paced_slices)
    metrics = {
        "events_per_s": calibrated(slices),
        "deliver_p50_ms": paced["p50_ms"],
        "wire_bytes_per_event": window["bytes"] / spec.count_events,
    }
    detail = {
        "host_speed_index": statistics.median(
            [speed for _events, _seconds, speed in slices]
            + [speed for speed, _lat, _lags in paced_slices]
        ),
        "raw_events_per_s": statistics.median(
            events / seconds for events, seconds, _speed in slices
        ),
        "saturate_slices": slices,
        "paced_rate_events_per_s": spec.paced_rate,
        "paced": paced,
    }
    return metrics, detail


def traced_run(driver: Driver, seconds: float, spans_path: Optional[str]
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Tracing on for the saturate phase only; then, with the wrappers
    removed again, a short untraced saturate (for the tracing overhead)
    and a short paced phase (for the generator's own figures)."""
    spec = driver.spec
    tracer = Tracer()
    tracer.install()
    for method in ("emit", "on_event", "check"):
        tracer.patch_instance(driver, method, "bench.driver")
    driver.tracer = tracer

    # One phase by hand (collect, body, oracle), timing only the traced
    # work: the census walks the heap and the yardstick is not the
    # program, so neither may count as unattributed time.
    gc.collect()
    first = len(driver.ev_pool)
    census_s = [0.0]
    censuses: List[Dict[str, float]] = []

    def census() -> Dict[str, float]:
        began = now()
        censuses.append(tracer.counters())
        census_s[0] += now() - began
        return censuses[-1]

    first_span = tracer.mark()
    started = now()
    window = driver.count_window(census)
    window_s = now() - started - census_s[0]
    window_end_span = tracer.mark()
    traced_slices = driver.saturate(seconds / 2 - (now() - started))
    started = now()
    driver.check(first)
    wall_s = (window_s + sum(s for _e, s, _speed in traced_slices)
              + now() - started)
    census()
    # the journal compacts every 256 appends per shard, too rarely to
    # show in the count window: its figures are over the whole phase
    whole = {
        name: censuses[-1][name] - censuses[0][name]
        for name in ("journal.compactions", "journal.bytes_written")
    }
    events = len(driver.ev_pool) - first
    scrapes = list(tracer.scrape_ms)
    tracer.restore()
    driver.tracer = None

    self_ns, _calls, roots_ns = tracer.self_times(first_span)
    _self, calls, _roots = tracer.self_times(first_span, window_end_span)
    if spans_path:
        tracer.dump(spans_path)

    with driver.phase():
        reference_slices = driver.saturate(seconds / 4)
    with driver.phase():
        paced_slices = driver.paced(seconds / 4)
    paced = summarise_paced(paced_slices)
    # times are stated at the reference host speed, like the end-to-end
    # figures: scaled by the mean speed over the traced slices
    speed = statistics.fmean(s for _e, _s, s in traced_slices)

    counted = spec.count_events
    kilo = counted / 1000.0
    metrics: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_us_per_event"] = (
            self_ns[index] / 1e3 / events * speed
        )
    for layer in ("fabric.client", "echo.process", "pbio.encode",
                  "pbio.decode", "net.reliable", "net.batch", "fabric.worker",
                  "fabric.journal", "morph.receiver"):
        metrics[f"{layer}.calls_per_event"] = (
            calls[LAYERS.index(layer)] / counted
        )
    transport = "net.socket" if driver.udp else "net.transport"
    other = "net.transport" if driver.udp else "net.socket"
    metrics[f"{transport}.datagrams_per_event"] = (
        window["net.datagrams"] / counted
    )
    metrics[f"{transport}.bytes_per_event"] = window["net.bytes"] / counted
    metrics[f"{other}.datagrams_per_event"] = 0.0
    metrics[f"{other}.bytes_per_event"] = 0.0
    for counter in PER_KEVENT:
        metrics[f"{counter}_per_kevent"] = window[counter] / kilo
    metrics["pbio.codegen.generated_per_kevent"] = (
        calls[LAYERS.index("pbio.codegen")] / kilo
    )
    metrics["ecode.codegen.compiles_per_kevent"] = (
        calls[LAYERS.index("ecode.codegen")] / kilo
    )
    metrics["pbio.encode.bytes_per_event"] = window["encode.bytes"] / counted
    metrics["fabric.journal.compactions_per_kevent"] = (
        whole["journal.compactions"] / events * 1000.0
    )
    metrics["fabric.journal.disk_bytes_per_event"] = (
        whole["journal.bytes_written"] / events
    )
    metrics["net.batch.messages_per_frame"] = (
        window["batch.messages"] / window["batch.frames"]
        if window["batch.frames"] else 0.0
    )
    metrics["morph.receiver.batch_path_fraction"] = (
        window["morph.receiver.batch_messages"]
        / window["morph.receiver.messages"]
        if window["morph.receiver.messages"] else 0.0
    )
    metrics["obs.scrapes"] = float(len(scrapes))
    metrics["obs.scrape_ms_p50"] = (
        statistics.median(scrapes) if scrapes else 0.0
    )
    metrics["obs.instruments"] = float(len(OBS.metrics)) if spec.obs else 0.0
    metrics["obs.spans_per_event"] = window["obs.spans"] / counted
    untraced = calibrated(reference_slices)
    metrics["bench.driver.deliver_p99_ms"] = paced["p99_ms"]
    metrics["bench.driver.generator_lag_p99_ms"] = paced[
        "generator_lag_p99_ms"
    ]
    metrics["bench.driver.paced_utilisation"] = spec.paced_rate / untraced
    metrics["layers.sum_us_per_event"] = roots_ns / 1e3 / events * speed
    metrics["unattributed_fraction"] = 1.0 - roots_ns / 1e9 / wall_s
    metrics["trace.overhead_ratio"] = calibrated(traced_slices) / untraced
    detail = {
        "host_speed_index": speed,
        "traced_events": events,
        "traced_wall_us": wall_s * 1e6,
        "layers_sum_us": roots_ns / 1e3,
        "unattributed_us": wall_s * 1e6 - roots_ns / 1e3,
        "spans": tracer.mark() - first_span,
        "traced_events_per_s": calibrated(traced_slices),
        "untraced_events_per_s": untraced,
        "counted_events": counted,
        "paced": paced,
    }
    return metrics, detail
