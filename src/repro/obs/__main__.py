"""``python -m repro.obs`` — snapshots, flight recordings, Perfetto
export, the live cluster view and the two CI smoke gates.

With no mode flag, runs a small live demo — the quickstart's evolving
``Reading`` format pushed through an ECho channel to a sink one revision
behind — with observability enabled, then renders the resulting metrics,
histograms and span tree as text tables.  Useful both as a smoke test of
the instrumentation and as documentation of what the subsystem records.
At most one mode flag per run; ``--help`` lists them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro import obs
from repro.obs.distributed import TraceStore
from repro.obs.export import build_snapshot, render_text, to_prometheus


def _reading_formats() -> Tuple[Any, Any, Any, Any]:
    """The quickstart's evolving ``Reading`` format, three revisions, in
    a registry holding the writer's V2→V1 and V1→V0 transforms:
    ``(registry, v0, v1, v2)``."""
    from repro.pbio.field import IOField
    from repro.pbio.format import IOFormat
    from repro.pbio.registry import FormatRegistry

    reading_v0 = IOFormat(
        "Reading", [IOField("celsius", "float")], version="0"
    )
    reading_v1 = IOFormat(
        "Reading",
        [IOField("celsius", "float"), IOField("station", "string")],
        version="1",
    )
    reading_v2 = IOFormat(
        "Reading",
        [
            IOField("kelvin", "float"),
            IOField("station", "string"),
            IOField("sensor_id", "integer"),
        ],
        version="2",
    )
    registry = FormatRegistry()
    registry.add_transform(
        reading_v2,
        reading_v1,
        "old.celsius = new.kelvin - 273.15;\nold.station = new.station;",
        description="Reading v2 -> v1",
    )
    registry.add_transform(
        reading_v1,
        reading_v0,
        "old.celsius = new.celsius;",
        description="Reading v1 -> v0",
    )
    return registry, reading_v0, reading_v1, reading_v2


def _demo_workload(messages: int = 25) -> None:
    """One evolving-format ECho exchange: a v2 producer, a v1 consumer,
    morphing in between — enough traffic to populate every layer's
    instruments (net, pbio, ecode, morph, echo)."""
    from repro.echo.process import EChoProcess
    from repro.net.transport import Network

    registry, _v0, reading_v1, reading_v2 = _reading_formats()
    network = Network()
    producer = EChoProcess(network, "producer", registry, version="2.0")
    consumer = EChoProcess(network, "consumer", registry, version="1.0")
    producer.create_channel("readings")
    consumer.open_channel("readings", "producer", as_sink=True)
    network.run()
    consumer.subscribe("readings", reading_v1, lambda rec: rec)
    for i in range(messages):
        producer.submit(
            "readings",
            reading_v2,
            reading_v2.make_record(
                kelvin=290.0 + i, station=f"st-{i % 3}", sensor_id=i
            ),
        )
    network.run()


def _traced_chain_workload(
    messages: Optional[int] = None, loss_rate: float = 0.10, seed: int = 7,
    tap: Optional[Callable[[bytes], None]] = None,
) -> Tuple[List[float], int]:
    """The distributed-tracing demo: a V2 producer publishing to a V0
    consumer over a *lossy* link with reliable endpoints — every message
    crosses the wire (possibly several times), morphs V2→V1→V0 through
    the writer-supplied transform chain, and dispatches.  By default
    enough messages that the head sampler picks three; *tap* sees every
    datagram sent.  Returns ``(delivered values, messages)``."""
    from repro.echo.process import EChoProcess
    from repro.net.link import LinkSpec
    from repro.net.transport import Network

    registry, reading_v0, _v1, reading_v2 = _reading_formats()
    if messages is None:
        messages = 3 * obs.OBS.sample_every
    network = Network(
        seed=seed,
        default_link=LinkSpec(latency=0.001, loss_rate=loss_rate),
    )
    if tap is not None:
        send = network.send
        network.send = lambda src, dst, data: tap(data) or send(src, dst, data)
    producer = EChoProcess(network, "producer", registry, version="2.0")
    consumer = EChoProcess(network, "consumer", registry, version="0.0")
    producer.create_channel("readings")
    consumer.open_channel("readings", "producer", as_sink=True)
    network.run()
    delivered: List[float] = []
    consumer.subscribe(
        "readings", reading_v0, lambda rec: delivered.append(rec["celsius"])
    )
    for i in range(messages):
        producer.submit(
            "readings",
            reading_v2,
            reading_v2.make_record(
                kelvin=290.0 + i, station=f"st-{i % 3}", sensor_id=i
            ),
        )
    network.run()
    return delivered, messages


#: Span names every complete traced delivery must contain (the morph
#: chain shows as ``morph.transform`` staged or ``morph.fused`` fused).
_REQUIRED_SPANS = (
    "echo.publish",
    "net.deliver",
    "morph.process",
    "morph.dispatch",
)


def _collect_store() -> TraceStore:
    store = TraceStore()
    tracer = obs.get_tracer()
    if isinstance(tracer, obs.SpanRecorder):
        store.add_recorder("local", tracer)
    return store


def _run_chrome(out_path: Optional[str]) -> int:
    obs.disable(reset=True)
    obs.enable()
    obs.seed_ids(42)
    _traced_chain_workload()
    store = _collect_store()
    text = store.to_chrome_json()
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote Chrome trace-event JSON for {len(store.trace_ids())} "
            f"trace(s) to {out_path} — load it at https://ui.perfetto.dev"
        )
    else:
        print(text)
    obs.disable(reset=True)
    return 0


def _run_flight(trace_id: Optional[str]) -> int:
    obs.disable(reset=True)
    obs.enable()
    obs.seed_ids(42)
    _traced_chain_workload()
    store = _collect_store()
    ids = store.trace_ids()
    if not ids:
        print("no traces recorded", file=sys.stderr)
        return 1
    # no id given: the most recent message the head sampler picked
    print(store.flight(trace_id if trace_id is not None else ids[-1])
          .hop_report())
    total = sum(store.flight(t).retransmits for t in ids)
    print(f"\n{len(ids)} sampled trace(s) recorded (1 message in "
          f"{obs.OBS.sample_every}), {total} retransmit(s) across them")
    obs.disable(reset=True)
    return 0


#: Planning spans: recorded for whichever message first needs the route,
#: sampled or not.
_PLANNING_SPANS = {"morph.maxmatch", "ecode.codegen"}


def _run_trace_smoke(out_path: Optional[str]) -> int:
    """The CI smoke gate: run the lossy V2→V1→V0 chain at the default
    sampling rate; every sampled message must have left one complete
    trace (retransmits included), every other one nothing but exact
    counters — no span, no trace block on the wire.  Exports the traces
    as Chrome JSON."""
    from repro.net.transport import _sniff_trace

    obs.disable(reset=True)
    obs.enable(capacity=65536)
    obs.seed_ids(42)
    every = obs.OBS.sample_every
    blocks: List[bool] = []
    delivered, sent = _traced_chain_workload(
        tap=lambda data: blocks.append(_sniff_trace(data) is not None)
    )
    store = _collect_store()
    failures: List[str] = []
    if sorted(set(delivered)) != sorted(delivered) or len(delivered) != sent:
        failures.append(
            f"delivered {len(set(delivered))} distinct of {sent} messages "
            f"in {len(delivered)} deliveries"
        )
    ids = store.trace_ids()
    # the channel-open handshake is untraced; one published message in
    # `every` must have produced exactly one trace
    if len(ids) != -(-sent // every) or len(ids) < 3:
        failures.append(
            f"{len(ids)} trace(s) for {sent} messages sampled 1 in {every}"
        )
    incomplete = 0
    for tid in ids:
        report = store.flight(tid)
        names = set(report.span_names())
        missing = [n for n in _REQUIRED_SPANS if n not in names]
        if "morph.transform" not in names and "morph.fused" not in names:
            missing.append("morph.transform|morph.fused")
        if missing or not report.hop_report():
            incomplete += 1
            if incomplete <= 3:
                failures.append(f"trace {tid} missing spans: {missing}")
    if incomplete:
        failures.append(f"{incomplete} incomplete trace(s)")
    spans = obs.get_tracer().spans()
    stray = {s.name for s in spans if s.trace_id is None} - _PLANNING_SPANS
    if stray:
        failures.append(f"spans outside every sampled trace: {sorted(stray)}")
    transmissions = sum(
        s.name in ("net.reliable.send", "net.reliable.retransmit")
        for s in spans
    )
    if sum(blocks) != transmissions:
        failures.append(
            f"{sum(blocks)} datagram(s) carried a trace block, the sampled "
            f"traces account for {transmissions} transmission(s)"
        )
    retransmits = sum(store.flight(t).retransmits for t in ids)

    def total(name: str) -> int:
        return sum(i.value for i in obs.get_registry().instruments()
                   if i.name == name)

    # counters are exact for every message, sampled or not
    retries = total("net.reliable.retries")
    if not (total("echo.channel.events_pushed") == sent
            == total("echo.channel.events_delivered")
            and total("net.reliable.sends") == total("net.reliable.acked")
            and retries > retransmits):
        failures.append("pushed / delivered / sends / acked / retries "
                        "counters do not reconcile")
    snapshot = build_snapshot(obs.get_registry(), obs.get_tracer())
    if snapshot["spans"]["dropped"]:
        failures.append(
            f"{snapshot['spans']['dropped']} span(s) evicted from the ring "
            "(raise the capacity)"
        )
    chrome = store.to_chrome()
    if not chrome["traceEvents"]:
        failures.append("Chrome export is empty")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle, indent=2)
    obs.disable(reset=True)
    if failures:
        for failure in failures:
            print(f"trace-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"trace-smoke OK: {sent}/{sent} delivered exactly once, {len(ids)} "
        f"complete trace(s) (1 in {every}) with {retransmits} of "
        f"{retries} retransmit(s), "
        f"{sent - len(ids)} message(s) left counters only"
        + (f", Chrome export at {out_path}" if out_path else "")
    )
    return 0


def _print_loaded(path: str) -> int:
    """Pretty-print a snapshot previously saved with ``--json``."""
    from repro.bench.reporting import format_table

    with open(path, "r", encoding="utf-8") as handle:
        snap = json.load(handle)
    metrics = snap.get("metrics", {})
    rows = []
    for name, entry in sorted(metrics.items()):
        if entry.get("kind") == "histogram":
            value = f"count={entry['count']} sum={entry['sum']:.3g}"
        else:
            value = entry.get("value")
        rows.append((name, entry.get("kind", "?"), value))
    print(format_table(["name", "kind", "value"], rows))
    spans = snap.get("spans", {})
    print(
        f"\nspans: {spans.get('buffered', 0)} buffered / "
        f"{spans.get('recorded_total', 0)} recorded / "
        f"{spans.get('dropped', 0)} dropped"
    )
    return 0


def _run_top(watch_frames: int) -> int:
    """Build the demo fleet, drive traffic, render the cluster view —
    once, or one frame per demo second with ``--watch N``."""
    from repro.obs.topview import build_cluster, drive, render_top

    obs.disable(reset=True)
    obs.enable()
    cluster = build_cluster()
    frames = max(1, watch_frames)
    for frame in range(frames):
        drive(cluster, seconds=1.0)
        if frame:
            print()
        print(render_top(cluster.collector, cluster.engine))
    cluster.flush()
    obs.disable(reset=True)
    return 0


def _run_cluster_export(out_path: Optional[str]) -> int:
    """Run the demo fleet and emit the ``cluster_state()`` contract."""
    from repro.obs.topview import build_cluster, drive

    obs.disable(reset=True)
    obs.enable()
    cluster = build_cluster()
    drive(cluster, seconds=2.0)
    cluster.flush()
    state = cluster.collector.cluster_state()
    obs.disable(reset=True)
    text = json.dumps(state, indent=2, sort_keys=True)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote cluster state ({state['schema']}) to {out_path}")
    else:
        print(text)
    return 0


def _run_telemetry_smoke(out_path: Optional[str]) -> int:
    from repro.obs.topview import telemetry_smoke

    failures = telemetry_smoke(export_path=out_path)
    if failures:
        for failure in failures:
            print(f"telemetry-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "telemetry-smoke OK: collector converged, SLO fired and resolved, "
        "schema valid, disabled wire byte-identical"
        + (f", export at {out_path}" if out_path else "")
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", allow_abbrev=False, description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--load", metavar="PATH",
        help="pretty-print a snapshot saved with --json")
    mode.add_argument(
        "--format", choices=["chrome"],
        help="traced lossy demo -> Chrome trace-event JSON on stdout or "
             "--out (load the file at https://ui.perfetto.dev)")
    mode.add_argument(
        "--flight", nargs="?", const="", metavar="TRACE_ID",
        help="traced lossy demo -> the hop timeline of the trace id "
             "given, else of the most recent sampled message")
    mode.add_argument(
        "--trace-smoke", action="store_true",
        help="CI gate: V2->V1->V0 morph chain over a 10%% lossy link at "
             "the default sampling rate; every sampled message must have "
             "left one complete trace, every other one counters only; "
             "writes the Chrome export to --out; exit 1 on failure")
    mode.add_argument(
        "--telemetry-smoke", action="store_true",
        help="CI gate: agent/collector convergence under loss, SLO "
             "fire->resolve, schema check, byte-identical disabled wire; "
             "exit 1 on failure")
    mode.add_argument(
        "--top", action="store_true",
        help="live cluster view: a 3-worker fabric with telemetry agents, "
             "rendered as tables (sources, per-channel totals, route hit "
             "ratio, retransmit %%, journal lag, SLO states)")
    mode.add_argument(
        "--cluster-export", action="store_true",
        help="run the demo fleet and write the collector's "
             "cluster_state() JSON contract to stdout or --out")
    parser.add_argument(
        "--watch", type=int, metavar="N",
        help="with --top: re-render every demo second for N frames")
    parser.add_argument(
        "--out", metavar="PATH",
        help="where --format / --trace-smoke / --telemetry-smoke / "
             "--cluster-export write their JSON")
    parser.add_argument(
        "--prometheus", action="store_true",
        help="live demo snapshot in Prometheus text format")
    parser.add_argument(
        "--json", metavar="PATH",
        help="live demo: also write the JSON snapshot")
    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.watch is not None and not args.top:
        parser.error("--watch needs --top")
    if args.load is not None:
        return _print_loaded(args.load)
    if args.trace_smoke:
        return _run_trace_smoke(args.out)
    if args.telemetry_smoke:
        return _run_telemetry_smoke(args.out)
    if args.top:
        return _run_top(args.watch or 1)
    if args.cluster_export:
        return _run_cluster_export(args.out)
    if args.format is not None:
        return _run_chrome(args.out)
    if args.flight is not None:
        return _run_flight(args.flight or None)

    obs.disable(reset=True)
    obs.enable()
    _demo_workload()
    state = obs.OBS
    if args.prometheus:
        print(to_prometheus(state.metrics), end="")
    else:
        print("live snapshot of the quickstart ECho evolution demo\n")
        print(render_text(state.metrics, state.tracer))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(build_snapshot(state.metrics, state.tracer), handle,
                      indent=2)
        print(f"\nwrote JSON snapshot to {args.json}")
    obs.disable(reset=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
