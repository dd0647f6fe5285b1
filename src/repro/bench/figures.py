"""Figure/table data generators — one function per evaluation artifact.

Each function regenerates the data series behind one figure or table of
the paper's Section 5 (or one of this repo's own ablations), returning
plain rows that ``python -m repro.bench`` prints, records and gates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.timing import Measurement, measure
from repro.bench.workloads import (
    FIGURE_SIZES,
    TABLE1_SIZES_KB,
    V2_TO_V1_STYLESHEET,
    response_v1_from_v2,
    response_v2_of_size,
)
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.errors import ReproError
from repro.morph.diff import _diff_cached, diff
from repro.morph.maxmatch import max_match
from repro.morph.receiver import MorphReceiver
from repro.net.link import LinkSpec
from repro.net.reliable import ReliableEndpoint
from repro.net.transport import Network
from repro.pbio.codegen import make_decoder, make_encoder
from repro.pbio.context import PBIOContext
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record, native_size
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.projection import project_format
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry
from repro.xmlrep.decode import record_from_tree
from repro.xmlrep.encode import encode_xml
from repro.xmlrep.parse import parse_xml
from repro.xmlrep.xslt import Stylesheet


@dataclass(frozen=True)
class ComparisonRow:
    """One x-axis point of a PBIO-vs-XML figure."""

    label: str
    unencoded_bytes: int
    pbio: Measurement
    xml: Measurement

    @property
    def ratio(self) -> float:
        """XML time / PBIO time — the factor the paper reports."""
        return self.xml.best / self.pbio.best if self.pbio.best else float("inf")


def _workloads(sizes: Optional[Dict[str, int]]) -> List:
    chosen = sizes if sizes is not None else FIGURE_SIZES
    out = []
    for label, target in chosen.items():
        record = response_v2_of_size(target)
        out.append((label, native_size(RESPONSE_V2, record), record))
    return out


# ---------------------------------------------------------------------------
# Figure 8 — encoding cost
# ---------------------------------------------------------------------------


def fig8_encoding(
    sizes: Optional[Dict[str, int]] = None, rounds: int = 5
) -> List[ComparisonRow]:
    """Encoding cost of the v2.0 ChannelOpenResponse, PBIO vs XML.

    Paper result: XML encoding is at least 2x PBIO across all sizes."""
    rows: List[ComparisonRow] = []
    ctx = PBIOContext()
    for label, unencoded, record in _workloads(sizes):
        ctx.encode(RESPONSE_V2, record)  # warm the generated encoder
        pbio = measure(lambda: ctx.encode(RESPONSE_V2, record), rounds=rounds)
        xml = measure(lambda: encode_xml(RESPONSE_V2, record), rounds=rounds)
        rows.append(ComparisonRow(label, unencoded, pbio, xml))
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — decoding cost without evolution
# ---------------------------------------------------------------------------


def fig9_decoding(
    sizes: Optional[Dict[str, int]] = None, rounds: int = 5
) -> List[ComparisonRow]:
    """Decoding cost without format evolution: a v2.0 reader receives
    v2.0 messages.  PBIO decodes with its generated routine; XML parses
    the text and traverses the tree back into a record.

    Paper result: PBIO is much less expensive than XML (order of
    magnitude), because of its DCG-specialized decode routine."""
    rows: List[ComparisonRow] = []
    ctx = PBIOContext()
    for label, unencoded, record in _workloads(sizes):
        wire = ctx.encode(RESPONSE_V2, record)
        xml_text = encode_xml(RESPONSE_V2, record)
        ctx.decode_as(RESPONSE_V2, wire)  # warm the generated decoder

        def decode_xml_path(text: str = xml_text) -> Record:
            return record_from_tree(RESPONSE_V2, parse_xml(text))

        pbio = measure(lambda: ctx.decode_as(RESPONSE_V2, wire), rounds=rounds)
        xml = measure(decode_xml_path, rounds=rounds)
        rows.append(ComparisonRow(label, unencoded, pbio, xml))
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — decoding cost with evolution (message morphing vs XSLT)
# ---------------------------------------------------------------------------


def fig10_morphing(
    sizes: Optional[Dict[str, int]] = None, rounds: int = 5
) -> List[ComparisonRow]:
    """Decoding cost *with* evolution: a v1.0-only reader receives v2.0
    messages.

    PBIO morphing = decode v2.0 (generated routine) + compiled ECode
    transform to v1.0 (Figure 5).  XML/XSLT = parse text into a tree +
    apply the XSL transformation (new tree) + traverse the new tree into
    a v1.0 record.

    Paper result: XML/XSLT is an order of magnitude slower."""
    rows: List[ComparisonRow] = []
    stylesheet = Stylesheet.from_string(V2_TO_V1_STYLESHEET)
    for label, unencoded, record in _workloads(sizes):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        receiver = MorphReceiver(registry)
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        ctx = PBIOContext(registry)
        wire = ctx.encode(RESPONSE_V2, record)
        xml_text = encode_xml(RESPONSE_V2, record)
        receiver.process(wire)  # plan + compile + cache the route

        def xslt_path(text: str = xml_text) -> Record:
            tree = parse_xml(text)
            transformed = stylesheet.transform(tree)
            return record_from_tree(RESPONSE_V1, transformed)

        pbio = measure(lambda: receiver.process(wire), rounds=rounds)
        xml = measure(xslt_path, rounds=rounds)
        rows.append(ComparisonRow(label, unencoded, pbio, xml))
    return rows


# ---------------------------------------------------------------------------
# Fusion ablation — whole-route fusion vs staged vs interpreted
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    """One x-axis point of the fusion ablation: the same chain-length-2
    morphing workload under three receiver modes."""

    label: str
    unencoded_bytes: int
    fused: Measurement
    staged: Measurement
    interpreted: Measurement

    @property
    def speedup(self) -> float:
        """Staged time / fused time — the whole-route fusion win."""
        return (
            self.staged.best / self.fused.best if self.fused.best else float("inf")
        )


def fig_fusion_ablation(
    sizes: Optional[Dict[str, int]] = None, rounds: int = 5
) -> List[AblationRow]:
    """Morphing latency at chain length 2 — a v0.0-only reader receives
    v2.0 messages through the retro ladder v2.0 -> v1.0 -> v0.0 — under:

    * ``fused``: whole-route fusion (decode + both transform steps +
      reconcile compiled into one routine, dead fields skipped),
    * ``staged``: the per-stage DCG pipeline (generated decoder, then
      two compiled ECode hops, each materializing a record),
    * ``interpreted``: no code generation anywhere (the paper's
      interpretation ablation arm).
    """

    def receiver_for(record, **kwargs):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        receiver = MorphReceiver(registry, **kwargs)
        receiver.register_handler(RESPONSE_V0, lambda rec: rec)
        wire = PBIOContext(registry).encode(RESPONSE_V2, record)
        receiver.process(wire)  # plan + compile + cache the route
        return receiver, wire

    rows: List[AblationRow] = []
    for label, unencoded, record in _workloads(sizes):
        fused_rx, wire = receiver_for(record, use_fusion=True)
        staged_rx, _ = receiver_for(record, use_fusion=False)
        interp_rx, _ = receiver_for(record, use_fusion=False, use_codegen=False)
        rows.append(
            AblationRow(
                label,
                unencoded,
                fused=measure(lambda: fused_rx.process(wire), rounds=rounds),
                staged=measure(lambda: staged_rx.process(wire), rounds=rounds),
                interpreted=measure(
                    lambda: interp_rx.process(wire), rounds=rounds
                ),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Design ablations — the choices no other figure times both ways
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignAblationRow:
    """One design choice timed both ways, back to back in one run."""

    label: str
    base: Measurement
    other: Measurement

    @property
    def ratio(self) -> float:
        """Other time / base time — what the label's comparison costs."""
        return self.other.best / self.base.best if self.base.best else float("inf")


def _evolving_revision(revision: int, width: int) -> IOFormat:
    """A *width*-field format of which two fields vary per revision."""
    fields = [IOField(f"stable_{i}", "integer") for i in range(width - 2)]
    fields += [
        IOField(f"rev{revision}_a", "integer"),
        IOField(f"rev{revision}_b", "string"),
    ]
    return IOFormat("Evolving", fields, version=str(revision))


def fig_design_ablations(rounds: int = 5) -> List[DesignAblationRow]:
    """The design choices the paper argues for and no other figure
    isolates (DCG against interpretation is the fusion ablation's third
    arm), each as an in-run ratio:

    * the Algorithm 2 route cache: a receiver forced to re-plan
      (MaxMatch + closure walk + ECode compile) on every message over
      the cached per-message path;
    * PBIO's generated coders over a generic field-walking coder, the
      choice behind Figure 9's gap;
    * MaxMatch planning cost against candidate population and ``diff``
      against format weight, uncached — the paper's future-work note on
      larger protocol-evolution trials.
    """

    def timed(label: str, base: Callable, other: Callable) -> DesignAblationRow:
        return DesignAblationRow(
            label, measure(base, rounds=rounds), measure(other, rounds=rounds)
        )

    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1_TRANSFORM)
    receiver = MorphReceiver(registry)
    receiver.register_handler(RESPONSE_V1, lambda rec: rec)
    small_wire = PBIOContext(registry).encode(
        RESPONSE_V2, response_v2_of_size(1_000)
    )
    receiver.process(small_wire)

    def replan_and_process() -> Record:
        receiver.invalidate_route(RESPONSE_V2.format_id)
        return receiver.process(small_wire)

    record = response_v2_of_size(10_000)
    wire = encode_record(RESPONSE_V2, record)
    generated_decode = make_decoder(RESPONSE_V2)
    generated_encode = make_encoder(RESPONSE_V2)

    def uncached(fn: Callable, *args) -> Callable[[], object]:
        def run():
            _diff_cached.cache_clear()
            return fn(*args)

        return run

    incoming = _evolving_revision(999, 12)
    populations = {
        count: [_evolving_revision(r, 12) for r in range(count)]
        for count in (2, 32)
    }
    return [
        timed(
            "route cache, 1KB: replan every message / cached route",
            lambda: receiver.process(small_wire),
            replan_and_process,
        ),
        timed(
            "decode, 10KB: generic field walker / generated",
            lambda: generated_decode(wire),
            lambda: decode_record(RESPONSE_V2, wire),
        ),
        timed(
            "encode, 10KB: generic field walker / generated",
            lambda: generated_encode(record),
            lambda: encode_record(RESPONSE_V2, record),
        ),
        timed(
            "MaxMatch: 32 / 2 candidate revisions",
            uncached(max_match, incoming, populations[2]),
            uncached(max_match, incoming, populations[32]),
        ),
        timed(
            "diff: 128 / 4 fields",
            uncached(diff, _evolving_revision(1, 4), _evolving_revision(2, 4)),
            uncached(diff, _evolving_revision(1, 128), _evolving_revision(2, 128)),
        ),
    ]


# ---------------------------------------------------------------------------
# Reliability figure — goodput and delivery latency under loss
# ---------------------------------------------------------------------------

#: Loss rates swept by the reliability figure (fractions).
RELIABILITY_LOSS_RATES = (0.0, 0.05, 0.10, 0.20)


@dataclass(frozen=True)
class ReliabilityRow:
    """One x-axis point of the reliability figure: the same paced
    message stream over an increasingly lossy link, with and without the
    reliable endpoint's ack/retry machinery.  Latencies are virtual
    (simulated) seconds from send to application delivery — retransmits
    show up as a fat p99 tail, losses as goodput below 1.0."""

    loss_pct: float
    messages: int
    reliable_delivered: int
    raw_delivered: int
    reliable_p99_seconds: float
    raw_p99_seconds: float
    retries: int

    @property
    def reliable_goodput(self) -> float:
        return self.reliable_delivered / self.messages if self.messages else 0.0

    @property
    def raw_goodput(self) -> float:
        return self.raw_delivered / self.messages if self.messages else 0.0


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def _reliability_arm(
    loss_rate: float, messages: int, seed: int, reliable: bool
) -> Tuple[int, float, int]:
    """Run one arm: *messages* small payloads, paced on the virtual
    clock, sender -> receiver over a lossy, jittery link.  Returns
    ``(delivered, p99_latency, retries)``."""
    net = Network(
        default_link=LinkSpec(
            latency=0.001, loss_rate=loss_rate, jitter=0.0005
        ),
        seed=seed,
    )
    send_times: Dict[bytes, float] = {}
    latencies: List[float] = []

    def on_delivery(_source: str, data: bytes) -> None:
        latencies.append(net.now - send_times[data])

    retries = 0
    if reliable:
        sender = ReliableEndpoint(
            net, "sender", seed=seed, breaker_threshold=1_000_000
        )
        receiver = ReliableEndpoint(net, "receiver", seed=seed)
        receiver.set_handler(on_delivery)
        transmit = lambda payload: sender.send("receiver", payload)  # noqa: E731
    else:
        net.add_node("sender")
        net.add_node("receiver").set_handler(on_delivery)
        transmit = lambda payload: net.send("sender", "receiver", payload)  # noqa: E731

    def send_at(index: int) -> Callable[[], None]:
        payload = index.to_bytes(4, "big")

        def fire() -> None:
            send_times[payload] = net.now
            transmit(payload)

        return fire

    for index in range(messages):
        # 200 msgs/s of virtual time: retransmit tails overlap later
        # sends, like a real stream (not one isolated stop-and-wait).
        net.call_at(index * 0.005, send_at(index))
    net.run()
    if reliable:
        retries = sender.retries
    return len(latencies), _p99(latencies), retries


def fig_reliability(
    loss_rates: Optional[List[float]] = None,
    messages: int = 200,
    seed: int = 0,
) -> List[ReliabilityRow]:
    """Goodput and p99 delivery latency vs link loss rate, with the
    reliable endpoint's retries on vs raw datagrams.

    Expected shape: the reliable arm holds goodput at 1.0 across the
    sweep, paying for it with a retransmission latency tail that grows
    with the loss rate; the raw arm's latency stays flat but its goodput
    decays roughly as ``1 - loss``."""
    chosen = list(loss_rates) if loss_rates is not None else list(
        RELIABILITY_LOSS_RATES
    )
    rows: List[ReliabilityRow] = []
    for loss in chosen:
        reliable_delivered, reliable_p99, retries = _reliability_arm(
            loss, messages, seed, reliable=True
        )
        raw_delivered, raw_p99, _ = _reliability_arm(
            loss, messages, seed, reliable=False
        )
        rows.append(
            ReliabilityRow(
                loss_pct=loss * 100.0,
                messages=messages,
                reliable_delivered=reliable_delivered,
                raw_delivered=raw_delivered,
                reliable_p99_seconds=reliable_p99,
                raw_p99_seconds=raw_p99,
                retries=retries,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Projection push-down: negotiated selective field transmission
# ---------------------------------------------------------------------------


#: The bulky telemetry-style event the projection bench streams: a
#: narrow subscriber is live on 2 of its 8 declared fields (25%), so the
#: fixed sample/pad arrays are dead weight the full-format arm still
#: marshals, ships and decodes on every message.
_PROJ_EVENT = IOFormat(
    "ProjBenchEvent",
    [
        IOField("seq", "integer"),
        IOField("value", "integer"),
        IOField("samples", "integer", array=ArraySpec(fixed_length=24)),
        IOField("aux", "float", array=ArraySpec(fixed_length=16)),
        IOField("tag", "integer"),
        IOField("flag", "integer"),
        IOField("origin", "integer"),
        IOField("pad", "integer", array=ArraySpec(fixed_length=12)),
    ],
    version="1.0",
)

#: What the narrow subscriber actually reads.
_PROJ_LIVE = ("seq", "value")

#: The subscriber's handler format — same name, narrower revision, so
#: the full-format arm morphs down to it by ordinary MaxMatch.
_PROJ_READER = IOFormat(
    "ProjBenchEvent",
    [IOField("seq", "integer"), IOField("value", "integer")],
    version="0.1",
)


@dataclass(frozen=True)
class ProjectionRow:
    """One arm of the projection push-down figure: the same event stream
    pushed through a reliable endpoint pair to a narrow subscriber,
    either full-format (the subscriber's receiver drops the dead fields
    after decode) or pre-projected onto the subscriber group's
    negotiated live set (the sender never encodes the dead fields)."""

    label: str
    fields_sent: int
    messages: int
    wire_bytes: int  # per-message bytes on the wire
    wall: Measurement  # wall seconds for the whole stream, best/mean

    @property
    def per_message_seconds(self) -> float:
        return self.wall.best / self.messages if self.messages else 0.0


def _projection_arm(
    projected: bool, messages: int, rounds: int
) -> ProjectionRow:
    """Time one arm: fresh network + endpoints + receiver per round,
    route warmed off the clock, the full sender-side encode *inside* the
    timed region — selective encoding is the sender half of the win."""
    wire_fmt = (
        project_format(_PROJ_EVENT, _PROJ_LIVE, epoch=1)
        if projected
        else _PROJ_EVENT
    )
    records = [
        _PROJ_EVENT.make_record(seq=i, value=i * 3)
        for i in range(messages)
    ]
    wire_bytes = len(PBIOContext().encode(wire_fmt, records[0]))
    expected = list(range(messages))
    timings: List[float] = []
    for _ in range(rounds):
        registry = FormatRegistry()
        registry.register(_PROJ_EVENT)
        registry.register(wire_fmt)
        ctx = PBIOContext(registry)
        net = Network(seed=31)
        sender = ReliableEndpoint(net, "bench-src")
        sink = ReliableEndpoint(net, "bench-dst")
        rx_registry = FormatRegistry()
        rx_registry.register(_PROJ_EVENT)
        rx_registry.register(wire_fmt)
        receiver = MorphReceiver(registry=rx_registry)
        got: List[int] = []
        receiver.register_handler(
            _PROJ_READER, lambda r, got=got: got.append(r["seq"])
        )
        sink.set_handler(lambda _src, data, r=receiver: r.process(data))
        # plan + warm the route and the generated encoder off the clock
        sender.send("bench-dst", ctx.encode(wire_fmt, records[0]))
        net.run()
        got.clear()
        start = time.perf_counter()
        for record in records:
            sender.send("bench-dst", ctx.encode(wire_fmt, record))
        net.run()
        timings.append(time.perf_counter() - start)
        if got != expected:
            raise ReproError(
                f"projection bench arm projected={projected} delivered "
                f"{len(got)}/{messages} messages (or out of order)"
            )
    return ProjectionRow(
        label="projected" if projected else "full",
        fields_sent=len(wire_fmt.fields),
        messages=messages,
        wire_bytes=wire_bytes,
        wall=Measurement(
            best=min(timings),
            mean=sum(timings) / len(timings),
            rounds=rounds,
            number=1,
        ),
    )


def fig_projection(
    messages: int = 2048, rounds: int = 3
) -> List[ProjectionRow]:
    """The projection push-down figure: end-to-end cost of the same
    stream to a narrow subscriber (live on 25% of the fields), full
    format vs the negotiated projection.  The first row is always the
    full-format arm — it anchors the self-normalized
    ``projection_relative_cost`` the regression gate tracks (both arms
    share one run's host regime, so machine-speed drift cancels)."""
    return [
        _projection_arm(False, messages, rounds),
        _projection_arm(True, messages, rounds),
    ]


# ---------------------------------------------------------------------------
# Table 1 — message sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeRow:
    """One column of Table 1 (sizes in bytes)."""

    target_kb: float
    unencoded_v2: int
    pbio_v2: int
    unencoded_v1: int
    xml_v2: int
    xml_v1: int


def table1_sizes(sizes_kb: Optional[List[float]] = None) -> List[SizeRow]:
    """ChannelOpenResponse sizes across representations.

    Paper results: PBIO adds < 30 bytes to the unencoded data; rollback
    to v1.0 triples the size (duplicated lists); XML inflates v2.0 by
    ~6-12x and v1.0 further."""
    chosen = list(sizes_kb) if sizes_kb is not None else list(TABLE1_SIZES_KB)
    ctx = PBIOContext()
    rows: List[SizeRow] = []
    for kb in chosen:
        record_v2 = response_v2_of_size(int(kb * 1000))
        record_v1 = response_v1_from_v2(record_v2)
        rows.append(
            SizeRow(
                target_kb=kb,
                unencoded_v2=native_size(RESPONSE_V2, record_v2),
                pbio_v2=len(ctx.encode(RESPONSE_V2, record_v2)),
                unencoded_v1=native_size(RESPONSE_V1, record_v1),
                xml_v2=len(encode_xml(RESPONSE_V2, record_v2).encode("utf-8")),
                xml_v1=len(encode_xml(RESPONSE_V1, record_v1).encode("utf-8")),
            )
        )
    return rows
