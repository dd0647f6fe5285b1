"""Integration: instrumentation wired through PBIO, morph, ECho and net.

The acceptance scenario from the subsystem's design: with observability
enabled, a single morphed delivery yields a span tree covering decode ->
MaxMatch -> transform -> dispatch plus nonzero conversion-cache
counters, all exportable as JSON and Prometheus text.  With it disabled
(the default), the global registry stays untouched.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.morph import transform as transform_mod
from repro.morph.receiver import MorphReceiver
from repro.obs.export import build_snapshot, to_prometheus
from repro.obs.tracing import find_spans
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry


@pytest.fixture
def evolving_reading():
    """Reading v2 writer / v1 reader with a retro-transform between."""
    v1 = IOFormat(
        "Reading",
        [IOField("celsius", "float"), IOField("station", "string")],
        version="1",
    )
    v2 = IOFormat(
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
        v2, v1,
        "old.celsius = new.kelvin - 273.15;\nold.station = new.station;",
    )
    return registry, v1, v2


def _morphed_wire_delivery(registry, v1, v2, messages=2, **receiver_kwargs):
    """Encode v2 records and push them through a v1-only receiver."""
    received = []
    receiver = MorphReceiver(registry, **receiver_kwargs)
    receiver.register_handler(v1, received.append)
    sender = PBIOContext(registry)
    for i in range(messages):
        data = sender.encode(
            v2, v2.make_record(kelvin=290.0 + i, station="st", sensor_id=i)
        )
        receiver.process(data)
    return receiver, received


def test_single_morphed_delivery_produces_full_span_tree(evolving_reading):
    # the staged pipeline's span shape: pin fusion off (the fused fast
    # path collapses decode+transform into one morph.fused span, asserted
    # separately below)
    registry, v1, v2 = evolving_reading
    # a compile is traced where it happens: the first plan in the process
    # to need the spec, which an earlier test may have been
    transform_mod._transformations.clear()
    obs.enable(sample_every=1)
    receiver, received = _morphed_wire_delivery(
        registry, v1, v2, messages=1, use_fusion=False
    )

    assert len(received) == 1
    assert received[0]["celsius"] == pytest.approx(16.85)

    tree = obs.get_tracer().tree()
    (process,) = find_spans(tree, "morph.process")
    # the stages nest under the per-message span, in pipeline order
    stages = [c["name"] for c in process["children"]]
    # no morph.reconcile here: the transform lands exactly on the
    # reader's registered v1, so the match is perfect after morphing
    assert stages == [
        "morph.maxmatch", "pbio.decode", "morph.transform", "morph.dispatch",
    ]
    # the chain compilation traces as codegen work inside route planning
    assert find_spans([process], "ecode.codegen")
    (maxmatch,) = find_spans(tree, "morph.maxmatch")
    assert maxmatch["attrs"]["format"] == "Reading"
    assert maxmatch["attrs"]["rejected"] is False
    (transform,) = find_spans(tree, "morph.transform")
    assert transform["attrs"] == {"source": "2", "target": "1", "steps": 1}
    (decode,) = find_spans(tree, "pbio.decode")
    assert decode["attrs"]["format"] == "Reading"


def test_fused_delivery_produces_collapsed_span_tree(evolving_reading):
    registry, v1, v2 = evolving_reading
    obs.enable(sample_every=1)
    receiver, received = _morphed_wire_delivery(registry, v1, v2, messages=2)

    assert len(received) == 2
    assert received[1]["celsius"] == pytest.approx(17.85)

    tree = obs.get_tracer().tree()
    first, second = find_spans(tree, "morph.process")
    # a route's first message runs staged (a format sent once never pays
    # a compile); from its second, decode + transform collapse into one
    # specialized routine
    assert [c["name"] for c in first["children"]] == [
        "morph.maxmatch", "pbio.decode", "morph.transform", "morph.dispatch",
    ]
    assert [c["name"] for c in second["children"]] == [
        "morph.fused", "morph.dispatch",
    ]
    metrics = obs.get_registry()
    assert metrics.counter("morph.receiver.staged_messages").value == 1
    assert metrics.counter("morph.receiver.fused_messages").value == 1
    assert metrics.histogram("morph.fused.seconds").count == 1
    assert metrics.counter("morph.fusion.compiles").value == 1


def test_cache_counters_and_exporters(evolving_reading):
    # counter assertions below (morph.transform.seconds) are staged-path
    # specific; the fused equivalents are asserted in the fused span test
    registry, v1, v2 = evolving_reading
    obs.enable(sample_every=1)
    receiver, _ = _morphed_wire_delivery(
        registry, v1, v2, messages=3, use_fusion=False
    )

    metrics = obs.get_registry()
    assert metrics.counter("morph.receiver.cache_misses").value == 1
    assert metrics.counter("morph.receiver.cache_hits").value == 2
    assert metrics.counter("morph.receiver.morphed").value == 3
    assert metrics.counter("morph.receiver.compiled_chains").value == 1
    assert metrics.histogram("morph.transform.seconds").count == 3

    snap = build_snapshot(metrics, obs.get_tracer())
    json.dumps(snap)  # JSON-serializable end to end
    assert snap["metrics"]["morph.receiver.cache_hits"]["value"] == 2
    # one morph.process root per message (plus the sender's encode spans)
    assert len(find_spans(snap["spans"]["tree"], "morph.process")) == 3

    prom = to_prometheus(metrics)
    assert "morph_receiver_cache_hits 2" in prom
    assert "morph_receiver_cache_misses 1" in prom
    assert "morph_transform_seconds_count 3" in prom


def test_echo_channel_delivery_spans_and_counters(evolving_reading):
    from repro.echo.process import EChoProcess
    from repro.net.transport import Network

    registry, v1, v2 = evolving_reading
    obs.enable(sample_every=1)

    network = Network()
    producer = EChoProcess(network, "producer", registry, version="2.0")
    consumer = EChoProcess(network, "consumer", registry, version="1.0")
    producer.create_channel("readings")
    consumer.open_channel("readings", "producer", as_sink=True)
    network.run()
    received = []
    consumer.subscribe("readings", v1, received.append)
    for i in range(4):
        producer.submit(
            "readings", v2,
            v2.make_record(kelvin=290.0 + i, station="st", sensor_id=i),
        )
    network.run()

    assert len(received) == 4
    metrics = obs.get_registry()
    assert metrics.counter(
        "echo.channel.events_delivered", channel="readings"
    ).value == 4
    assert metrics.counter(
        "net.transport.messages", source="producer", destination="consumer"
    ).value >= 4

    tree = obs.get_tracer().tree()
    deliveries = find_spans(tree, "echo.deliver")
    assert len(deliveries) == 4
    assert deliveries[0]["attrs"] == {
        "channel": "readings", "process": "consumer",
    }
    # morph.process nests inside the channel delivery span
    assert find_spans(deliveries[0]["children"], "morph.process")


def test_disabled_observability_records_nothing_globally(evolving_reading):
    registry, v1, v2 = evolving_reading
    assert not obs.is_enabled()
    receiver, received = _morphed_wire_delivery(registry, v1, v2, messages=2)

    assert len(received) == 2
    assert len(obs.get_registry()) == 0
    assert obs.get_tracer().spans() == []
    # per-receiver stats still count (they are always on)
    assert receiver.stats.messages == 2
    assert receiver.stats.cache_hits == 1


def test_receiver_stats_mirror_and_legacy_attributes(evolving_reading):
    registry, v1, v2 = evolving_reading
    obs.enable()
    receiver, _ = _morphed_wire_delivery(registry, v1, v2, messages=2)

    stats = receiver.stats
    assert stats.messages == 2
    assert stats.cache_misses == 1
    assert stats.snapshot()["morphed"] == 2
    # mismatch ratio of the chosen (transformed) match is recorded
    assert stats.mismatch_ratios.count == 1
    global_hist = obs.get_registry().histogram("morph.maxmatch.mismatch_ratio")
    assert global_hist.count == 1
