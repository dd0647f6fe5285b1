"""Observation at a stated price.

Referees for what ``repro.obs`` records and what recording costs, all
counted and none timed:

* **golden parity** — the fixed scenario of ``parity_scenario.py`` run
  with ``sample_every=1`` records exactly what it recorded before head
  sampling existed (``cost_parity_golden.json`` was written on the
  parent of the change that made observation cheaper, and rewritten once
  since, by the change that lets an owner's format groups share their
  stage results: its readers run staged, so 576 ``morph.fused`` spans /
  ``morph.fused.seconds`` / ``fused_messages`` became ``morph.transform``
  / ``morph.transform.seconds`` / ``staged_messages`` and the eight
  ``morph.fusion.compiles`` went — those keys and nothing else; and once
  more by the change that generates a coder on a format's second use in
  a context: the first encode (decode) of each of the 23 (19) context and
  format pairs moved from ``path="specialized"`` to ``path="generic"``,
  and the five pairs encoded only once generate nothing —
  ``pbio.codegen.encoders`` 23 → 18, ``pbio.codegen.seconds`` 42 → 37;
  no span moved; and once more by the change that acknowledges once
  per receive burst: 133 fewer ack datagrams moved only the lines that
  count datagrams — ``net.transport.messages`` / ``bytes`` on nine
  links, the untraced ``net.deliver`` spans 1318 → 1185,
  ``obs.trace.dropped`` 8103 → 7970 and ``recorded_total`` 12199 →
  12066; and once more by the change that holds an owner's deliveries
  until its receive burst is over: the two telemetry reports that reach
  ``w0`` together leave for ``monitor`` as one frame, not two datagrams
  — ``net.batch.*`` 8 → 9 frames and 128 → 130 messages, ``w0`` →
  ``monitor`` 2 → 1 reliable sends and acks, 3 → 2 datagrams and 541 →
  548 bytes; the frame has no trace context of its own (its reports'
  differ), so 2 traced ``net.deliver``, ``net.reliable.deliver`` and
  ``net.reliable.send`` spans became 1 untraced one each and the 2
  reports' ``pbio.decode`` spans under it are untraced;
  ``obs.trace.dropped`` 7970 → 7967 and ``recorded_total`` 12066 →
  12063; the owner's other 774 traced ``net.reliable.send`` spans keep
  ``net.reliable.deliver`` as parent, though the burst's flush sends
  them after that span closed).
  Sampling is a test on the one path, not a fork of it;
* **sampled parity** — the same scenario at the default rate: every
  counter and gauge is the golden's (byte counters less the 26-byte
  blocks that were not sent), every sampled trace is span for span the
  trace the same message left at ``sample_every=1``, durations were
  observed once per such span, and nothing — span, exemplar, block —
  belongs to a message the sampler passed over;
* **price guard** — in steady state an observed event asks the registry
  nothing and decodes each traced datagram's block at most three times;
  an *unsampled* event builds no span, no ``activate``, touches no trace
  block and no instrument at all (its counts are tallies the registry
  reads), and its wire is the obs-off wire byte for byte;
* **receiver tallies** — a ``MorphReceiver`` counts in plain integers:
  with obs off a frame updates no instrument at all, with it on the
  ``morph.receiver.*`` totals are the sum of the receivers' tallies;
* **the live registry gets the traffic** — whichever registry is live,
  a swapped-out or cleared one keeps only what it saw, and owners never
  share a tally.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.morph.receiver import MorphReceiver
from repro.net.batch import pack_batch
from repro.net.transport import Network, _sniff_trace
from repro.obs import OBS, tracectx, tracing
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.pbio import buffer
from repro.pbio.context import PBIOContext
from repro.pbio.registry import FormatRegistry
from tests.obs import parity_scenario
from tests.obs.parity_scenario import Scenario, record_all_spans

GOLDEN = Path(__file__).with_name("cost_parity_golden.json")


@pytest.fixture
def journal(tmp_path):
    return str(tmp_path / "journal.jsonl")


# ---------------------------------------------------------------------------
# (a) golden parity: sample_every=1 is the path the golden was written on
# ---------------------------------------------------------------------------


def _scenario_run(tmp_path_factory, *argv: str):
    """The scenario's fingerprint from a fresh interpreter — the command
    the golden was written with — so nothing an earlier test left in a
    process-wide memo (record factories, compiled transforms) decides
    which set-up instruments appear."""
    out = tmp_path_factory.mktemp("parity") / "now.json"
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, parity_scenario.__file__, str(out), *argv],
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return _scenario_run(tmp_path_factory, "1", "detail")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenParity:
    def test_same_instruments_same_values(self, golden_run, golden):
        now = {k: tuple(v) for k, v in golden_run["instruments"].items()}
        then = {k: tuple(v) for k, v in golden["instruments"].items()}
        assert sorted(set(then) - set(now)) == [], "instruments disappeared"
        assert sorted(set(now) - set(then)) == [], "instruments appeared"
        moved = {k: (then[k], now[k]) for k in then if then[k] != now[k]}
        assert moved == {}, "(parent, now) differ"

    def test_same_spans(self, golden_run, golden):
        then, now = golden["spans"], golden_run["spans"]
        moved = {
            shape: (then.get(shape, 0), now.get(shape, 0))
            for shape in set(then) | set(now)
            if then.get(shape, 0) != now.get(shape, 0)
        }
        assert moved == {}, "(parent, now) span counts differ"
        assert golden_run["recorded_total"] == golden["recorded_total"]

    def test_evictions_are_still_counted_exactly(self, golden_run, golden):
        assert golden_run["dropped"] == golden["dropped"] > 0
        assert golden_run["instruments"]["obs.trace.dropped"] == [
            "counter", golden_run["dropped"]
        ]

    def test_same_deliveries(self, golden_run, golden):
        assert golden_run["delivered"] == golden["delivered"]


# ---------------------------------------------------------------------------
# (b) sampled parity: the default rate records the same story about fewer
# messages, and nothing about the rest
# ---------------------------------------------------------------------------

#: what times its own span (the histogram takes the span's duration)
TIMED = {"pbio.encode.seconds": "pbio.encode",
         "pbio.decode.seconds": "pbio.decode",
         "morph.transform.seconds": "morph.transform"}
#: planning: recorded whichever message first needs the route
SET_UP = {"morph.maxmatch", "ecode.codegen"}


@pytest.fixture(scope="module")
def sampled_run(tmp_path_factory):
    return _scenario_run(
        tmp_path_factory, str(obs.DEFAULT_SAMPLE_EVERY), "detail"
    )


def _span_counts(run) -> collections.Counter:
    """Recorded spans by name (a run's ``spans`` are keyed by shape)."""
    counts: collections.Counter = collections.Counter()
    for shape, count in run["spans"].items():
        counts[shape.split("|")[0]] += count
    return counts


class TestSampledParity:
    def test_counters_and_gauges_are_exact(self, sampled_run, golden):
        now, then = sampled_run["instruments"], golden["instruments"]
        # nothing was evicted, so the eviction counter was never made
        assert sampled_run["dropped"] == 0
        assert set(then) - set(now) == {"obs.trace.dropped"}
        assert set(now) - set(then) == set()
        moved = {k for k in now
                 if now[k] != then[k] and k not in TIMED}
        # ... except that a byte counter which sees the datagram sees the
        # 26-byte blocks too, and most were never sent
        assert all(k.startswith(("net.transport.bytes{", "pbio.decode.bytes"))
                   for k in moved), sorted(moved)
        for key in moved:
            saved = then[key][1] - now[key][1]
            assert saved > 0 and saved % tracectx.TRACE_BLOCK_SIZE == 0, key

    def test_sampled_traces_are_the_traces_those_messages_always_left(
        self, sampled_run, golden_run
    ):
        every = obs.DEFAULT_SAMPLE_EVERY
        full, sampled = golden_run["traces"], sampled_run["traces"]
        # 256 singles, 2 frames and 2 telemetry publishes were minted
        assert len(full) == 260
        assert len(sampled) == len(full[::every]) == 5
        for then, now in zip(full[::every], sampled):
            assert now["spans"] == then["spans"]

    def test_unsampled_messages_left_only_their_route_planning(
        self, sampled_run, golden
    ):
        untraced = {
            shape.split("|")[0] for shape in sampled_run["spans"]
            if "|untraced|" in shape
        }
        assert untraced <= SET_UP
        now, then = _span_counts(sampled_run), _span_counts(golden)
        for name in SET_UP:
            assert now[name] == then[name]
        kept = {t["trace_id"] for t in sampled_run["traces"]}
        assert set(sampled_run["exemplar_traces"]) <= kept

    def test_durations_are_observed_once_per_recorded_span(self, sampled_run):
        spans = _span_counts(sampled_run)
        for histogram, span in TIMED.items():
            assert sampled_run["instruments"][histogram] == [
                "histogram", spans[span]
            ]

    def test_same_deliveries(self, sampled_run, golden):
        assert sampled_run["delivered"] == golden["delivered"]


# ---------------------------------------------------------------------------
# (c) price guard
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name, tally, key=None):
    """Count calls of ``owner.name`` into *tally*, also through every
    ``from ... import`` copy of a module-level function."""
    original = getattr(owner, name)
    key = key or name

    def counted(*args, **kwargs):
        tally[key] = tally.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    if not isinstance(owner, type):
        for module in list(sys.modules.values()):
            if (module is not owner
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)


def _count_built(monkeypatch, cls, tally):
    """Count instances of *cls* (and its subclasses) built."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        tally[cls.__name__] = tally.get(cls.__name__, 0) + 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


class TestPriceGuard:
    WARM_UP = 32
    MEASURED = 64

    def test_steady_state_asks_the_registry_nothing(self, monkeypatch, journal):
        # a ring this small is evicting before the warm-up ends, as the
        # default one is after ~100 events of any sample_every=1 run
        obs.enable(capacity=256, sample_every=1)
        spans = record_all_spans(OBS.tracer)
        scenario = Scenario(journal)
        scenario.publish(self.WARM_UP)
        assert OBS.tracer.dropped > 0
        # reading the registry is not traffic: it lands the tallies
        instruments = len(OBS.metrics)

        tally = {}
        _count_calls(monkeypatch, Registry, "_get_or_create", tally)
        _count_calls(monkeypatch, Registry, "histogram", tally)
        _count_calls(monkeypatch, tracectx, "decode_block", tally)
        before = len(spans)
        scenario.publish(self.MEASURED)
        monkeypatch.undo()

        assert scenario.delivered == 3 * (self.WARM_UP + self.MEASURED)
        assert tally.get("_get_or_create", 0) == 0
        assert tally.get("histogram", 0) == 0
        assert len(OBS.metrics) == instruments
        traced_datagrams = sum(
            1 for span in spans[before:]
            if span.name == "net.deliver" and span.trace_id is not None
        )
        # publisher -> owner and owner -> three subscribers
        assert traced_datagrams == 4 * self.MEASURED
        assert 0 < tally["decode_block"] <= 3 * traced_datagrams

    #: instrument updates (``inc`` + ``set``) one unsampled event of the
    #: scenario may make: none — its counts are plain tallies the
    #: registry reads when it is read.  175 when every event was sampled
    #: and the queue gauge was set per datagram, 99 while each receiver
    #: also kept its tallies in a registry of its own, 88 while every
    #: count was pushed to an instrument as well.
    UPDATES_PER_EVENT = 0

    def test_an_unsampled_event_pays_for_its_counters_only(
        self, monkeypatch, journal
    ):
        obs.enable(sample_every=1 << 20)
        spans = record_all_spans(OBS.tracer)
        scenario = Scenario(journal)
        scenario.publish(self.WARM_UP)  # the first of them is the sampled one
        assert any(span.name == "fabric.publish" for span in spans)

        tally = {}
        _count_built(monkeypatch, tracing._ActiveSpan, tally)
        _count_built(monkeypatch, tracectx.activate, tally)
        _count_calls(monkeypatch, tracectx, "decode_block", tally)
        _count_calls(monkeypatch, buffer, "attach_trace", tally)
        _count_calls(monkeypatch, Histogram, "observe", tally)
        _count_calls(monkeypatch, Counter, "inc", tally, "update")
        _count_calls(monkeypatch, Gauge, "set", tally, "update")
        before = len(spans)
        published = _total(OBS.metrics, "fabric.published")
        scenario.publish(self.MEASURED)
        monkeypatch.undo()

        assert scenario.delivered == 3 * (self.WARM_UP + self.MEASURED)
        assert len(spans) == before
        assert {k: v for k, v in tally.items() if k != "update"} == {}
        # ... while the counters went on counting every one of them
        assert _total(OBS.metrics, "fabric.published") == (
            published + self.MEASURED
        )
        assert tally.get("update", 0) <= self.UPDATES_PER_EVENT * self.MEASURED

    @pytest.mark.parametrize("call", ["publish", "publish_batch",
                                      "submit", "submit_batch"])
    def test_an_unsampled_wire_is_the_obs_off_wire(
        self, monkeypatch, journal, call
    ):
        sent = []
        send = Network.send

        def tapped(self, source, destination, data):
            sent.append((source, destination, bytes(data)))
            return send(self, source, destination, data)

        monkeypatch.setattr(Network, "send", tapped)

        def wires(observed: bool):
            obs.disable(reset=True)
            if observed:
                obs.enable()
            drive = _fabric_calls if call.startswith("publish") else _echo_calls
            publish = drive(journal + str(observed), call)
            del sent[:]
            publish()  # the sampled one, when observed
            first = list(sent)
            del sent[:]
            publish()
            return first, list(sent)

        (_, plain), (sampled, unsampled) = wires(False), wires(True)
        assert any(_sniff_trace(data) for _s, _d, data in sampled)
        assert len(plain) >= 2  # at least a data frame and its ack
        assert unsampled == plain


def _fabric_calls(journal_path: str, call: str):
    scenario = Scenario(journal_path)
    if call == "publish":
        return lambda: scenario.publish(1)
    return lambda: scenario.publish_batches(1, size=4)


def _echo_calls(_journal_path: str, call: str):
    from repro.echo.process import EChoProcess
    from repro.echo.protocol import RESPONSE_V1, RESPONSE_V2

    net = Network()
    registry = FormatRegistry()
    registry.register_transform(parity_scenario.V2_TO_V1_TRANSFORM)
    source = EChoProcess(net, "source", registry, version="2.0")
    sink = EChoProcess(net, "sink", registry, version="1.0")
    source.create_channel("ch")
    sink.open_channel("ch", "source", as_sink=True)
    net.run()
    sink.subscribe("ch", RESPONSE_V1, lambda record: None)
    pool = parity_scenario._records(parity_scenario.random.Random(0), 4)

    def publish():
        if call == "submit":
            source.submit("ch", RESPONSE_V2, pool[0])
        else:
            source.submit_batch("ch", RESPONSE_V2, pool)
        net.run()

    return publish


# ---------------------------------------------------------------------------
# (d) a receiver's tallies are plain integers; obs mirrors the read ones
# ---------------------------------------------------------------------------


class TestReceiverTallies:
    FRAME = 8
    #: the ``stats`` names with a ``morph.receiver.*`` reader
    #: (``docs/OBSERVABILITY.md``); the other three are attributes only
    MIRRORED = ("messages", "cache_hits", "cache_misses", "perfect_matches",
                "morphed", "compiled_chains")

    def _drive(self):
        """A V2 frame through four readers: V0 over the two-step chain
        fused and staged, V2 itself, and one that rejects everything."""
        registry = FormatRegistry()
        registry.register_transform(parity_scenario.V2_TO_V1_TRANSFORM)
        registry.register_transform(parity_scenario.V1_TO_V0_TRANSFORM)
        record = parity_scenario._records(parity_scenario.random.Random(0), 1)
        wire = PBIOContext(registry).encode(
            parity_scenario.RESPONSE_V2, record[0]
        )
        receivers = []
        for fmt, fused in ((parity_scenario.RESPONSE_V0, True),
                           (parity_scenario.RESPONSE_V0, False),
                           (parity_scenario.RESPONSE_V2, True),
                           (None, True)):
            receiver = MorphReceiver(registry, use_fusion=fused)
            if fmt is None:
                receiver.register_default_handler(lambda fmt, record: None)
            else:
                receiver.register_handler(fmt, lambda record: None)
            receivers.append(receiver)
        frame = pack_batch([wire] * self.FRAME)
        for receiver in receivers:
            assert receiver.process_batch(frame) == [None] * self.FRAME
        return receivers

    def test_obs_off_a_frame_updates_no_instrument(self, monkeypatch):
        tally = {}
        _count_calls(monkeypatch, Counter, "inc", tally)
        _count_calls(monkeypatch, Gauge, "set", tally)
        fused, staged, same, rejecting = self._drive()
        monkeypatch.undo()
        assert tally == {}
        assert len(OBS.metrics) == 0
        routed = {"messages": 8, "cache_hits": 7, "cache_misses": 1,
                  "perfect_matches": 8, "reconciled": 0, "rejected": 0,
                  "broken_transforms": 0}
        assert fused.stats.snapshot() == staged.stats.snapshot() == {
            **routed, "morphed": 8, "compiled_chains": 1}
        assert same.stats.snapshot() == {
            **routed, "morphed": 0, "compiled_chains": 0}
        assert rejecting.stats.snapshot() == {
            **routed, "perfect_matches": 0, "rejected": 8,
            "morphed": 0, "compiled_chains": 0}
        assert fused.stats.messages == 8 and fused.stats.cache_hits == 7

    def test_obs_on_totals_are_the_sum_of_the_plain_tallies(self):
        obs.enable()
        receivers = self._drive()
        snapshots = [receiver.stats.snapshot() for receiver in receivers]
        for name in self.MIRRORED:
            assert _total(OBS.metrics, f"morph.receiver.{name}") == sum(
                snapshot[name] for snapshot in snapshots
            ), name
        assert sum(snapshot["rejected"] for snapshot in snapshots) == 8
        # one MaxMatch decision each; the rejecting reader accepted none
        assert OBS.metrics.histogram(
            "morph.maxmatch.mismatch_ratio").count == 3
        recorded = {i.name for i in OBS.metrics.instruments()}
        assert not recorded & {"morph.receiver.rejected",
                               "morph.receiver.reconciled",
                               "morph.receiver.broken_transforms"}


# ---------------------------------------------------------------------------
# (e) handles follow the registry
# ---------------------------------------------------------------------------


def _total(registry: Registry, name: str) -> int:
    return sum(i.value for i in registry.instruments() if i.name == name)


class TestHandlesFollowTheRegistry:
    def test_a_swapped_registry_gets_the_traffic(self, journal):
        obs.enable()
        scenario = Scenario(journal)
        scenario.publish(8)
        first = OBS.metrics
        assert _total(first, "fabric.published") == 8

        # A registry's final state is the reading it lands as it stops
        # being live.  A gauge read before then can still move: receivers
        # an earlier test left to the cyclic collector die in between.
        obs.disable(reset=True)
        frozen = first.snapshot()
        fresh = Registry()
        obs.enable(registry=fresh)
        scenario.publish(5)

        assert first.snapshot() == frozen
        assert _total(fresh, "fabric.published") == 5
        assert _total(fresh, "fabric.delivered") == 15
        assert _total(fresh, "fabric.journal.appends") == 5
        assert _total(fresh, "pbio.decode.messages") > 0
        assert _total(fresh, "net.transport.messages") > 0
        assert _total(fresh, "morph.receiver.messages") == 15

    def test_a_cleared_registry_repopulates_with_post_clear_counts(
        self, journal
    ):
        obs.enable(sample_every=1)  # durations of every event, not of one
        scenario = Scenario(journal)
        scenario.publish(8)
        names_before = {i.name for i in OBS.metrics.instruments()}

        OBS.metrics.clear()
        assert len(OBS.metrics) == 0
        scenario.publish(5)

        assert _total(OBS.metrics, "fabric.published") == 5
        assert _total(OBS.metrics, "fabric.delivered") == 15
        assert _total(OBS.metrics, "net.reliable.sends") == _total(
            OBS.metrics, "net.reliable.acked"
        ) > 0
        # everything the steady state records is back (what only set-up
        # records — codec generation, route planning — is not re-run)
        steady = {i.name for i in OBS.metrics.instruments()}
        assert steady <= names_before
        assert {"pbio.encode.seconds", "morph.transform.seconds",
                "net.transport.queue_depth", "fabric.shard.processed",
                "morph.dispatch.delivered"} <= steady

    def test_disabled_sites_resolve_nothing(self, journal):
        scenario = Scenario(journal)  # repro.obs is off
        scenario.publish(4)
        assert scenario.delivered == 12
        assert len(OBS.metrics) == 0

    def test_owners_never_share_a_handle_cache(self):
        """Owners never share a tally, and the registry sums them."""
        obs.enable()
        net_a, net_b = Network(), Network()
        assert net_a._tally is not net_b._tally
        for net in (net_a, net_b):
            net.add_node("x")
            net.add_node("y")
        net_a.node("y").send("x", b"hello")
        assert (net_a.messages_sent, net_b.messages_sent) == (1, 0)
        net_b.node("y").send("x", b"hi")
        assert OBS.metrics.counter(
            "net.transport.messages", source="y", destination="x"
        ).value == 2
        assert _total(OBS.metrics, "net.transport.bytes") == 7

        fmt = parity_scenario.RESPONSE_V0
        record = fmt.make_record(channel_id="c", member_count=0,
                                 member_list=[])
        ctx_a, ctx_b = PBIOContext(), PBIOContext()
        assert ctx_a._tally is not ctx_b._tally
        wire = ctx_a.encode(fmt, record)
        assert ctx_a._tally.encoded_bytes == len(wire)
        assert ctx_b._tally.encoded_bytes == 0
        ctx_b.encode(fmt, record)
        # ... and both land in the registry's one instrument
        assert OBS.metrics.counter("pbio.encode.bytes").value == 2 * len(wire)
