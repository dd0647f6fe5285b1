"""Observation got cheaper, not thinner.

Three referees for the change that made ``repro.obs`` resolve its
instruments once per site and decode a datagram's trace block once:

* **golden parity** — the fixed scenario of ``parity_scenario.py``
  records exactly what it recorded on the parent commit
  (``cost_parity_golden.json`` was written there): every instrument,
  every counter value and histogram count, every span by name, parent,
  trace membership and remote parent.  The golden was rewritten once
  since, by the change that lets an owner's format groups share their
  stage results: its readers run staged, so 576 ``morph.fused`` spans /
  ``morph.fused.seconds`` / ``fused_messages`` became ``morph.transform``
  / ``morph.transform.seconds`` / ``staged_messages`` and the eight
  ``morph.fusion.compiles`` went — those keys and nothing else;
* **price guard** — in steady state an observed event asks the registry
  nothing and decodes each traced datagram's block at most three times
  (counted by wrapping, never timed);
* **handles follow the registry** — what a site holds is the live
  registry's instrument, whichever registry is live.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.net.transport import Network
from repro.obs import OBS, tracectx
from repro.obs.metrics import Registry
from repro.pbio.context import PBIOContext
from tests.obs import parity_scenario
from tests.obs.parity_scenario import Scenario, record_all_spans

GOLDEN = Path(__file__).with_name("cost_parity_golden.json")


@pytest.fixture
def journal(tmp_path):
    return str(tmp_path / "journal.jsonl")


# ---------------------------------------------------------------------------
# (a) golden parity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The scenario's fingerprint from a fresh interpreter — the command
    the golden was written with — so nothing an earlier test left in a
    process-wide memo (record factories, compiled transforms) decides
    which set-up instruments appear."""
    out = tmp_path_factory.mktemp("parity") / "now.json"
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, parity_scenario.__file__, str(out)],
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return json.loads(out.read_text())


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
# (b) price guard
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name, tally):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[name] = tally.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return original


class TestPriceGuard:
    WARM_UP = 32
    MEASURED = 64

    def test_steady_state_asks_the_registry_nothing(self, monkeypatch, journal):
        # a ring this small is evicting before the warm-up ends, as the
        # default one is after ~100 events of any real run
        obs.enable(capacity=256)
        spans = record_all_spans(OBS.tracer)
        scenario = Scenario(journal)
        scenario.publish(self.WARM_UP)
        assert OBS.tracer.dropped > 0

        tally = {}
        _count_calls(monkeypatch, Registry, "_get_or_create", tally)
        _count_calls(monkeypatch, Registry, "histogram", tally)
        decode_block = _count_calls(monkeypatch, tracectx, "decode_block", tally)
        for module in list(sys.modules.values()):  # ``from ... import`` copies
            if (module is not tracectx
                    and getattr(module, "decode_block", None) is decode_block):
                monkeypatch.setattr(module, "decode_block", tracectx.decode_block)
        before = len(spans)
        instruments = len(OBS.metrics)
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


# ---------------------------------------------------------------------------
# (c) handles follow the registry
# ---------------------------------------------------------------------------


def _total(registry: Registry, name: str) -> int:
    return sum(i.value for i in registry.instruments() if i.name == name)


def _held(handles) -> int:
    """How many instruments *handles* holds (for the live generation)."""
    return len(handles._bound[1])


class TestHandlesFollowTheRegistry:
    def test_a_swapped_registry_gets_the_traffic(self, journal):
        obs.enable()
        scenario = Scenario(journal)
        scenario.publish(8)
        first = OBS.metrics
        assert _total(first, "fabric.published") == 8
        frozen = first.snapshot()

        obs.disable(reset=True)
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
        obs.enable()
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
        obs.enable()
        net_a, net_b = Network(), Network()
        assert net_a._obs is not net_b._obs
        assert net_a._obs.messages is not net_b._obs.messages
        net_a.add_node("x")
        net_a.add_node("y").send("x", b"hello")
        assert _held(net_a._obs.messages) == 1
        assert _held(net_b._obs.messages) == 0

        fmt = parity_scenario.RESPONSE_V0
        ctx_a, ctx_b = PBIOContext(), PBIOContext()
        assert ctx_a._obs_encode_bytes is not ctx_b._obs_encode_bytes
        ctx_a.encode(fmt, fmt.make_record(channel_id="c", member_count=0,
                                          member_list=[]))
        assert _held(ctx_a._obs_encode_bytes) == 1
        assert _held(ctx_b._obs_encode_bytes) == 0
        # ... and both resolve to the registry's one instrument
        assert ctx_b._obs_encode_bytes() is ctx_a._obs_encode_bytes()
        assert ctx_a._obs_encode_bytes() is OBS.metrics.counter(
            "pbio.encode.bytes"
        )
