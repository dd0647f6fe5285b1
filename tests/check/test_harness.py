"""End-to-end harness tests: the seed-0 smoke run, the CLI contract, and
the acceptance regression — a length field pointing past the payload end
must raise DecodeError on *both* decode paths."""

import json
import random
import struct
import subprocess
import sys

import pytest

from repro import obs
from repro.bench.workloads import response_v2
from repro.check.oracles import check_fusion_wires, check_morph
from repro.check.runner import CheckRunner, run_check
from repro.echo.protocol import RESPONSE_V0, RESPONSE_V2
from repro.errors import DecodeError
from repro.morph.fusion import FusedRoute
from repro.morph.receiver import _Route
from repro.obs import tracectx
from repro.pbio import codegen
from repro.pbio.buffer import HEADER_SIZE
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat


class TestSmokeRun:
    def test_seed0_small_budget_is_clean(self):
        summary = run_check(seed=0, budget=60)
        assert summary["ok"] is True
        assert summary["finding_count"] == 0
        assert summary["cases_total"] > 0
        assert summary["mutations_applied"] > 0
        assert set(summary["cases"]) == {
            "roundtrip", "mutation", "ecode", "fusion", "morph",
            "reliability", "batching", "projection", "crash",
        }

    def test_runs_are_seed_deterministic(self):
        a = CheckRunner(seed=3, budget=40).run()
        b = CheckRunner(seed=3, budget=40).run()
        assert a == b

    def test_summary_is_json_serializable(self):
        summary = CheckRunner(seed=1, budget=20).run()
        parsed = json.loads(json.dumps(summary))
        assert parsed["seed"] == 1


class TestCLI:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "--seed", "0",
             "--budget", "30"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["ok"] is True
        assert summary["seed"] == 0


class TestFusionOracleSharedArm:
    """The fusion oracle's fourth arm reads each wire through a memo it
    shares with sibling readers, and is held to the fused arm."""

    def wires(self):
        return [
            encode_record(RESPONSE_V2, response_v2(members), byte_order=order)
            for members, order in ((3, "little"), (5, "big"), (1, "little"))
        ]

    def test_a_memo_that_changes_a_delivery_is_a_finding(
        self, echo_registry, monkeypatch
    ):
        assert check_fusion_wires(echo_registry, RESPONSE_V0, self.wires()) == []
        run_chain = _Route.run_chain
        # a memo that forgets the last hop: invisible to the other arms
        monkeypatch.setattr(
            _Route, "run_chain",
            lambda route, record, shared: run_chain(route, record, None)
            if shared is None else route.stages[0][1].apply(record),
        )
        findings = check_fusion_wires(echo_registry, RESPONSE_V0, self.wires())
        assert findings and all("shared" in f.detail for f in findings)

    def test_an_unknown_format_is_clean_in_every_arm(self, echo_registry):
        """Four wires whose format id nobody registered: every arm
        dead-letters each under ``unknown_format`` (none quarantines
        the fourth), so the arms agree and nothing is a finding."""
        alien = bytearray(self.wires()[0])
        alien[8:16] = bytes(8)  # the header's format id
        wires = [bytes(alien)] * 4 + self.wires()
        assert check_fusion_wires(echo_registry, RESPONSE_V0, wires) == []

    def test_a_contained_leak_is_still_dirty(self, echo_registry, monkeypatch):
        """The receiver dead-letters an IndexError out of a fused decode
        as it does any failure; the oracle reads the dead letter and
        still calls it a leak, on every wire."""

        def leaking(route, order):
            def fn(data, start, end):
                raise IndexError("fused decode read past its buffer")
            return fn

        monkeypatch.setattr(FusedRoute, "fn_for", leaking)
        wires = self.wires() * 2  # more leaks than the quarantine threshold
        findings = check_fusion_wires(echo_registry, RESPONSE_V0, wires)
        leaks = [f.detail for f in findings if "leaked" in f.detail]
        # every wire is judged: no arm quarantines the leaking format
        assert len(leaks) == len(wires) and all(
            detail.startswith("fused path leaked IndexError")
            for detail in leaks
        )


class TestOraclesRestoreObsState:
    """An oracle that turns ``repro.obs`` on for its scenario hands the
    caller back the state it came with — sampling rate included."""

    def test_caller_keeps_its_rate_registry_and_recorder(self):
        registry = obs.Registry()
        obs.enable(registry=registry, sample_every=7)
        try:
            recorder = obs.get_tracer()
            tracectx.mint()  # the caller is one message into its window
            assert check_morph(random.Random(0), messages=2) == []
            assert obs.is_enabled()
            assert obs.OBS.sample_every == 7
            assert obs.OBS.minted == 1
            assert obs.get_registry() is registry
            assert obs.get_tracer() is recorder
            # the scenario recorded into its own registry and recorder
            assert len(registry) == 0
            assert recorder.spans() == []
        finally:
            obs.disable(reset=True)


@pytest.fixture
def telemetry_fmt():
    return IOFormat("Telemetry", [
        IOField("n", "integer", 4),
        IOField("samples", "unsigned", 8, array=ArraySpec(length_field="n")),
    ], version="1.0")


class TestLengthFieldPastPayloadEnd:
    """The acceptance-criterion regression: corrupt a count/length field
    to point far past the payload end; both decode paths must reject with
    DecodeError — not over-allocate, not over-read, not leak raw errors."""

    def hostile_count_wire(self, fmt, count):
        wire = bytearray(encode_record(fmt, {"n": 2, "samples": [7, 9]}))
        struct.pack_into("<i", wire, HEADER_SIZE, count)
        return bytes(wire)

    @pytest.mark.parametrize("count", [3, 1000, 2**28, 2**31 - 1])
    def test_array_count_past_end_rejected_by_generic(self, telemetry_fmt, count):
        wire = self.hostile_count_wire(telemetry_fmt, count)
        with pytest.raises(DecodeError):
            decode_record(telemetry_fmt, wire)

    @pytest.mark.parametrize("count", [3, 1000, 2**28, 2**31 - 1])
    def test_array_count_past_end_rejected_by_specialized(self, telemetry_fmt, count):
        wire = self.hostile_count_wire(telemetry_fmt, count)
        with pytest.raises(DecodeError):
            codegen.make_decoder(telemetry_fmt)(wire)

    def test_string_length_past_end_rejected_on_both_paths(self):
        fmt = IOFormat("Named", [IOField("name", "string")], version="1.0")
        wire = bytearray(encode_record(fmt, {"name": "abc"}))
        struct.pack_into("<I", wire, HEADER_SIZE, 2**31 - 1)
        wire = bytes(wire)
        with pytest.raises(DecodeError):
            decode_record(fmt, wire)
        with pytest.raises(DecodeError):
            codegen.make_decoder(fmt)(wire)

    def test_zero_size_element_count_is_capped(self):
        # An element that occupies zero wire bytes gives no byte budget to
        # check against; the decoder must still bound the count.
        sub = IOFormat("Empty", [
            IOField("pad", "unsigned", 1, array=ArraySpec(fixed_length=0)),
        ])
        fmt = IOFormat("Caps", [
            IOField("n", "integer", 4),
            IOField("items", "complex", subformat=sub,
                    array=ArraySpec(length_field="n")),
        ])
        wire = bytearray(encode_record(fmt, {"n": 0, "items": []}))
        struct.pack_into("<i", wire, HEADER_SIZE, 2**30)
        wire = bytes(wire)
        with pytest.raises(DecodeError):
            decode_record(fmt, wire)
        with pytest.raises(DecodeError):
            codegen.make_decoder(fmt)(wire)
