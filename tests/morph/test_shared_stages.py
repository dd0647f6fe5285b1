"""Readers of one event sharing their stage results: shared ≡ unshared.

``MorphReceiver.process(data, shared)`` lets the receivers a caller
feeds one event's bytes look the payload decode and each transform step
up in a memo before running it (the fabric owner is N readers of one
wire).  Nothing a reader does or reports may depend on it:

* over valid, big-endian, truncated, unknown-format, garbage and
  runtime-failing wires — repeat offenders quarantined or not, observed
  or not, compiled or interpreted — ``for r in readers: r.process(w, memo)`` makes the
  handler calls, in the order and with the records, of ``for r in
  readers: r.process(w)``, and leaves every reader with the same stats,
  containment counters, dead letters and quarantine set;
* a transform that writes its *input* changes nothing another reader
  delivers;
* a stage that fails is not stored: every reader that needs it fails in
  it, under its own stage.

The conftest's autouse fixture runs all of it with fused and with staged
receivers as the unshared side.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.bench.workloads import response_v2
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_CODE,
)
from repro.ecode.runtime import copy_value
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.encode import encode_record
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

#: v0.0 plus a field no revision ever had: reached through the whole
#: chain and then reconciled
RESPONSE_NOTED = IOFormat(
    "ChannelOpenResponse",
    list(RESPONSE_V0.fields) + [IOField("note", "string", default="n/a")],
    version="0.5",
)
FOREIGN = IOFormat("Foreign", [IOField("n", "integer")], version="1.0")

#: Figure 5 behind a guard that traps on seven members: a valid wire
#: whose *transform* fails at run time
FAILS_ON_SEVEN = "int guard = 1 / (7 - new.member_count);\n" + V2_TO_V1_CODE
#: Figure 5, then vandalism of its own input
WRITES_ITS_INPUT = V2_TO_V1_CODE + (
    'new.member_count = 0;\nnew.member_list[0].info = "clobbered";\n'
    "new.member_list[0].ID++;\n"
)

READER_SETS = {
    "v2-v1-v0": (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0),
    "v1-v0": (RESPONSE_V1, RESPONSE_V0),
    # a shared prefix with no reader on the inner node
    "v2-v0": (RESPONSE_V2, RESPONSE_V0),
    "v1-reconciled": (RESPONSE_V1, RESPONSE_NOTED, RESPONSE_V0),
}


def make_registry(v2_to_v1_code=FAILS_ON_SEVEN):
    registry = FormatRegistry()
    registry.register_transform(
        TransformSpec(RESPONSE_V2, RESPONSE_V1, v2_to_v1_code)
    )
    registry.register_transform(V1_TO_V0_TRANSFORM)
    return registry


def wires():
    """A stream with every kind of wire in it, failures interleaved so
    that quarantines (three in a row) both happen and are avoided."""
    sender = PBIOContext(make_registry())
    good = [sender.encode(RESPONSE_V2, response_v2(n)) for n in (1, 4, 2, 9)]
    big = encode_record(RESPONSE_V2, response_v2(3), byte_order="big")
    trap = sender.encode(RESPONSE_V2, response_v2(7))
    foreign = PBIOContext().encode(FOREIGN, {"n": 1})
    return [
        good[0], trap, good[1], big, good[2][:-3], trap, foreign,
        b"\x01garbage", good[3], foreign, foreign, foreign,  # quarantined
        trap, trap, good[0], big[:40], good[1],
    ]


class Fleet:
    """One receiver per reader format, all logging into one list."""

    def __init__(self, formats, registry, **options):
        self.calls = []
        self.readers = []
        for fmt in formats:
            receiver = MorphReceiver(registry, **options)
            receiver.register_handler(
                fmt,
                # a copy: what the handler saw *when* it saw it
                lambda record, v=fmt.version: self.calls.append(
                    (v, copy_value(record))
                ),
            )
            self.readers.append(receiver)

    def feed(self, wire, sharing):
        """The wire through every reader; what each call did."""
        memo = {} if sharing else None
        outcomes = []
        for receiver in self.readers:
            try:
                outcomes.append(("ok", receiver.process(wire, memo)))
            except Exception as exc:  # noqa: BLE001 - compared by class
                outcomes.append(("raised", type(exc)))
        return outcomes, memo

    def state(self):
        return [
            (
                receiver.stats.snapshot(),
                dict(receiver.containment),
                [(l.stage, l.format_id, l.data) for l in receiver.dead_letters],
                receiver.quarantined_formats,
            )
            for receiver in self.readers
        ]


@pytest.fixture(params=["unobserved", "observed"])
def observing(request):
    obs.disable(reset=True)
    if request.param == "observed":
        obs.enable()
    yield request.param == "observed"
    obs.disable(reset=True)


@pytest.mark.parametrize("use_codegen", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("contain", [True, False],
                         ids=["contained", "raising"])
@pytest.mark.parametrize("readers", sorted(READER_SETS))
def test_shared_equals_unshared(
    monkeypatch, readers, contain, use_codegen, observing
):
    """The ids are historical (the receiver raises nothing): for
    ``raising`` quarantine never trips, so every failure runs to the
    dead letter; for ``contained`` repeat offenders are quarantined."""
    if not contain:
        monkeypatch.setattr(MorphReceiver, "QUARANTINE_THRESHOLD", 10**9)
    plain = Fleet(READER_SETS[readers], make_registry(),
                  use_codegen=use_codegen)
    shared = Fleet(READER_SETS[readers], make_registry(),
                   use_codegen=use_codegen)
    for index, wire in enumerate(wires()):
        expected, _ = plain.feed(wire, sharing=False)
        got, _memo = shared.feed(wire, sharing=True)
        assert got == expected, index
        assert shared.calls == plain.calls, index
    assert shared.state() == plain.state()
    # the stream did exercise what it claims to
    delivered = [version for version, _record in plain.calls]
    assert all(delivered.count(f.version) >= 6 for f in READER_SETS[readers])
    stages = {l.stage for r in plain.readers for l in r.dead_letters}
    assert stages >= {"decode", "unknown_format"}
    assert all(
        (FOREIGN.format_id in r.quarantined_formats) == contain
        for r in plain.readers
    )
    assert all(
        RESPONSE_V2.format_id not in r.quarantined_formats
        for r in plain.readers
    )
    if readers == "v1-reconciled":
        assert [r.stats.reconciled > 0 for r in plain.readers] == [
            False, True, False,
        ]


class TestWhatIsShared:
    def test_one_decode_and_each_step_once(self):
        fleet = Fleet(READER_SETS["v2-v1-v0"], make_registry())
        wire = wires()[0]
        _outcomes, memo = fleet.feed(wire, sharing=True)
        v2_to_v1, v1_to_v0 = (key for key in memo if key != RESPONSE_V2.format_id)
        assert len(memo) == 3
        # a key names its input's key, the step's target and its code
        assert v2_to_v1 == (
            RESPONSE_V2.format_id, RESPONSE_V1.format_id, FAILS_ON_SEVEN
        )
        assert v1_to_v0[0] == v2_to_v1
        # the readers were handed the memo's own records
        assert [record for _v, record in fleet.calls] == [
            memo[RESPONSE_V2.format_id], memo[v2_to_v1], memo[v1_to_v0],
        ]

    def test_an_inner_node_without_a_reader_is_still_one_step(self):
        fleet = Fleet(READER_SETS["v2-v0"], make_registry())
        _outcomes, memo = fleet.feed(wires()[0], sharing=True)
        assert len(memo) == 3

    def test_a_reader_alone_with_a_memo_fills_it(self):
        fleet = Fleet((RESPONSE_V0,), make_registry())
        _outcomes, memo = fleet.feed(wires()[0], sharing=True)
        assert len(memo) == 3 and len(fleet.calls) == 1

    def test_without_a_memo_a_fused_route_still_runs(self, pipeline_mode):
        fleet = Fleet((RESPONSE_V0,), make_registry())
        fleet.feed(wires()[0], sharing=False)
        route = fleet.readers[0].route_for(RESPONSE_V2)
        assert (route.fused is not None) == (pipeline_mode == "fused")
        assert "stages" not in vars(route)  # nothing analysed for a lone reader


class TestAStepThatWritesItsInput:
    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_the_other_readers_deliver_what_they_would_alone(self, use_codegen):
        # v1.0 first: its transform has vandalised its input by the time
        # the v2.0 reader is handed "the same" decoded record
        order = (RESPONSE_V1, RESPONSE_V2, RESPONSE_V0)
        plain = Fleet(order, make_registry(WRITES_ITS_INPUT),
                      use_codegen=use_codegen)
        shared = Fleet(order, make_registry(WRITES_ITS_INPUT),
                       use_codegen=use_codegen)
        for wire in wires()[:4]:
            plain.feed(wire, sharing=False)
            shared.feed(wire, sharing=True)
        assert shared.calls == plain.calls
        v2_seen = [r for version, r in shared.calls if version == "2.0"]
        assert all(r["member_count"] == len(r["member_list"]) for r in v2_seen)
        assert all(r["member_list"][0]["info"] != "clobbered" for r in v2_seen)
        ((_key, _step, writes_input),) = (
            shared.readers[0].route_for(RESPONSE_V2).stages
        )
        assert writes_input is True

    def test_figure_5_is_handed_the_shared_record_itself(self):
        fleet = Fleet(READER_SETS["v1-v0"], make_registry())
        fleet.feed(wires()[0], sharing=True)
        for receiver in fleet.readers:
            stages = receiver.route_for(RESPONSE_V2).stages
            assert [writes for _key, _step, writes in stages] == (
                [False] * len(stages)
            )


class TestFailuresAreNotShared:
    def test_each_reader_fails_in_the_stage_itself(self):
        fleet = Fleet(READER_SETS["v1-v0"], make_registry())
        trap = wires()[1]
        outcomes, memo = fleet.feed(trap, sharing=True)
        assert outcomes == [("ok", None), ("ok", None)]
        assert list(memo) == [RESPONSE_V2.format_id]  # the decode succeeded
        for receiver in fleet.readers:
            (letter,) = receiver.dead_letters
            assert (letter.stage, letter.data) == ("transform", trap)
        assert fleet.calls == []

    def test_a_failed_decode_stores_nothing(self):
        fleet = Fleet(READER_SETS["v2-v1-v0"], make_registry())
        _outcomes, memo = fleet.feed(wires()[4], sharing=True)
        assert memo == {}
        assert [
            receiver.dead_letters[0].stage for receiver in fleet.readers
        ] == ["decode"] * 3

    def test_a_reader_past_the_failure_still_uses_what_was_stored(self):
        # v2.0 needs no transform: it delivers from the decode the failed
        # v1.0 reader left in the memo
        fleet = Fleet((RESPONSE_V1, RESPONSE_V2), make_registry())
        _outcomes, memo = fleet.feed(wires()[1], sharing=True)
        assert [version for version, _r in fleet.calls] == ["2.0"]
        assert fleet.calls[0][1] == memo[RESPONSE_V2.format_id]
