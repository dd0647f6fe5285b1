"""Readers of one event handed its wires: wire route ≡ staged + encode.

``MorphReceiver.process(data, wires)`` hands a reader's handler its
format's *wire* of the event, made wire to wire with no record built
(or cut from a sibling format's wire, or the payload itself, checked)
and kept in a table of wires the caller makes per event and passes to
every reader of it (the fabric owner is N readers of one wire).  Nothing
a reader does or reports may depend on it:

* over valid, big-endian, truncated, unknown-format, garbage and
  runtime-failing wires — repeat offenders quarantined or not, observed
  or not, compiled or interpreted — ``for r in readers: r.process(w,
  table)`` makes the handler calls, in the order and with the bytes, of
  ``for r in readers: r.process(w)`` with handlers that encode their
  record, and leaves every reader with the same stats, containment
  counters, dead letters and quarantine set;
* a transform that writes its *input* changes nothing another reader
  delivers;
* a wire that fails is not stored: every reader that needs it fails
  itself, under its own stage.

The test ids name the shared stage memo this table replaced.  The
conftest's autouse fixture runs all of it with fused and with staged
receivers (a staged receiver makes every wire staged).
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
from repro.morph import receiver as receiver_mod
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
    """One receiver per reader format, all logging ``(version, wire)``
    into one list: handed the wire (*wired*), or encoding the record
    they are handed, in the handler, in native order."""

    def __init__(self, formats, registry, wired=False, **options):
        self.calls = []
        self.readers = []
        self.wired = wired
        writer = PBIOContext(registry)
        for fmt in formats:
            receiver = MorphReceiver(registry, **options)
            receiver.register_handler(
                fmt,
                (lambda wire, v=fmt.version: self.calls.append((v, wire)))
                if wired else
                (lambda record, v=fmt.version, f=fmt: self.calls.append(
                    (v, writer.encode(f, record)))),
            )
            self.readers.append(receiver)
        self.formats = [fmt.format_id for fmt in formats]

    def feed(self, wire):
        """The wire through every reader; what each call did, and the
        event's table of wires (``None`` unless *wired*)."""
        table = dict.fromkeys(self.formats) if self.wired else None
        outcomes = []
        for receiver in self.readers:
            try:
                outcomes.append(("ok", receiver.process(wire, table)))
            except Exception as exc:  # noqa: BLE001 - compared by class
                outcomes.append(("raised", type(exc)))
        return outcomes, table

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
    """Wire route ≡ staged + encode.  The ids are historical (the
    receiver raises nothing; the memo is now a table of wires): for
    ``raising`` quarantine never trips, so every failure runs to the
    dead letter; for ``contained`` repeat offenders are quarantined."""
    if not contain:
        monkeypatch.setattr(MorphReceiver, "QUARANTINE_THRESHOLD", 10**9)
    plain = Fleet(READER_SETS[readers], make_registry(),
                  use_codegen=use_codegen)
    wired = Fleet(READER_SETS[readers], make_registry(), wired=True,
                  use_codegen=use_codegen)
    for index, wire in enumerate(wires()):
        expected, _ = plain.feed(wire)
        got, _table = wired.feed(wire)
        assert got == expected, index
        assert wired.calls == plain.calls, index
    assert wired.state() == plain.state()
    # the stream did exercise what it claims to
    delivered = [version for version, _wire in plain.calls]
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


def warm(fleet):
    """One good wire through *fleet*: its routes' first message (each
    route goes wire to wire from its second on)."""
    fleet.feed(wires()[0])
    fleet.calls.clear()


def encode(fmt, record):
    return PBIOContext().encode(fmt, record)


class TestWhatIsShared:
    def test_one_decode_and_each_step_once(self, pipeline_mode):
        """The table ends holding each format's wire once: the payload
        (checked, handed on), the v1.0 wire and the v0.0 wire cut from
        it; each reader was handed the table's own object."""
        fleet = Fleet(READER_SETS["v2-v1-v0"], make_registry(), wired=True)
        warm(fleet)
        wire = wires()[0]
        _outcomes, table = fleet.feed(wire)
        record = PBIOContext().decode_as(RESPONSE_V2, wire)
        v1_to_v0 = fleet.readers[2].route_for(RESPONSE_V2).chain.steps[-1]
        assert v1_to_v0.projection is not None
        v1 = fleet.readers[1].route_for(RESPONSE_V2).chain.apply(record)
        assert table == {
            RESPONSE_V2.format_id: wire,
            RESPONSE_V1.format_id: encode(RESPONSE_V1, v1),
            RESPONSE_V0.format_id: encode(RESPONSE_V0, v1_to_v0.apply(v1)),
        }
        assert [called for _v, called in fleet.calls] == [
            table[fmt] for fmt in fleet.formats
        ]
        assert all(called is table[fmt] for (_v, called), fmt in zip(
            fleet.calls, fleet.formats))
        assert fleet.calls[0][1] is wire

    def test_an_inner_node_without_a_reader_is_still_one_step(self):
        """With no v1.0 reader the table lists no v1.0 wire to cut
        from: the v0.0 reader makes its wire whole."""
        fleet = Fleet(READER_SETS["v2-v0"], make_registry(), wired=True)
        warm(fleet)
        _outcomes, table = fleet.feed(wires()[0])
        assert sorted(table) == sorted(fleet.formats)
        assert all(wire is not None for wire in table.values())

    def test_a_reader_alone_with_a_memo_fills_it(self):
        fleet = Fleet((RESPONSE_V0,), make_registry(), wired=True)
        _outcomes, table = fleet.feed(wires()[0])
        assert len(table) == 1 and len(fleet.calls) == 1
        assert fleet.calls[0][1] is table[RESPONSE_V0.format_id]

    def test_without_a_memo_a_fused_route_still_runs(self, pipeline_mode):
        fleet = Fleet((RESPONSE_V0,), make_registry())
        fleet.feed(wires()[0])
        route = fleet.readers[0].route_for(RESPONSE_V2)
        assert (route.fused is not None) == (pipeline_mode == "fused")
        # nothing is planned wire to wire for a reader handed records
        assert route.wire is receiver_mod._UNPLANNED


class TestAStepThatWritesItsInput:
    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_the_other_readers_deliver_what_they_would_alone(self, use_codegen):
        # v1.0 first: its transform vandalises its own input, which no
        # row can take (it runs staged), and no sibling is handed it
        order = (RESPONSE_V1, RESPONSE_V2, RESPONSE_V0)
        plain = Fleet(order, make_registry(WRITES_ITS_INPUT),
                      use_codegen=use_codegen)
        wired = Fleet(order, make_registry(WRITES_ITS_INPUT), wired=True,
                      use_codegen=use_codegen)
        for wire in wires()[:4]:
            plain.feed(wire)
            wired.feed(wire)
        assert wired.calls == plain.calls
        v2_seen = [PBIOContext().decode_as(RESPONSE_V2, w)
                   for version, w in wired.calls if version == "2.0"]
        assert all(r["member_count"] == len(r["member_list"]) for r in v2_seen)
        assert all(r["member_list"][0]["info"] != "clobbered" for r in v2_seen)
        route = wired.readers[0].route_for(RESPONSE_V2)
        assert route.wire.full is None  # staged: its program writes a row

    def test_figure_5_is_handed_the_shared_record_itself(self, pipeline_mode):
        """Figure 5 takes rows: its route's one routine builds no
        record (the id is historical: the step once read a shared
        record)."""
        fleet = Fleet(READER_SETS["v1-v0"], make_registry(), wired=True)
        warm(fleet)
        fleet.feed(wires()[0])
        route = fleet.readers[0].route_for(RESPONSE_V2)
        if pipeline_mode == "staged":
            assert route.wire.full is None
            return
        source = route.wire.full.source_text("<")
        assert "_new(" not in source and "_R" not in source
        assert fleet.readers[0].stats.fused_messages == 1


class TestFailuresAreNotShared:
    def test_each_reader_fails_in_the_stage_itself(self):
        fleet = Fleet(READER_SETS["v1-v0"], make_registry(), wired=True)
        warm(fleet)
        trap = wires()[1]
        outcomes, table = fleet.feed(trap)
        assert outcomes == [("ok", None), ("ok", None)]
        assert table == dict.fromkeys(fleet.formats)  # nothing was made
        for receiver in fleet.readers:
            (letter,) = receiver.dead_letters
            assert (letter.stage, letter.data) == ("transform", trap)
        assert fleet.calls == []

    def test_a_failed_decode_stores_nothing(self):
        fleet = Fleet(READER_SETS["v2-v1-v0"], make_registry(), wired=True)
        warm(fleet)
        _outcomes, table = fleet.feed(wires()[4])
        assert table == dict.fromkeys(fleet.formats)
        assert [
            receiver.dead_letters[0].stage for receiver in fleet.readers
        ] == ["decode"] * 3

    def test_a_reader_past_the_failure_still_uses_what_was_stored(self):
        """v2.0 needs no transform: it checks the payload the failed
        v1.0 reader could not vouch for, and hands it on (the id names
        the decode it once took from a memo)."""
        fleet = Fleet((RESPONSE_V1, RESPONSE_V2), make_registry(), wired=True)
        warm(fleet)
        trap = wires()[1]
        _outcomes, table = fleet.feed(trap)
        assert fleet.calls == [("2.0", trap)]
        assert table == {RESPONSE_V1.format_id: None,
                         RESPONSE_V2.format_id: trap}
