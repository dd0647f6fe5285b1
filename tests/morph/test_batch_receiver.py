"""MorphReceiver.process_batch — a frame through the one receive loop.

``process`` is a frame of one and ``process_batch`` the frame
``unpack_batch`` returns; both run the same loop.  The conftest's autouse
fixture runs every test here against both the fused and the staged
pipeline, so each assertion doubles as a fused-vs-staged equivalence
check.

The core contracts:

* a frame is observationally identical to its messages sent one by one —
  results, records, order, every ``morph.receiver.*`` counter, every
  dead letter — whether or not failures are contained and whether or not
  ``repro.obs`` is watching (the parity matrix);
* nothing is carried from one segment of a frame to the next: a route
  replaced or a format quarantined mid-frame takes effect at the next
  segment, as it does between two ``process`` calls;
* records decoded from a shared frame buffer never alias it — mutating
  the buffer after decode must not change a delivered record;
* hostile frames are clean :class:`~repro.errors.DecodeError`\\ s;
* with containment on, a poisoned message dead-letters *alone* (with
  its own copy of the bytes) while the rest of the batch delivers.
"""

import sys

import pytest

from repro import obs
from repro.errors import DecodeError
from repro.morph.receiver import MorphReceiver
from repro.net.batch import pack_batch
from repro.pbio import buffer as pbio_buffer
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

EVT = IOFormat(
    "BatchEvt",
    [IOField("n", "integer"), IOField("tag", "string")],
    version="1.0",
)
EVT_V2 = IOFormat(
    "ChainEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="2.0",
)
EVT_V1 = IOFormat(
    "ChainEvt", [IOField("n", "integer")], version="1.0"
)
EVT_V0 = IOFormat(
    "ChainEvt", [IOField("m", "integer")], version="0.0"
)
V2_TO_V1 = TransformSpec(
    source=EVT_V2, target=EVT_V1, code="old.n = new.n;",
    description="ChainEvt 2.0 -> 1.0",
)
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0, code="old.m = new.n * 2;",
    description="ChainEvt 1.0 -> 0.0",
)
STRANGER = IOFormat("Stranger", [IOField("x", "integer")], version="1.0")


def make_receiver(fmt, got, **kwargs):
    receiver = MorphReceiver(registry=FormatRegistry(), **kwargs)
    receiver.register_handler(fmt, got.append)
    return receiver


def encode_all(registry, fmt, records):
    ctx = PBIOContext(registry)
    return [ctx.encode(fmt, r) for r in records]


# ---------------------------------------------------------------------------
# The parity matrix: one frame == its messages one by one
# ---------------------------------------------------------------------------


def _matrix_wires(contain):
    """Identity traffic, a V2 -> V1 -> V0 chain, the two interleaved, a
    big-endian wire — and, when failures are contained, a truncated
    segment, a format nobody registered and a record whose handler
    raises."""
    registry = FormatRegistry()
    little = PBIOContext(registry)
    big = PBIOContext(registry, byte_order="big")
    wires = []
    for i in range(4):
        wires.append(little.encode(EVT, EVT.make_record(n=i, tag=f"t{i}")))
        wires.append(little.encode(EVT_V2, EVT_V2.make_record(n=i, extra=7)))
    wires.append(big.encode(EVT_V2, EVT_V2.make_record(n=40, extra=1)))
    wires.append(big.encode(EVT, EVT.make_record(n=41, tag="big")))
    wires.append(little.encode(EVT_V1, EVT_V1.make_record(n=50)))
    if contain:
        wires.insert(3, wires[2][:-2])
        wires.insert(6, little.encode(STRANGER, {"x": 1}))
        wires.insert(9, little.encode(EVT, EVT.make_record(n=13, tag="bad")))
    return wires


def _matrix_arm(contain, wires, batched):
    """A fresh receiver (identity handler + the end of the chain) fed
    *wires* one ``process`` at a time or as one ``process_batch`` frame
    whose buffer is overwritten afterwards."""
    receiver = MorphReceiver(FormatRegistry(), contain_failures=contain)
    receiver.registry.register_transform(V2_TO_V1)
    receiver.registry.register_transform(V1_TO_V0)
    delivered = []

    def on_evt(record):
        if record["n"] == 13:
            raise ValueError("handler bug")
        delivered.append(record)
        return ("evt", record["n"])

    def on_v0(record):
        delivered.append(record)
        return ("v0", record["m"])

    receiver.register_handler(EVT, on_evt)
    receiver.register_handler(EVT_V0, on_v0)
    if batched:
        frame = bytearray(pack_batch(wires))
        results = receiver.process_batch(frame)
        frame[:] = b"\xee" * len(frame)
    else:
        results = [receiver.process(wire) for wire in wires]
    spans = sorted(span.name for span in obs.get_tracer().spans())
    obs.get_tracer().clear()
    return {
        "results": results,
        "delivered": delivered,
        "stats": receiver.stats.snapshot(),
        "containment": dict(receiver.containment),
        "dead_letters": [
            (letter.stage, letter.format_id, letter.data)
            for letter in receiver.dead_letters
        ],
        "spans": spans,
    }


class TestFrameEqualsOneByOne:
    @pytest.mark.parametrize("observe", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("contain", [False, True], ids=["raising", "contained"])
    def test_parity_matrix(self, contain, observe):
        wires = _matrix_wires(contain)
        if observe:
            obs.enable(registry=obs.Registry(), capacity=4096)
        try:
            single = _matrix_arm(contain, wires, batched=False)
            batch = _matrix_arm(contain, wires, batched=True)
        finally:
            obs.disable(reset=True)
        assert batch == single
        # ... and the arms did what the wire list says, not nothing twice
        assert single["stats"]["messages"] == len(wires) - (1 if contain else 0)
        assert single["stats"]["morphed"] == 6
        assert [r["m"] for r in single["delivered"] if "m" in r] == [
            0, 2, 4, 6, 80, 100,
        ]
        assert bool(single["spans"]) == observe
        if contain:
            assert [stage for stage, _id, _data in single["dead_letters"]] == [
                "decode", "unknown_format", "dispatch",
            ]
            # the letters own their bytes: the frame buffer is gone
            assert [data for _stage, _id, data in batch["dead_letters"]] == [
                wires[3], wires[6], wires[9],
            ]
            assert single["results"].count(None) == 3

    def test_a_route_replaced_mid_frame_serves_the_next_segment(self):
        """A handler that registers a better format on its first event
        clears the route cache; the rest of the *same frame* must reach
        the new handler intact, as the rest of a per-message stream
        does — a route hoisted across the run delivered all of it to the
        stale handler with a field dropped."""

        def arm(batched):
            receiver = MorphReceiver(FormatRegistry())
            receiver.registry.register(EVT_V2)
            seen = []

            def on_v2(record):
                seen.append(("v2", dict(record)))

            def on_v1(record):
                seen.append(("v1", dict(record)))
                if len(seen) == 2:  # the first event of the frame
                    receiver.register_handler(EVT_V2, on_v2)

            receiver.register_handler(EVT_V1, on_v1)
            wires = encode_all(
                FormatRegistry(), EVT_V2,
                [EVT_V2.make_record(n=i, extra=i * 7) for i in range(5)],
            )
            receiver.process(wires[0])  # warm the V2 -> V1 reconcile route
            if batched:
                receiver.process_batch(pack_batch(wires[1:]))
            else:
                for wire in wires[1:]:
                    receiver.process(wire)
            return seen, receiver.stats.snapshot()

        seen, stats = arm(batched=True)
        assert (seen, stats) == arm(batched=False)
        assert [who for who, _record in seen] == ["v1", "v1", "v2", "v2", "v2"]
        assert seen[2][1] == {"n": 2, "extra": 14}
        assert stats["perfect_matches"] == 3
        assert stats["reconciled"] == 2
        assert stats["cache_misses"] == 2

    def test_a_format_quarantined_mid_frame_is_dropped_from_the_next_segment(self):
        def arm(batched):
            receiver = make_receiver(
                EVT, [], contain_failures=True, quarantine_threshold=2
            )
            wires = encode_all(FormatRegistry(), STRANGER, [{"x": i} for i in range(5)])
            if batched:
                receiver.process_batch(pack_batch(wires))
            else:
                for wire in wires:
                    receiver.process(wire)
            return dict(receiver.containment), receiver.stats.snapshot()

        containment, stats = arm(batched=True)
        assert (containment, stats) == arm(batched=False)
        assert containment["dead_lettered"] == 2
        assert containment["quarantined_formats"] == 1
        assert containment["quarantine_drops"] == 3
        assert stats["messages"] == 2  # drops stop at the header peek

    @pytest.mark.parametrize("use_fusion, parses", [(True, 1), (False, 2)])
    def test_a_message_parses_its_header_once(
        self, monkeypatch, use_fusion, parses
    ):
        """The loop parses a segment's header once and hands it on; a
        staged route's ``decode_as`` parses it a second time."""
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        receiver = MorphReceiver(
            registry, use_fusion=use_fusion, contain_failures=True
        )
        receiver.register_handler(EVT_V1, lambda record: None)
        (wire,) = encode_all(registry, EVT_V2, [EVT_V2.make_record(n=1, extra=2)])
        receiver.process(wire)  # plan and compile off the count
        original = pbio_buffer.unpack_header
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):  # ``from ... import`` copies
            if getattr(module, "unpack_header", None) is original:
                monkeypatch.setattr(module, "unpack_header", counted)
        receiver.process(wire)
        assert len(calls) == parses
        receiver.process_batch(pack_batch([wire] * 8))
        assert len(calls) == parses * 9


# ---------------------------------------------------------------------------
# Single-shape checks with absolute expectations
# ---------------------------------------------------------------------------


class TestParityWithPerMessageProcessing:
    def test_identity_traffic_records_and_counters_match(self):
        records = [
            EVT.make_record(n=i, tag=f"t{i}") for i in range(17)
        ]
        got_single, got_batch = [], []
        single = make_receiver(EVT, got_single)
        batched = make_receiver(EVT, got_batch)
        wires = encode_all(single.registry, EVT, records)
        for wire in wires:
            single.process(wire)
        batched.process_batch(pack_batch(wires))
        assert got_batch == got_single == records
        assert batched.stats.snapshot() == single.stats.snapshot()
        assert batched.stats.messages == len(records)

    def test_morph_chain_records_and_counters_match(self):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        got_single, got_batch = [], []
        single = MorphReceiver(registry=registry)
        single.register_handler(EVT_V1, got_single.append)
        batched = MorphReceiver(registry=FormatRegistry())
        batched.registry.register_transform(V2_TO_V1)
        batched.register_handler(EVT_V1, got_batch.append)
        wires = encode_all(
            registry, EVT_V2,
            [EVT_V2.make_record(n=i, extra=i * 7) for i in range(9)],
        )
        for wire in wires:
            single.process(wire)
        batched.process_batch(pack_batch(wires))
        assert got_batch == got_single
        assert [r["n"] for r in got_batch] == list(range(9))
        assert batched.stats.snapshot() == single.stats.snapshot()
        assert batched.stats.morphed == 9

    def test_mixed_formats_inside_one_frame(self):
        """Alternating format ids: the route is read per segment."""
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        got = []
        receiver = MorphReceiver(registry=registry)
        receiver.register_handler(EVT, got.append)
        receiver.register_handler(EVT_V1, got.append)
        ctx = PBIOContext(registry)
        wires = []
        for i in range(8):
            wires.append(ctx.encode(EVT, EVT.make_record(n=i, tag="x")))
            wires.append(
                ctx.encode(EVT_V2, EVT_V2.make_record(n=i, extra=1))
            )
        receiver.process_batch(pack_batch(wires))
        assert len(got) == 16
        assert receiver.stats.messages == 16
        assert receiver.stats.morphed == 8

    def test_parity_holds_with_observability_enabled(self):
        obs.enable(registry=obs.Registry())
        try:
            records = [EVT.make_record(n=i, tag="o") for i in range(5)]
            got_single, got_batch = [], []
            single = make_receiver(EVT, got_single)
            batched = make_receiver(EVT, got_batch)
            wires = encode_all(single.registry, EVT, records)
            for wire in wires:
                single.process(wire)
            batched.process_batch(pack_batch(wires))
            assert got_batch == got_single == records
            assert batched.stats.snapshot() == single.stats.snapshot()
        finally:
            obs.disable(reset=True)

    def test_interpretive_receiver_takes_the_fallback_path(self):
        """``use_codegen=False`` (generic decode, interpreted transforms)
        is a route property, not a second loop."""
        records = [EVT.make_record(n=i, tag="i") for i in range(6)]
        got = []
        receiver = make_receiver(EVT, got, use_codegen=False)
        wires = encode_all(receiver.registry, EVT, records)
        receiver.process_batch(pack_batch(wires))
        assert got == records
        assert receiver.stats.messages == len(records)


class TestZeroCopyAliasing:
    def test_records_survive_buffer_mutation_after_decode(self):
        """Decoded records must own their values: scribbling over the
        shared frame buffer after process_batch returns cannot reach
        them.  (Runs on both decode paths via the pipeline fixture.)"""
        records = [
            EVT.make_record(n=i, tag=f"payload-{i}" * 3) for i in range(6)
        ]
        got = []
        receiver = make_receiver(EVT, got)
        wires = encode_all(receiver.registry, EVT, records)
        frame = bytearray(pack_batch(wires))
        receiver.process_batch(frame)
        frame[:] = b"\xff" * len(frame)  # poison the shared buffer
        assert got == records
        assert [r["tag"] for r in got] == [f"payload-{i}" * 3 for i in range(6)]

    def test_morphed_records_survive_buffer_mutation(self):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        got = []
        receiver = MorphReceiver(registry=registry)
        receiver.register_handler(EVT_V1, got.append)
        wires = encode_all(
            registry, EVT_V2,
            [EVT_V2.make_record(n=i, extra=i) for i in range(4)],
        )
        frame = bytearray(pack_batch(wires))
        receiver.process_batch(frame)
        frame[:] = b"\x00" * len(frame)
        assert [r["n"] for r in got] == list(range(4))


class TestHostileBatchFrames:
    def _wires(self):
        receiver = make_receiver(EVT, [])
        return receiver, encode_all(
            receiver.registry, EVT,
            [EVT.make_record(n=i, tag="h") for i in range(3)],
        )

    def test_truncated_frame_raises_decode_error(self):
        receiver, wires = self._wires()
        frame = pack_batch(wires)
        with pytest.raises(DecodeError):
            receiver.process_batch(frame[:-3])

    def test_corrupt_inner_message_raises_decode_error(self):
        receiver, wires = self._wires()
        # truncate the middle message *before* framing: the frame itself
        # is valid, the contained message is not
        broken = [wires[0], wires[1][:-2], wires[2]]
        with pytest.raises(DecodeError):
            receiver.process_batch(pack_batch(broken))

    def test_counters_match_per_message_arm_up_to_the_failure(self):
        """A mid-batch decode failure leaves the same counter trail the
        per-message loop would: the two good-then-failing messages are
        counted, the never-reached tail is not."""
        receiver, wires = self._wires()
        broken = [wires[0], wires[1][:-2], wires[2]]
        with pytest.raises(DecodeError):
            receiver.process_batch(pack_batch(broken))
        reference = make_receiver(EVT, [])
        reference.registry  # same planning inputs as `receiver`
        for wire in broken:
            try:
                reference.process(wire)
            except DecodeError:
                break
        assert receiver.stats.snapshot() == reference.stats.snapshot()


class TestContainment:
    def test_poisoned_message_dead_letters_alone(self):
        records = [EVT.make_record(n=i, tag="c") for i in range(5)]
        got = []
        receiver = make_receiver(EVT, got, contain_failures=True)
        wires = encode_all(receiver.registry, EVT, records)
        wires[2] = wires[2][:-4]  # poison the middle message
        frame = bytearray(pack_batch(wires))
        results = receiver.process_batch(frame)
        assert [r["n"] for r in got] == [0, 1, 3, 4]
        assert len(results) == 5 and results[2] is None
        letters = receiver.dead_letters
        assert len(letters) == 1
        assert letters[0].stage == "decode"

    def test_dead_letter_owns_its_bytes(self):
        """The DLQ must copy out of the shared frame buffer — a retry
        after the buffer is reused has to see the original bytes."""
        got = []
        receiver = make_receiver(EVT, got, contain_failures=True)
        wires = encode_all(
            receiver.registry, EVT, [EVT.make_record(n=7, tag="keep")]
        )
        poisoned = wires[0][:-4]
        frame = bytearray(pack_batch([poisoned]))
        receiver.process_batch(frame)
        (letter,) = receiver.dead_letters
        saved = bytes(letter.data)
        frame[:] = b"\xee" * len(frame)
        assert bytes(letter.data) == saved == poisoned

    def test_malformed_frame_dead_letters_whole(self):
        receiver = make_receiver(EVT, [], contain_failures=True)
        wires = encode_all(
            receiver.registry, EVT, [EVT.make_record(n=1, tag="f")]
        )
        assert receiver.process_batch(pack_batch(wires)[:-1]) == []
        (letter,) = receiver.dead_letters
        assert letter.stage == "decode"
