"""Dead-letter queue and poison-message quarantine.

:meth:`MorphReceiver.process` is a total function: every failure class
lands in the bounded DLQ with its pipeline stage attached, repeat
offenders are quarantined at the header peek, and
:meth:`retry_dead_letters` drains the queue once the cause is fixed.
"""

import pytest

from repro import obs
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

EVT = IOFormat("DlqEvt", [IOField("n", "integer")], version="1.0")
EVT_WIDE = IOFormat(
    "DlqEvt",
    [IOField("n", "integer"), IOField("pad", "integer")],
    version="2.0",
)
OTHER = IOFormat("DlqOther", [IOField("s", "string")], version="1.0")


def make_receiver(monkeypatch=None, limits=(), **options):
    """A sender and a receiver on one registry; *limits* set the
    receiver's class constants (``DLQ_LIMIT``, ``QUARANTINE_THRESHOLD``)
    for the test."""
    for name, value in dict(limits).items():
        monkeypatch.setattr(MorphReceiver, name, value)
    registry = FormatRegistry()
    return PBIOContext(registry), MorphReceiver(registry, **options)


class TestContainment:
    def test_unknown_format_dead_letters_instead_of_raising(self):
        _sender, receiver = make_receiver()
        foreign = PBIOContext()  # private registry: receiver can't know it
        wire = foreign.encode(EVT, {"n": 1})
        assert receiver.process(wire) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "unknown_format"
        assert letter.format_id == EVT.format_id
        assert letter.data == wire
        assert receiver.containment["dead_lettered"] == 1

    def test_garbage_bytes_classify_as_decode(self):
        _sender, receiver = make_receiver()
        assert receiver.process(b"\x01") is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "decode"
        assert letter.format_id is None

    def test_rejected_match_classifies_as_no_match(self):
        sender, receiver = make_receiver(
            diff_threshold=0, mismatch_threshold=0.0
        )
        receiver.register_handler(OTHER, lambda record: record)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "no_match"

    def test_handler_exception_classifies_as_dispatch(self):
        sender, receiver = make_receiver()

        def bad_handler(record):
            raise ValueError("application bug")

        receiver.register_handler(EVT, bad_handler)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "dispatch"
        assert "application bug" in letter.error

    def test_stage_survives_a_handler_that_re_enters_the_receiver(self):
        # the stage is a local of the receive loop: the inner process()
        # call (which succeeds) cannot reset it for the outer message
        sender, receiver = make_receiver()
        inner = []
        receiver.register_handler(OTHER, lambda record: inner.append(record.s))
        other_wire = sender.encode(OTHER, {"s": "nested"})

        def re_entrant_handler(record):
            receiver.process(other_wire)
            raise ValueError("application bug")

        receiver.register_handler(EVT, re_entrant_handler)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        assert inner == ["nested"]
        (letter,) = receiver.dead_letters
        assert letter.stage == "dispatch"
        assert letter.format_id == EVT.format_id

    @pytest.mark.parametrize("use_fusion", [True, False])
    def test_float_overflow_in_a_transform_classifies_as_transform(
        self, use_fusion
    ):
        # OverflowError is one of the escapes of generated ECode: a fused
        # route that let it through raw was dead-lettered as "decode"
        sender, receiver = make_receiver(use_fusion=use_fusion)
        receiver.registry.register_transform(
            TransformSpec(EVT_WIDE, EVT, "old.n = exp(1000.0) + new.n;")
        )
        receiver.register_handler(EVT, lambda record: record)
        assert receiver.process(sender.encode(EVT_WIDE, {"n": 1, "pad": 0})) is None
        assert (receiver.route_for(EVT_WIDE).fused is not None) == use_fusion
        (letter,) = receiver.dead_letters
        assert letter.stage == "transform"

    def test_healthy_traffic_flows_around_failures(self):
        sender, receiver = make_receiver()
        seen = []
        receiver.register_handler(EVT, lambda record: seen.append(record.n))
        receiver.process(sender.encode(EVT, {"n": 1}))
        receiver.process(b"\xff\xff")  # poison
        receiver.process(sender.encode(EVT, {"n": 2}))
        assert seen == [1, 2]
        assert len(receiver.dead_letters) == 1


class TestBoundedQueue:
    def test_capacity_evicts_oldest_and_counts(self, monkeypatch):
        _sender, receiver = make_receiver(
            monkeypatch, limits=dict(DLQ_LIMIT=3))
        foreign = PBIOContext()
        wires = [foreign.encode(EVT, {"n": n}) for n in range(5)]
        for wire in wires[:3]:  # stay under the quarantine threshold?
            receiver.process(wire)
        # 3 strikes quarantined the format: later copies are dropped at
        # the header peek, not dead-lettered -- use garbage to overflow
        receiver.process(b"junk-a")
        receiver.process(b"junk-b")
        letters = receiver.dead_letters
        assert len(letters) == 3  # bounded
        assert receiver.containment["evicted"] == 2
        # oldest first: the first two format failures were evicted
        assert [l.stage for l in letters] == [
            "unknown_format", "decode", "decode",
        ]


class TestQuarantine:
    def test_repeat_offender_is_quarantined_and_dropped_cheaply(
        self, monkeypatch
    ):
        _sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=3))
        foreign = PBIOContext()
        wire = foreign.encode(EVT, {"n": 7})
        for _ in range(3):
            receiver.process(wire)
        assert EVT.format_id in receiver.quarantined_formats
        assert receiver.containment["quarantined_formats"] == 1
        dead_before = receiver.containment["dead_lettered"]
        for _ in range(10):
            receiver.process(wire)
        # quarantined traffic is counted and dropped, not dead-lettered
        assert receiver.containment["quarantine_drops"] == 10
        assert receiver.containment["dead_lettered"] == dead_before

    def test_a_success_resets_the_count_failures_must_be_consecutive(
        self, monkeypatch
    ):
        # three bad events in a reader's *lifetime* used to cut its
        # format off for good: the count was never reset by a success
        wide = IOFormat(
            "Ratio", [IOField("x", "integer"), IOField("d", "integer")],
            version="2.0",
        )
        narrow = IOFormat("Ratio", [IOField("q", "integer")], version="1.0")
        sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=3))
        receiver.registry.register_transform(
            TransformSpec(wide, narrow, "old.q = new.x / new.d;")
        )
        seen = []
        receiver.register_handler(narrow, lambda record: seen.append(record.q))
        for d in (0, 1, 1, 0, 1, 1, 0, 1, 1):
            receiver.process(sender.encode(wide, {"x": 6, "d": d}))
        assert seen == [6] * 6
        assert [l.stage for l in receiver.dead_letters] == ["transform"] * 3
        assert receiver.containment["quarantined_formats"] == 0
        assert receiver.containment["quarantine_drops"] == 0
        # three in a row still quarantine
        for _ in range(3):
            receiver.process(sender.encode(wide, {"x": 6, "d": 0}))
        assert wide.format_id in receiver.quarantined_formats

    def test_quarantine_does_not_disturb_healthy_formats(self, monkeypatch):
        sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=2))
        seen = []
        receiver.register_handler(OTHER, lambda record: seen.append(record.s))
        foreign = PBIOContext()
        poison = foreign.encode(EVT, {"n": 0})
        receiver.process(poison)
        receiver.process(sender.encode(OTHER, {"s": "a"}))
        receiver.process(poison)
        assert EVT.format_id in receiver.quarantined_formats
        receiver.process(sender.encode(OTHER, {"s": "b"}))
        assert seen == ["a", "b"]

    def test_lift_quarantine_resets_the_failure_count(self, monkeypatch):
        _sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=2))
        foreign = PBIOContext()
        wire = foreign.encode(EVT, {"n": 1})
        receiver.process(wire)
        receiver.process(wire)
        assert receiver.lift_quarantine(EVT.format_id)
        assert EVT.format_id not in receiver.quarantined_formats
        # the slate is clean: one more failure does not re-quarantine
        receiver.process(wire)
        assert EVT.format_id not in receiver.quarantined_formats
        assert not receiver.lift_quarantine(EVT.format_id)

    def test_process_alone_judges_every_message(self, monkeypatch):
        """Each message through ``process_alone`` runs the pipeline and
        reports its own dead letter, past the threshold and through a
        quarantine live traffic set; its failure leaves the format
        unquarantined."""
        _sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=2))
        wire = PBIOContext().encode(EVT, {"n": 1})
        for _ in range(3):
            result, letter = receiver.process_alone(wire)
            assert result is None and letter.stage == "unknown_format"
        assert receiver.quarantined_formats == set()
        receiver.process(wire)
        receiver.process(wire)
        assert EVT.format_id in receiver.quarantined_formats
        _result, letter = receiver.process_alone(wire)
        assert letter is receiver.dead_letters[-1]
        assert receiver.containment["quarantine_drops"] == 0
        assert receiver.quarantined_formats == set()


class TestRetry:
    def test_retry_succeeds_after_late_registration(self, monkeypatch):
        sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=2))
        foreign = PBIOContext()
        wires = [foreign.encode(EVT, {"n": n}) for n in range(3)]
        for wire in wires:
            receiver.process(wire)
        assert EVT.format_id in receiver.quarantined_formats
        assert len(receiver.dead_letters) == 2  # third copy was dropped

        # the fix arrives: the reader learns the format
        seen = []
        receiver.register_handler(EVT, lambda record: seen.append(record.n))
        succeeded, requeued = receiver.retry_dead_letters()
        assert (succeeded, requeued) == (2, 0)
        assert seen == [0, 1]
        assert receiver.dead_letters == []
        assert EVT.format_id not in receiver.quarantined_formats
        # and live traffic for the format flows again
        receiver.process(sender.encode(EVT, {"n": 9}))
        assert seen == [0, 1, 9]

    def test_retry_requeues_still_broken_messages_with_attempts(self):
        _sender, receiver = make_receiver()
        receiver.process(b"forever-broken")
        succeeded, requeued = receiver.retry_dead_letters()
        assert (succeeded, requeued) == (0, 1)
        (letter,) = receiver.dead_letters
        assert letter.attempts == 2
        assert receiver.containment["retry_failures"] == 1

    def test_retry_bypasses_quarantine_for_the_retried_entries_only(
        self, monkeypatch
    ):
        # "retrying" is an argument of the loop, not receiver state: a
        # handler that re-enters process() during a retry pass is live
        # traffic, and a quarantined format is still dropped at its peek
        sender, receiver = make_receiver(
            monkeypatch, limits=dict(QUARANTINE_THRESHOLD=2, DLQ_LIMIT=1))
        poison = PBIOContext().encode(OTHER, {"s": "x"})  # never registered
        receiver.process(poison)
        receiver.process(poison)
        assert OTHER.format_id in receiver.quarantined_formats
        broken = [True]

        def handler(record):
            if broken[0]:
                raise ValueError("not deployed yet")
            return receiver.process(poison)

        receiver.register_handler(EVT, handler)
        receiver.process(sender.encode(EVT, {"n": 1}))  # evicts the poison
        assert [l.format_id for l in receiver.dead_letters] == [EVT.format_id]
        broken[0] = False
        assert receiver.retry_dead_letters() == (1, 0)
        assert receiver.dead_letters == []
        assert OTHER.format_id in receiver.quarantined_formats
        assert receiver.containment["quarantine_drops"] == 1

    def test_obs_counters_record_the_dlq_lifecycle(self):
        prior = (obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer)
        registry = obs.metrics.Registry()
        obs.enable(registry=registry)
        try:
            _sender, receiver = make_receiver()
            foreign = PBIOContext()
            receiver.process(foreign.encode(EVT, {"n": 1}))
            assert (
                registry.counter(
                    "morph.receiver.dead_letters", stage="unknown_format"
                ).value
                == 1
            )
            receiver.register_handler(EVT, lambda record: record)
            receiver.retry_dead_letters()
            assert registry.counter("morph.receiver.dlq_retried").value == 1
        finally:
            obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer = prior
