"""Failure injection: broken transforms, hostile meta-data, and runtime
faults must degrade gracefully, never silently corrupt."""

import pytest

from repro.bench.workloads import response_v2
from repro.echo.protocol import RESPONSE_V0, RESPONSE_V1, RESPONSE_V2
from repro.errors import EncodeError, NoMatchError, TransformError
from repro.fabric import EventFabric
from repro.morph.receiver import MorphReceiver
from repro.net.transport import Network
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

pytestmark = pytest.mark.integration


class TestBrokenTransforms:
    def test_uncompilable_transform_is_skipped_not_fatal(self):
        """A writer ships syntactically broken ECode: the receiver drops
        that chain, falls back to the next best option, and counts the
        breakage."""
        registry = FormatRegistry()
        registry.add_transform(RESPONSE_V2, RESPONSE_V1, "$$$ not C at all $$$")
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        got = []
        receiver.register_handler(RESPONSE_V0, got.append)
        registry.add_transform(
            RESPONSE_V2,
            RESPONSE_V0,
            """
            int i;
            old.channel_id = new.channel_id;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                old.member_list[i].ID = new.member_list[i].ID;
            }
            """,
        )
        receiver.process(sender.encode(RESPONSE_V2, response_v2(2)))
        assert got and got[0]["member_count"] == 2
        # NB: v2->v1->v0 would also exist if the broken hop compiled; the
        # working direct v2->v0 hop was chosen instead
        assert receiver.stats.broken_transforms == 0 or got

    def test_all_chains_broken_falls_back_to_coercion_or_reject(self):
        registry = FormatRegistry()
        registry.add_transform(RESPONSE_V2, RESPONSE_V1, "not a transform ;;;")
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        got = []
        receiver.register_handler(RESPONSE_V1, got.append)
        # the broken chain is dropped; the remaining candidate is the raw
        # v2 format, whose structural match against v1 passes the default
        # thresholds (Mr = 0.6), so the message is reconciled instead
        receiver.process(sender.encode(RESPONSE_V2, response_v2(2)))
        assert receiver.stats.broken_transforms == 1
        assert receiver.stats.reconciled == 1
        assert got[0]["member_count"] == 2
        assert got[0]["src_list"] == []  # coercion cannot invent role lists

    def test_all_options_broken_and_inadmissible_rejects(self):
        a = IOFormat("T", [IOField("x", "integer")], version="a")
        b = IOFormat("T", [IOField("y", "string")], version="b")
        registry = FormatRegistry()
        registry.add_transform(a, b, "syntax error here")
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry, diff_threshold=0, mismatch_threshold=0.0)
        receiver.register_handler(b, lambda rec: rec)
        with pytest.raises(NoMatchError):
            receiver.process(sender.encode(a, {"x": 1}))
        assert receiver.stats.broken_transforms == 1

    def test_runtime_fault_in_transform_surfaces_per_message(self):
        """ECode that compiles but reads a missing field fails at message
        time with TransformError (and keeps failing — no corrupt cache)."""
        registry = FormatRegistry()
        registry.add_transform(
            RESPONSE_V2, RESPONSE_V0, "old.channel_id = new.no_such_field;"
        )
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        receiver.register_handler(RESPONSE_V0, lambda rec: rec)
        wire = sender.encode(RESPONSE_V2, response_v2(1))
        for _ in range(2):
            with pytest.raises(TransformError, match="runtime"):
                receiver.process(wire)

    def test_validation_mode_catches_bad_output_before_handler(self):
        """No morph-layer re-check: a transform that sets a count but
        never fills its list is refused where the fabric owner encodes
        for the group.  Each event dead-letters there (the fourth drops
        in quarantine), the subscriber sees none, and the owner's
        ``last_error`` names the cause."""
        registry = FormatRegistry()
        registry.add_transform(
            RESPONSE_V2, RESPONSE_V1, "old.member_count = new.member_count;"
        )
        net = Network(seed=0)
        fabric = EventFabric(net, registry=registry)
        fabric.add_worker("w0")
        seen = []
        fabric.client("sub").subscribe(
            "ch", RESPONSE_V1, lambda c, p, s, rec: seen.append(rec))
        pub = fabric.client("pub")
        net.run()
        for _ in range(4):
            pub.publish("ch", RESPONSE_V2, response_v2(2))
        net.run()
        owner = fabric.directory.worker(fabric.directory.owner("ch"))
        group = owner._channels["ch"].groups[RESPONSE_V1.format_id]
        assert seen == []
        assert owner.errors == 4
        assert group.receiver.containment["dead_lettered"] == 3
        assert group.receiver.containment["quarantine_drops"] == 1
        assert isinstance(owner.last_error, EncodeError)
        assert "member_list" in str(owner.last_error)


class TestHostileMetaData:
    def test_snapshot_with_broken_transform_loads_but_fails_lazily(self):
        """Meta-data is data: a snapshot carrying bad ECode loads fine and
        only the affected route degrades."""
        from repro.pbio.serialization import dump_registry, load_registry

        registry = FormatRegistry()
        registry.add_transform(RESPONSE_V2, RESPONSE_V1, "broken $ code")
        revived = load_registry(dump_registry(registry))
        receiver = MorphReceiver(revived)
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        sender = PBIOContext(revived)
        receiver.process(sender.encode(RESPONSE_V2, response_v2(1)))
        assert receiver.stats.broken_transforms == 1

    def test_transform_cannot_escape_to_python(self):
        """The ECode pipeline only exposes whitelisted builtins: code that
        tries to call arbitrary Python is rejected at check time."""
        registry = FormatRegistry()
        registry.add_transform(
            RESPONSE_V2, RESPONSE_V0, 'old.channel_id = eval("__import__");'
        )
        sender = PBIOContext(registry)
        receiver = MorphReceiver(registry)
        receiver.register_handler(RESPONSE_V0, lambda rec: rec)
        receiver.process(sender.encode(RESPONSE_V2, response_v2(1)))
        # the eval-bearing chain was dropped at compile time
        assert receiver.stats.broken_transforms == 1
