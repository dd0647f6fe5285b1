"""Unit tests for the Algorithm 2 receiver — every path through the
pipeline: cache, perfect match, morph, chain, reconcile, reject."""

from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V2_TO_V1_TRANSFORM,
)
from repro.errors import NoMatchError, UnknownFormatError
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.pbio.registry import FormatRegistry


def make_pair(registry=None):
    registry = registry if registry is not None else FormatRegistry()
    return PBIOContext(registry), MorphReceiver(registry)


class TestPerfectMatchPath:
    def test_exact_format_dispatches_directly(self, v2):
        sender, receiver = make_pair()
        got = []
        receiver.register_handler(v2, got.append)
        rec = response_v2(2)
        receiver.process(sender.encode(v2, rec))
        assert records_equal(got[0], rec)
        assert receiver.stats.perfect_matches == 1
        assert receiver.stats.morphed == 0

    def test_structurally_identical_but_resized_declaration(self):
        a = IOFormat("T", [IOField("x", "integer", 4)], version="x")
        b = IOFormat("T", [IOField("x", "integer", 8)], version="x")
        sender, receiver = make_pair()
        got = []
        receiver.register_handler(b, got.append)
        receiver.process(sender.encode(a, {"x": 5}))
        assert got == [{"x": 5}]
        route = receiver.route_for(a)
        assert route.coercion is not None  # reshaped, but perfect match

    def test_handler_return_value_propagates(self, v2):
        sender, receiver = make_pair()
        receiver.register_handler(v2, lambda rec: rec["member_count"] * 10)
        assert receiver.process(sender.encode(v2, response_v2(3))) == 30


class TestMorphPath:
    def test_v2_message_to_v1_reader(self, echo_registry, v1, v2):
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        got = []
        receiver.register_handler(v1, got.append)
        incoming = response_v2(4)
        receiver.process(sender.encode(v2, incoming))
        assert records_equal(got[0], response_v1_from_v2(incoming))
        assert receiver.stats.morphed == 1
        assert receiver.stats.compiled_chains == 1

    def test_chained_retro_transform_to_v0(self, echo_registry, v0, v2):
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        got = []
        receiver.register_handler(v0, got.append)
        receiver.process(sender.encode(v2, response_v2(3)))
        out = got[0]
        assert set(out.keys()) == {"channel_id", "member_count", "member_list"}
        assert out["member_count"] == 3
        route = receiver.route_for(v2)
        assert route.chain is not None and len(route.chain) == 2

    def test_transform_preferred_over_lossy_coercion(self, echo_registry, v0, v2):
        # a direct (v2, v0) coercion would be admissible (Mr = 0) but the
        # chain reaches v0 exactly; Algorithm 2 tries MaxMatch(Ft, Fr)
        # only after the direct match fails to be perfect, and the chain
        # preserves the member data
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        got = []
        receiver.register_handler(v0, got.append)
        receiver.process(sender.encode(v2, response_v2(2)))
        assert got[0]["member_list"][0]["info"] != ""

    def test_forward_morph_old_server_new_client(self, echo_registry, v1, v2):
        # v1 message, v2-only reader: the forward transform applies
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        got = []
        receiver.register_handler(v2, got.append)
        v1_rec = response_v1_from_v2(response_v2(3))
        receiver.process(sender.encode(v1, v1_rec))
        assert records_equal(got[0], response_v2(3))


class TestReconcilePath:
    def test_imperfect_match_fills_defaults_and_drops(self):
        src = IOFormat(
            "T",
            [IOField("x", "integer"), IOField("extra", "string")],
            version="new",
        )
        dst = IOFormat(
            "T",
            [IOField("x", "integer"), IOField("missing", "float", default=2.5)],
            version="old",
        )
        sender, receiver = make_pair()
        got = []
        receiver.register_handler(dst, got.append)
        receiver.process(sender.encode(src, {"x": 1, "extra": "dropme"}))
        assert got == [{"x": 1, "missing": 2.5}]
        assert receiver.stats.reconciled == 1


class TestRejectPath:
    def test_no_match_raises(self):
        """Historical name: a rejected match dead-letters a NoMatchError."""
        src = IOFormat("T", [IOField("a", "integer")], version="x")
        dst = IOFormat("T", [IOField("b", "string")], version="y")
        sender, receiver = make_pair()
        receiver.register_handler(dst, lambda rec: rec)
        assert receiver.process(sender.encode(src, {"a": 1})) is None
        assert receiver.dead_letters[-1].stage == "no_match"
        assert isinstance(receiver.last_error, NoMatchError)
        assert receiver.stats.rejected == 1

    def test_default_handler_catches_rejects(self):
        src = IOFormat("T", [IOField("a", "integer")], version="x")
        dst = IOFormat("T", [IOField("b", "string")], version="y")
        sender, receiver = make_pair()
        receiver.register_handler(dst, lambda rec: rec)
        fallback = []
        receiver.register_default_handler(lambda fmt, rec: fallback.append((fmt, rec)))
        receiver.process(sender.encode(src, {"a": 1}))
        assert fallback[0][0] == src
        assert fallback[0][1] == {"a": 1}

    def test_different_name_never_matches(self):
        src = IOFormat("Alpha", [IOField("x", "integer")])
        dst = IOFormat("Beta", [IOField("x", "integer")])
        sender, receiver = make_pair()
        receiver.register_handler(dst, lambda rec: rec)
        assert receiver.process(sender.encode(src, {"x": 1})) is None
        assert receiver.dead_letters[-1].stage == "no_match"
        assert isinstance(receiver.last_error, NoMatchError)

    def test_unknown_wire_format(self):
        fmt = IOFormat("T", [IOField("x", "integer")])
        foreign = PBIOContext()  # private registry
        wire = foreign.encode(fmt, {"x": 1})
        receiver = MorphReceiver()  # different empty registry
        assert receiver.process(wire) is None
        assert receiver.dead_letters[-1].stage == "unknown_format"
        assert isinstance(receiver.last_error, UnknownFormatError)

    def test_strict_thresholds_reject_near_miss(self):
        src = IOFormat("T", [IOField("x", "integer"), IOField("y", "integer")],
                       version="a")
        dst = IOFormat("T", [IOField("x", "integer"), IOField("z", "integer")],
                       version="b")
        sender, _ = make_pair()
        registry = sender.registry
        strict = MorphReceiver(registry, diff_threshold=0, mismatch_threshold=0.0)
        strict.register_handler(dst, lambda rec: rec)
        assert strict.process(sender.encode(src, {"x": 1, "y": 2})) is None
        assert strict.dead_letters[-1].stage == "no_match"
        assert isinstance(strict.last_error, NoMatchError)
        lenient = MorphReceiver(registry, diff_threshold=5, mismatch_threshold=0.9)
        lenient.register_handler(dst, lambda rec: rec)
        assert lenient.process(sender.encode(src, {"x": 1, "y": 2})) == {"x": 1, "z": 0}


class TestCaching:
    def test_route_planned_once(self, echo_registry, v1, v2):
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        receiver.register_handler(v1, lambda rec: rec)
        wire = sender.encode(v2, response_v2(2))
        for _ in range(10):
            receiver.process(wire)
        assert receiver.stats.messages == 10
        assert receiver.stats.cache_hits == 9
        assert receiver.stats.compiled_chains == 1

    def test_new_handler_invalidates_routes(self, echo_registry, v1, v2):
        sender = PBIOContext(echo_registry)
        receiver = MorphReceiver(echo_registry)
        receiver.register_handler(v1, lambda rec: ("v1", rec))
        wire = sender.encode(v2, response_v2(1))
        tag, _ = receiver.process(wire)
        assert tag == "v1"
        receiver.register_handler(v2, lambda rec: ("v2", rec))
        tag, _ = receiver.process(wire)
        assert tag == "v2"  # the better (exact) handler now wins


class TestCompatibilitySpace:
    def test_expansion_via_transforms(self, echo_registry, v0, v1, v2):
        receiver = MorphReceiver(echo_registry)
        receiver.register_handler(v0, lambda rec: rec)
        accepted = {f.version for f in receiver.compatibility_space()
                    if f.name == "ChannelOpenResponse"}
        # v0 directly; v1 and v2 through retro-transform chains
        assert {"0.0", "1.0", "2.0"} <= accepted

    def test_without_transforms_space_is_smaller(self, v0, v1, v2):
        registry = FormatRegistry()
        for fmt in (v0, v1, v2):
            registry.register(fmt)
        receiver = MorphReceiver(
            registry, diff_threshold=0, mismatch_threshold=0.0
        )
        receiver.register_handler(v0, lambda rec: rec)
        accepted = {f.version for f in receiver.compatibility_space()
                    if f.name == "ChannelOpenResponse"}
        assert accepted == {"0.0"}


class TestInterpretiveAblation:
    def test_interpreted_receiver_agrees_with_compiled(self, v1, v2):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        sender = PBIOContext(registry)
        wire = sender.encode(v2, response_v2(3))
        outputs = []
        for use_codegen in (True, False):
            receiver = MorphReceiver(registry, use_codegen=use_codegen)
            receiver.register_handler(v1, lambda rec: rec)
            outputs.append(receiver.process(wire))
        assert records_equal(outputs[0], outputs[1])
