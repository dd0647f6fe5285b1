"""Receiver-side projection routing: interest sets, parent-route reuse,
coverage guard, invalidation.

A :class:`ProjectionFormat` wire is the negotiated narrow revision of a
parent the receiver already routes.  When the projection covers the
parent route's fused liveness set it must ride that route (same handler,
same delivered records as full-format traffic); when coverage fails it
must degrade to ordinary MaxMatch planning, never to an error.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.projection import project_format, project_record
from repro.pbio.registry import FormatRegistry

WIDE = IOFormat(
    "Sensor",
    [
        IOField("seq", "integer"),
        IOField("value", "float"),
        IOField("unit", "string"),
        IOField("station", "integer"),
        IOField("checksum", "integer"),
    ],
    version="2.0",
)
NARROW = IOFormat(
    "Sensor",
    [IOField("seq", "integer"), IOField("value", "float")],
    version="0.1",
)


def full_record(seq=1):
    return WIDE.make_record(
        seq=seq, value=seq * 1.5, unit="mK", station=12, checksum=99
    )


def build(handler_fmt=NARROW):
    registry = FormatRegistry()
    registry.register(WIDE)
    got = []
    receiver = MorphReceiver(registry)
    receiver.register_handler(handler_fmt, got.append)
    return registry, receiver, got


class TestInterestFor:
    def test_fused_liveness_or_conservative_none(self, pipeline_mode):
        _registry, receiver, _got = build()
        interest = receiver.interest_for(WIDE)
        if pipeline_mode == "fused":
            # only the fields the NARROW handler can ever observe
            assert interest == frozenset({"seq", "value"})
        else:
            # no provable liveness without fusion: ask for everything
            assert interest is None

    def test_reject_route_reports_none(self):
        registry = FormatRegistry()
        receiver = MorphReceiver(registry)
        other = IOFormat("Unrelated", [IOField("q", "integer")])
        receiver.register_handler(other, lambda r: None)
        assert receiver.interest_for(WIDE) is None


class TestProjectionRoute:
    def test_projected_wire_delivers_the_same_records_as_full(self):
        registry, receiver, got = build()
        proj = project_format(WIDE, ["seq", "value"], epoch=1)
        registry.register(proj)
        ctx = PBIOContext(registry)
        rec = full_record(7)
        receiver.process(ctx.encode(WIDE, rec))
        receiver.process(ctx.encode(proj, project_record(proj, rec)))
        assert len(got) == 2
        assert dict(got[0]) == dict(got[1])

    def test_covering_projection_rides_the_parent_route(self, pipeline_mode):
        if pipeline_mode != "fused":
            pytest.skip("liveness-based route reuse needs fusion")
        registry, receiver, got = build()
        live = receiver.interest_for(WIDE)
        proj = project_format(WIDE, live, epoch=1)
        registry.register(proj)
        ctx = PBIOContext(registry)
        metrics = obs.Registry()
        obs.enable(registry=metrics)
        try:
            receiver.process(ctx.encode(proj, project_record(proj, full_record())))
            assert metrics.counter("morph.projection.routes").value == 1
            assert metrics.counter("morph.projection.fallbacks").value == 0
        finally:
            obs.disable(reset=True)
        route = receiver.route_for(proj)
        assert route is not None and route.pre_coercion is not None
        assert got and got[0]["seq"] == 1

    def test_coverage_makes_the_parent_plan_it_reads(self, pipeline_mode):
        """A projected wire as the receiver's first message, with no
        interest asked for: the parent's fusion plan does not exist yet,
        so the coverage test makes it, and the projection rides the
        parent route instead of falling back."""
        if pipeline_mode != "fused":
            pytest.skip("liveness-based route reuse needs fusion")
        registry, receiver, got = build()
        proj = project_format(WIDE, ["seq", "value"], epoch=1)
        registry.register(proj)
        ctx = PBIOContext(registry)
        receiver.process(ctx.encode(proj, project_record(proj, full_record())))
        stats = receiver.stats
        assert (stats.projection_routes, stats.projection_fallbacks) == (1, 0)
        assert receiver.route_for(WIDE).fused.wire_live == {"seq", "value"}
        assert got and got[0]["value"] == 1.5

    def test_uncovered_projection_falls_back_to_maxmatch(self, pipeline_mode):
        if pipeline_mode != "fused":
            pytest.skip("the coverage guard compares against fused liveness")
        registry, receiver, got = build()
        # an incoherent negotiation window: the wire carries a field the
        # route never reads, and misses one it does
        proj = project_format(WIDE, ["seq", "checksum"], epoch=3)
        registry.register(proj)
        ctx = PBIOContext(registry)
        metrics = obs.Registry()
        obs.enable(registry=metrics)
        try:
            receiver.process(ctx.encode(proj, {"seq": 4, "checksum": 5}))
            assert metrics.counter("morph.projection.fallbacks").value == 1
            assert metrics.counter("morph.projection.routes").value == 0
        finally:
            obs.disable(reset=True)
        # degraded, not dead: MaxMatch still delivers with defaults
        assert len(got) == 1
        assert got[0]["seq"] == 4 and got[0]["value"] == 0.0

    def test_projection_of_unknown_parent_is_just_another_revision(self):
        registry, receiver, got = build()
        proj = project_format(WIDE, ["seq", "value"], epoch=1)
        registry.unregister(WIDE)  # provenance now dangles
        registry.register(proj)
        ctx = PBIOContext(registry)
        receiver.process(ctx.encode(proj, {"seq": 3, "value": 0.5}))
        assert len(got) == 1 and got[0]["seq"] == 3


class TestInvalidation:
    def test_invalidate_route_drops_the_cached_plan(self):
        registry, receiver, _got = build()
        ctx = PBIOContext(registry)
        receiver.process(ctx.encode(WIDE, full_record()))
        assert receiver.route_for(WIDE) is not None
        assert receiver.invalidate_route(WIDE.format_id) is True
        assert receiver.route_for(WIDE) is None
        assert receiver.invalidate_route(WIDE.format_id) is False

    def test_replanned_route_sees_refreshed_meta_data(self):
        registry, receiver, got = build()
        proj = project_format(WIDE, ["seq", "value"], epoch=1)
        registry.register(proj)
        ctx = PBIOContext(registry)
        wire = ctx.encode(proj, {"seq": 9, "value": 2.5})
        receiver.process(wire)
        assert len(got) == 1
        # the format server re-derives the projection (same id, fresh
        # content object); the receiver replans from the new entry
        registry.replace(project_format(WIDE, ["seq", "value"], epoch=1))
        receiver.invalidate_route(proj.format_id)
        receiver.process(wire)
        assert len(got) == 2 and dict(got[0]) == dict(got[1])
