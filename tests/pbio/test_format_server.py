"""FormatServer fleet + CachingFormatResolver: failover, degraded mode."""

import json

import pytest

from repro.errors import ReproError, TransportError
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import TransformSpec
from repro.pbio.serialization import transform_to_dict
from repro.pbio.server import CachingFormatResolver, FormatServer

EVT_V1 = IOFormat(
    "Evt", [IOField("n", "integer"), IOField("x", "integer")], version="1.0"
)
EVT_V0 = IOFormat("Evt", [IOField("n", "integer")], version="0.0")
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0, code="old.n = new.n;",
    description="Evt 1.0 -> 0.0",
)


def build_fleet(loss_rate=0.0, standby=True, **resolver_options):
    net = Network(default_link=LinkSpec(latency=0.001, loss_rate=loss_rate))
    big = 1_000_000
    primary = FormatServer(net, "fs-a", peer="fs-b" if standby else None,
                           breaker_threshold=big)
    # peers point at each other so registrations landing on either
    # replica (e.g. after a failover) reach both
    backup = (FormatServer(net, "fs-b", peer="fs-a", breaker_threshold=big)
              if standby else None)
    servers = ["fs-a", "fs-b"] if standby else ["fs-a"]
    resolver_options.setdefault("request_timeout", 0.5)
    resolver_options.setdefault("breaker_threshold", big)
    writer = CachingFormatResolver(net, "writer", servers, **resolver_options)
    reader = CachingFormatResolver(net, "reader", servers, **resolver_options)
    return net, primary, backup, writer, reader


class TestRegistrationAndLookup:
    def test_lookup_ships_format_with_transform_closure(self):
        net, primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        net.run()
        assert primary.registry.lookup_id(EVT_V1.format_id) is not None

        results = []
        reader.resolve(EVT_V1.format_id, results.append)
        net.run()
        assert results and results[0].format_id == EVT_V1.format_id
        # the closure came along: the reader can morph without new trips
        assert reader.registry.transforms_from(EVT_V1)

    def test_cache_hit_skips_the_network(self):
        net, primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        net.run()
        reader.resolve(EVT_V0.format_id)
        net.run()
        lookups_before = primary.stats["lookups"]
        assert reader.resolve(EVT_V0.format_id) is not None
        net.run()
        assert primary.stats["lookups"] == lookups_before
        assert reader.stats["cache_hits"] == 1

    def test_registrations_mirror_to_standby(self):
        net, _primary, backup, writer, _reader = build_fleet()
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        net.run()
        assert backup.registry.lookup_id(EVT_V1.format_id) is not None
        assert backup.stats["syncs"] == 1

    def test_concurrent_misses_coalesce(self):
        net, primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        net.run()
        results = []
        reader.resolve(EVT_V0.format_id, results.append)
        reader.resolve(EVT_V0.format_id, results.append)
        net.run()
        assert len(results) == 2
        assert reader.stats["lookups_sent"] == 1
        assert primary.stats["lookups"] == 1

    def test_unknown_id_reports_a_miss(self):
        net, primary, _backup, _writer, reader = build_fleet()
        results = []
        reader.resolve(0xDEAD, results.append)
        net.run()
        assert results == [None]
        assert primary.stats["misses"] == 1

    def test_resolver_requires_servers(self):
        with pytest.raises(TransportError):
            CachingFormatResolver(Network(), "lonely", servers=())


class TestMalformedRequests:
    """A request the server cannot read is refused: counted in
    ``errors``, its ``ReproError`` naming the key kept as ``last_error``,
    before anything changes, and the next lookup is served."""

    def refused(self, message, key):
        net, primary, backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        net.run()
        formats = list(primary.registry.formats())
        stats = dict(primary.stats)
        primary._on_message("reader", json.dumps(message).encode())
        assert primary.errors == 1
        assert isinstance(primary.last_error, TransportError)
        assert key in str(primary.last_error)
        assert list(primary.registry.formats()) == formats
        assert primary.stats == stats
        results = []
        reader.resolve(EVT_V0.format_id, results.append)
        net.run()
        assert [fmt.format_id for fmt in results] == [EVT_V0.format_id]
        assert backup.stats["syncs"] == 1  # nothing was mirrored

    def test_a_lookup_without_a_format_id(self):
        self.refused({"op": "lookup", "id": 1}, "format_id")

    def test_a_lookup_of_a_format_id_that_is_no_number(self):
        self.refused({"op": "lookup", "id": 1, "format_id": "x"}, "format_id")

    @pytest.mark.parametrize("op", ["register", "sync"])
    def test_formats_that_are_no_list(self, op):
        self.refused({"op": op, "id": 1, "formats": 5,
                      "transforms": [transform_to_dict(V1_TO_V0)]}, "formats")

    def test_refusals_over_the_wire_are_counted_and_the_server_serves_on(
            self):
        net, primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        net.run()
        for message in (
            {"op": "lookup", "id": 1},
            {"op": "lookup", "id": 2, "format_id": "x"},
            {"op": "register", "id": 3, "formats": 5},
            {"op": "register", "id": 4, "formats": [{"name": "Evt"}]},
        ):
            reader.endpoint.send("fs-a", json.dumps(message).encode())
        net.run()
        assert primary.errors == 4
        assert isinstance(primary.last_error, ReproError)
        assert "fields" in str(primary.last_error)
        assert primary.node.handler_errors == 0
        results = []
        reader.resolve(EVT_V0.format_id, results.append)
        net.run()
        assert [fmt.format_id for fmt in results] == [EVT_V0.format_id]


class TestFailover:
    def test_crashed_primary_fails_over_to_standby(self):
        net, primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        net.run()
        primary.close()
        results = []
        reader.resolve(EVT_V1.format_id, results.append)
        net.run()
        assert results and results[0].format_id == EVT_V1.format_id
        assert reader.stats["failovers"] >= 1
        assert not reader.degraded

    def test_resolver_sticks_with_the_server_that_answered(self):
        net, primary, backup, writer, reader = build_fleet()
        writer.register(EVT_V1)
        writer.register(EVT_V0)
        net.run()
        primary.close()
        reader.resolve(EVT_V1.format_id)
        net.run()
        failovers_after_first = reader.stats["failovers"]
        reader.resolve(EVT_V0.format_id)
        net.run()
        # second lookup goes straight to the standby: no second failover
        assert reader.stats["failovers"] == failovers_after_first
        assert backup.stats["lookups"] == 2


class TestDegradedMode:
    def test_whole_fleet_down_serves_cache_and_queues_registrations(self):
        net, primary, backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        net.run()
        reader.resolve(EVT_V0.format_id)
        net.run()
        primary.close()
        backup.close()

        # an uncached id: both attempts fail, the resolver degrades
        results = []
        reader.resolve(EVT_V1.format_id, results.append)
        net.run()
        assert results == [None]
        assert reader.degraded
        # cached formats still resolve, instantly and offline
        assert reader.resolve(EVT_V0.format_id) is not None
        # further misses fail fast instead of hammering a dead fleet
        more = []
        reader.resolve(0xBEEF, more.append)
        assert more == [None]
        assert reader.stats["degraded_misses"] >= 1

        # writer-side: registrations queue while degraded
        writer.resolve(0xF00D)  # degrade the writer too
        net.run()
        assert writer.degraded
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        assert writer.pending_registrations == 1
        # the local cache is authoritative regardless
        assert writer.registry.lookup_id(EVT_V1.format_id) is not None

    def test_recovery_replays_queued_registrations(self):
        net, primary, backup, writer, reader = build_fleet()
        primary.close()
        backup.close()
        writer.resolve(0xF00D)  # discover the outage, degrade
        net.run()
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        assert writer.pending_registrations == 1

        primary.reopen()
        backup.reopen()
        assert writer.retry_pending() == 1
        net.run()
        assert not writer.degraded
        assert writer.pending_registrations == 0
        assert writer.stats["replayed_registrations"] >= 1
        assert primary.registry.lookup_id(EVT_V1.format_id) is not None

        # and a reader can now resolve it end to end
        results = []
        reader.resolve(EVT_V1.format_id, results.append)
        net.run()
        assert results and results[0].format_id == EVT_V1.format_id


class TestRefresh:
    def test_refresh_pulls_transform_closure_for_known_format(self):
        net, _primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        net.run()
        # the reader knows the format locally but has no transforms
        reader.registry.register(EVT_V1)
        assert not reader.registry.transforms_from(EVT_V1)
        results = []
        reader.refresh(EVT_V1.format_id, results.append)
        net.run()
        assert results and results[0].format_id == EVT_V1.format_id
        assert reader.registry.transforms_from(EVT_V1)

    def test_refresh_falls_back_to_cache_when_fleet_is_down(self):
        net, primary, backup, writer, reader = build_fleet()
        writer.register(EVT_V1)
        net.run()
        reader.resolve(EVT_V1.format_id)
        net.run()
        primary.close()
        backup.close()
        results = []
        reader.refresh(EVT_V1.format_id, results.append)
        net.run()
        # best-effort: the cached format is better than nothing
        assert results and results[0].format_id == EVT_V1.format_id


class TestLossyMetaPlane:
    def test_meta_protocol_survives_a_lossy_link(self):
        net, _primary, _backup, writer, reader = build_fleet(loss_rate=0.2)
        writer.register(EVT_V1, transforms=[V1_TO_V0])
        net.run()
        results = []
        reader.resolve(EVT_V1.format_id, results.append)
        net.run()
        assert results and results[0].format_id == EVT_V1.format_id
        assert not reader.degraded

# ----------------------------------------------------------------------
# Interest negotiation (projection push-down)
# ----------------------------------------------------------------------

from repro.pbio.field import ArraySpec  # noqa: E402
from repro.pbio.projection import ProjectionFormat, project_format  # noqa: E402

WIDE = IOFormat(
    "Wide",
    [
        IOField("n", "integer"),
        IOField("x", "integer"),
        IOField("y", "integer"),
        IOField("z", "integer"),
    ],
    version="2.0",
)


def announce(resolver, fields, group="grp", parent=WIDE, retract=False):
    states = []
    resolver.announce_interest(
        group, parent, fields, retract=retract, on_state=states.append
    )
    return states


class TestInterestNegotiation:
    def test_narrow_interest_derives_an_epoch1_projection(self):
        net, primary, _backup, _writer, reader = build_fleet()
        states = announce(reader, ["n"])
        net.run()
        assert states and states[0] is not None
        state = states[0]
        assert state["epoch"] == 1 and not state["full"]
        assert state["format"].field_names() == ["n"]
        assert state["format"].parent_format_id == WIDE.format_id
        assert primary.stats["renegotiations"] == 1

    def test_union_across_subscribers(self):
        net, _primary, _backup, writer, reader = build_fleet()
        announce(reader, ["n"])
        net.run()
        announce(writer, ["y"])
        net.run()
        state = writer.projection_state(WIDE.format_id, "grp")
        assert state["epoch"] == 2
        assert state["format"].field_names() == ["n", "y"]

    def test_full_interest_stays_full_at_epoch_zero(self):
        net, primary, _backup, _writer, reader = build_fleet()
        states = announce(reader, None)
        net.run()
        assert states[0]["full"] and states[0]["epoch"] == 0
        # wanting everything is not a renegotiation
        assert primary.stats["renegotiations"] == 0

    def test_superset_of_declared_fields_means_full(self):
        net, _primary, _backup, _writer, reader = build_fleet()
        states = announce(reader, ["n", "x", "y", "z", "not_declared"])
        net.run()
        assert states[0]["full"]

    def test_all_unknown_names_keep_the_first_field(self):
        # A subscriber announcing against a stale revision must still
        # get decodable frames: the server pins the parent's first field.
        net, _primary, _backup, _writer, reader = build_fleet()
        states = announce(reader, ["ghost", "phantom"])
        net.run()
        assert states[0]["format"].field_names() == ["n"]

    def test_retract_widens_back_to_full(self):
        net, primary, _backup, _writer, reader = build_fleet()
        announce(reader, ["n"])
        net.run()
        states = announce(reader, None, retract=True)
        net.run()
        assert states[0]["full"] and states[0]["epoch"] == 2
        assert primary.stats["renegotiations"] == 2

    def test_sender_watcher_sees_pushed_renegotiations(self):
        net, _primary, _backup, writer, reader = build_fleet()
        updates = []
        writer.watch_projection("grp", WIDE, on_update=updates.append)
        net.run()
        assert updates and updates[0]["full"]  # initial state: no interests
        announce(reader, ["x"])
        net.run()
        assert updates[-1]["format"].field_names() == ["x"]
        assert updates[-1]["epoch"] == 1

    def test_projection_format_mirrors_to_standby(self):
        net, _primary, backup, _writer, reader = build_fleet()
        announce(reader, ["n"])
        net.run()
        proj = project_format(WIDE, ["n"], epoch=1)
        mirrored = backup.registry.lookup_id(proj.format_id)
        assert isinstance(mirrored, ProjectionFormat)

    def test_old_epochs_stay_registered_for_inflight_frames(self):
        net, primary, _backup, writer, reader = build_fleet()
        announce(reader, ["n"])
        net.run()
        announce(writer, ["y"], group="grp")
        net.run()
        for epoch, fields in ((1, ["n"]), (2, ["n", "y"])):
            fmt = project_format(WIDE, fields, epoch=epoch)
            assert primary.registry.lookup_id(fmt.format_id) is not None

    def test_malformed_parent_yields_none_state(self):
        net, _primary, _backup, _writer, reader = build_fleet()
        states = []
        reader.announce_interest(
            "grp", WIDE, ["n"], on_state=states.append
        )
        # corrupt the parent payload server-side by sending a raw
        # malformed interest directly
        from repro.pbio.server import _encode
        reader.endpoint.send("fs-a", _encode({
            "op": "interest", "group": "grp", "parent": {"bogus": True},
            "fields": ["n"], "id": 999,
        }))
        net.run()
        assert states and states[0] is not None  # the good announce worked

    def test_degraded_resolver_reports_none_and_keeps_full_traffic(self):
        net, primary, backup, _writer, reader = build_fleet()
        primary.close()
        backup.close()
        reader.resolve(0xF00D)  # discover the outage, degrade
        net.run()
        assert reader.degraded
        states = announce(reader, ["n"])
        assert states == [None]

    def test_projected_lookup_ships_the_parent_alongside(self):
        # A sender that never saw the parent resolves a projected id and
        # must be able to plan the widening route immediately.
        net, _primary, _backup, writer, reader = build_fleet()
        writer.register(WIDE)
        announce(writer, ["n"])
        net.run()
        proj = project_format(WIDE, ["n"], epoch=1)
        results = []
        reader.resolve(proj.format_id, results.append)
        net.run()
        assert results and results[0].format_id == proj.format_id
        assert reader.registry.lookup_id(WIDE.format_id) is not None


class TestStaleEntryInvalidation:
    """Regression: a re-registered format id with different content must
    displace the cached entry, bump ``invalidations`` and fire
    ``on_invalidate`` (receivers drop compiled routes keyed by that id)."""

    def test_server_reply_displaces_plain_clone_of_projection(self):
        net, _primary, _backup, writer, reader = build_fleet()
        writer.register(WIDE)
        announce(writer, ["n"])
        net.run()
        proj = project_format(WIDE, ["n"], epoch=1)
        # poison the reader's cache with a structurally identical plain
        # format under the projection's id (no provenance)
        plain = IOFormat(proj.name, list(proj.fields), version=proj.version)
        assert plain.format_id == proj.format_id
        reader.registry.register(plain)
        invalidated = []
        reader.on_invalidate = invalidated.append
        reader.refresh(proj.format_id)
        net.run()
        assert invalidated == [proj.format_id]
        assert reader.stats["invalidations"] == 1
        cached = reader.registry.lookup_id(proj.format_id)
        assert isinstance(cached, ProjectionFormat)

    def test_server_reply_displaces_default_drift(self):
        net, _primary, _backup, writer, reader = build_fleet()
        revised = IOFormat(
            "Evt",
            [IOField("n", "integer", default=7), IOField("x", "integer")],
            version="1.0",
        )
        assert revised.format_id == EVT_V1.format_id
        reader.registry.register(EVT_V1)
        writer.register(revised)
        net.run()
        invalidated = []
        reader.on_invalidate = invalidated.append
        reader.refresh(EVT_V1.format_id)
        net.run()
        assert invalidated == [EVT_V1.format_id]
        cached = reader.registry.lookup_id(EVT_V1.format_id)
        assert cached.fields[0].default_instance() == 7

    def test_equal_content_is_not_an_invalidation(self):
        net, _primary, _backup, writer, reader = build_fleet()
        writer.register(EVT_V1)
        net.run()
        reader.resolve(EVT_V1.format_id)
        net.run()
        reader.refresh(EVT_V1.format_id)
        net.run()
        assert reader.stats["invalidations"] == 0
