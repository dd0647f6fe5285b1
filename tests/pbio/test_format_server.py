"""FormatServer fleet + CachingFormatResolver: failover, degraded mode."""

import json

import pytest

from repro.errors import ReproError, TransportError
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import TransformSpec
from repro.net.reliable import ReliableEndpoint
from repro.pbio.serialization import format_to_dict, transform_to_dict
from repro.pbio.server import (
    PROTOCOL,
    REPLIES,
    _REQUIRED,
    CachingFormatResolver,
    FormatServer,
)

EVT_V1 = IOFormat(
    "Evt", [IOField("n", "integer"), IOField("x", "integer")], version="1.0"
)
EVT_V0 = IOFormat("Evt", [IOField("n", "integer")], version="0.0")
V1_TO_V0 = TransformSpec(
    source=EVT_V1, target=EVT_V0, code="old.n = new.n;",
    description="Evt 1.0 -> 0.0",
)


REQUESTS = [op for op in PROTOCOL if op not in REPLIES]


def key_mutations(ops):
    """``(op, key, how)`` for every key the protocol table declares for
    *ops*: each key retyped, each required one also dropped."""
    return [
        (op, key, how) for op in ops
        for key, spec in PROTOCOL[op].items()
        for how in (("drop", "retype") if spec.default is _REQUIRED
                    else ("retype",))
    ]


def mutate(message, key, how):
    if how == "drop":
        del message[key]
    else:
        message[key] = 5 if isinstance(message[key], dict) else {"a": 1}
    return message


def server_state(server):
    """What a refused request must leave as it was."""
    registry = server.registry
    return (
        [(fmt, registry.transforms_from(fmt)) for fmt in registry.formats()],
        {key: dict(held) for key, held in server._interests.items()},
        dict(server._interest_parents),
        {key: dict(state) for key, state in server._projections.items()},
        {key: set(held) for key, held in server._watchers.items()},
        dict(server.stats),
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

    # -- every key of every request, read off the protocol table ----------

    @staticmethod
    def valid(op):
        """A well-formed request naming every key the table declares."""
        uploads = {"formats": [format_to_dict(EVT_V1)],
                   "transforms": [transform_to_dict(V1_TO_V0)]}
        interest = {"id": 7, "group": "grp",
                    "parent": format_to_dict(EVT_V1)}
        return {"op": op, **{
            "register": {"id": 7, **uploads},
            "sync": uploads,
            "lookup": {"id": 7, "format_id": str(EVT_V0.format_id)},
            "interest": {**interest, "fields": ["n"], "retract": False},
            "interest_lookup": interest,
        }[op]}

    def refused_over_the_wire(self, message, key):
        """*message* sent to a server that holds a registration, an
        interest and a watcher: refused whole, and the server serves on.
        Returns the fleet for further checks."""
        net, primary, backup, writer, reader = build_fleet()
        writer.register(EVT_V0)
        announce(writer, ["n"], parent=EVT_V1)
        writer.watch_projection("grp", EVT_V1)
        net.run()
        before, mirrored = server_state(primary), dict(backup.stats)
        reader.endpoint.send("fs-a", json.dumps(message).encode())
        net.run()
        assert primary.node.handler_errors == 0
        assert server_state(primary) == before
        assert primary.errors == 1
        assert isinstance(primary.last_error, ReproError)
        assert repr(key) in str(primary.last_error)
        results = []
        reader.resolve(EVT_V0.format_id, results.append)
        net.run()
        assert [fmt.format_id for fmt in results] == [EVT_V0.format_id]
        assert backup.stats == mirrored  # nothing was mirrored
        return net, primary, reader

    @pytest.mark.parametrize("op", REQUESTS)
    def test_the_valid_request_names_every_key_and_is_served(self, op):
        message = self.valid(op)
        assert set(message) - {"op"} == set(PROTOCOL[op])
        net, primary, _backup, _writer, reader = build_fleet()
        reader.endpoint.send("fs-a", json.dumps(message).encode())
        net.run()
        assert primary.errors == 0 and primary.node.handler_errors == 0

    @pytest.mark.parametrize("op, key, how", key_mutations(REQUESTS))
    def test_a_dropped_or_retyped_key_is_refused_whole(self, op, key, how):
        self.refused_over_the_wire(mutate(self.valid(op), key, how), key)

    # -- the escapes these refusals close ---------------------------------

    def test_interest_fields_that_are_a_number(self):
        # raised a TypeError past the refusal after replacing the parent
        # and opening the group's interest entries
        message = {**self.valid("interest"), "fields": 5,
                   "parent": format_to_dict(WIDE)}
        _net, primary, _reader = self.refused_over_the_wire(
            message, "fields")
        assert primary.registry.lookup_id(WIDE.format_id) is None

    def test_interest_fields_that_are_a_string(self):
        # "nx" was read as the interest ["n", "x"]
        self.refused_over_the_wire(
            {**self.valid("interest"), "fields": "nx"}, "fields")

    def test_a_group_that_is_no_string(self):
        # {"a": 1} was read as the group "{'a': 1}"
        self.refused_over_the_wire(
            {**self.valid("interest"), "group": {"a": 1}}, "group")

    @pytest.mark.parametrize("op", ["interest", "interest_lookup"])
    def test_a_malformed_parent_is_counted_and_answered(self, op):
        answers = []
        net, _primary, reader = self.refused_over_the_wire(
            {**self.valid(op), "parent": {"bogus": True}}, "parent")
        reader.endpoint.set_handler(lambda _source, data: answers.append(
            json.loads(data)))
        reader.endpoint.send("fs-a", json.dumps(
            {**self.valid(op), "id": 8, "parent": 5}).encode())
        net.run()
        assert answers == [
            {"op": "interest_state", "id": 8, "malformed": True}]

    def test_a_refused_lookup_is_not_answered(self):
        answers = []
        net, _primary, reader = self.refused_over_the_wire(
            {"op": "lookup", "id": 7, "format_id": "x"}, "format_id")
        reader.endpoint.set_handler(lambda _source, data: answers.append(
            data))
        reader.endpoint.send("fs-a", json.dumps(
            {"op": "lookup", "id": 8}).encode())
        net.run()
        assert answers == []

    def test_json_nested_past_the_recursion_limit(self):
        net, primary, _backup, _writer, reader = build_fleet()
        reader.endpoint.send("fs-a", b"[" * 60_000)
        net.run()
        assert primary.errors == 1
        assert primary.node.handler_errors == 0


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


# ---------------------------------------------------------------------------
# Replies the resolver cannot read
# ---------------------------------------------------------------------------

CRAFTED = IOFormat("Crafted", [IOField("c", "integer")], version="1")
CRAFTED_PARENT = IOFormat(
    "Crafted", [IOField("c", "integer"), IOField("d", "integer")],
    version="2",
)
CRAFTED_DOWN = TransformSpec(
    source=CRAFTED_PARENT, target=CRAFTED, code="old.c = new.c;",
)
#: a projection no real server derives here (the resolvers ask for "n")
CRAFTED_STATE = {
    "group": "grp", "parent_format_id": str(WIDE.format_id), "epoch": 7,
    "full": False,
    "projection": format_to_dict(project_format(WIDE, ["x"], epoch=7)),
}


def build_lying_fleet(answer):
    """A resolver whose first server is a fake that answers every request
    with ``answer(request_id)``, and whose second is a real server that
    knows none of the crafted meta-data."""
    net = Network(default_link=LinkSpec(latency=0.001))
    big = 1_000_000
    FormatServer(net, "fs-a", breaker_threshold=big)
    fake = ReliableEndpoint(net, "fs-x", breaker_threshold=big)
    fake.set_handler(lambda source, data: fake.send(
        source, json.dumps(answer(json.loads(data)["id"])).encode()))
    resolver = CachingFormatResolver(
        net, "reader", ["fs-x", "fs-a"], request_timeout=0.5,
        breaker_threshold=big,
    )
    return net, resolver


def crafted_ids():
    return {CRAFTED.format_id, CRAFTED_PARENT.format_id,
            project_format(WIDE, ["x"], epoch=7).format_id}


class TestMalformedReplies:
    """A reply the resolver cannot read is refused whole: counted in
    ``errors``, named in ``last_error``, nothing of it cached, and the
    request fails over to the next server as on a rejected ticket."""

    @staticmethod
    def valid(op, request_id):
        """A well-formed, crafted reply naming every key the table
        declares."""
        return {"op": op, **{
            "register_ok": {"id": request_id},
            "lookup_reply": {
                "id": request_id, "format_id": str(CRAFTED.format_id),
                "found": True, "format": format_to_dict(CRAFTED),
                "parent": format_to_dict(CRAFTED_PARENT),
                "transforms": [transform_to_dict(CRAFTED_DOWN)],
            },
            "interest_state": {
                "id": request_id, "malformed": False, **CRAFTED_STATE},
            "projection_update": CRAFTED_STATE,
        }[op]}

    @staticmethod
    def ask(op, resolver, done):
        """Send the request *op* answers; *done* gets its outcome."""
        if op == "register_ok":
            resolver.register(EVT_V0)
        elif op == "lookup_reply":
            resolver.resolve(CRAFTED.format_id, done)
        elif op == "interest_state":
            resolver.announce_interest("grp", WIDE, ["n"], on_state=done)
        else:
            resolver.watch_projection("grp", WIDE, done)

    def refused(self, op, tamper, key):
        net, resolver = build_lying_fleet(
            lambda request_id: tamper(self.valid(op, request_id)))
        outcomes = []
        self.ask(op, resolver, outcomes.append)
        net.run()
        assert resolver.endpoint.node.handler_errors == 0
        assert not resolver._inflight and not resolver._requests
        assert not crafted_ids() & {
            fmt.format_id for fmt in resolver.registry.formats()}
        assert resolver.errors == 1
        assert isinstance(resolver.last_error, ReproError)
        assert repr(key) in str(resolver.last_error)
        assert not resolver.degraded and not resolver.pending_registrations
        # the real server answered the failed-over request
        if op == "lookup_reply":
            assert outcomes == [None]
        elif op != "register_ok":
            assert len(outcomes) == 1
            assert outcomes[0]["epoch"] in (0, 1)
        sent = resolver.stats["lookups_sent"]
        resolver.resolve(CRAFTED.format_id)
        assert resolver.stats["lookups_sent"] == sent + 1

    @pytest.mark.parametrize("op", REPLIES)
    def test_the_valid_reply_names_every_key_and_is_read(self, op):
        assert set(self.valid(op, 1)) - {"op"} == set(PROTOCOL[op])
        net, resolver = build_lying_fleet(
            lambda request_id: self.valid(op, request_id))
        outcomes = []
        self.ask(op, resolver, outcomes.append)
        net.run()
        assert resolver.errors == 0
        assert resolver.endpoint.node.handler_errors == 0
        if op == "lookup_reply":
            assert outcomes == [CRAFTED]
            assert resolver.registry.transforms_from(CRAFTED_PARENT)

    @pytest.mark.parametrize("op, key, how", key_mutations(REPLIES))
    def test_a_dropped_or_retyped_key_is_refused_whole(self, op, key, how):
        self.refused(op, lambda reply: mutate(reply, key, how), key)

    # -- the escapes these refusals close ---------------------------------
    # Each raised out of the resolver's handler after the request was
    # popped, so the id's callbacks never fired and every later resolve
    # of it coalesced onto the dead entry.

    def test_found_without_a_format(self):
        self.refused("lookup_reply",
                     lambda reply: mutate(reply, "format", "drop"), "format")

    def test_a_format_that_is_a_number(self):
        self.refused("lookup_reply", lambda r: {**r, "format": 5}, "format")

    def test_transforms_that_are_a_number_cache_nothing(self):
        # the format used to be cached before the transforms raised
        self.refused(
            "lookup_reply", lambda r: {**r, "transforms": 7}, "transforms")

    def test_a_reply_id_that_is_a_list(self):
        # a TypeError (unhashable) in the reply correlation
        self.refused("lookup_reply", lambda r: {**r, "id": [r["id"]]}, "id")

    def test_a_malformed_answer_reports_no_state_and_no_error(self):
        net, resolver = build_lying_fleet(lambda request_id: {
            "op": "interest_state", "id": request_id, "malformed": True})
        states = []
        resolver.announce_interest("grp", WIDE, ["n"], on_state=states.append)
        net.run()
        assert states == [None]
        assert resolver.errors == 0 and not resolver.degraded
