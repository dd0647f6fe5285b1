"""The format server as a fallible network service.

PBIO's defining trick is that meta-data travels *out-of-band*: wire
messages carry only an 8-byte format id, and readers resolve ids against
a format server.  Elsewhere in this library the server is abstracted as
a shared :class:`~repro.pbio.registry.FormatRegistry`; this module makes
it a real networked service, built for the failure modes real
deployments hit: requests ride a
:class:`~repro.net.reliable.ReliableEndpoint` (retries, circuit
breaking), the server can run with a **standby replica** it mirrors
registrations to, and the client is a :class:`CachingFormatResolver`
that

* serves every previously seen format from its **local cache** without
  touching the network,
* fails over to the next server in its list when a request times out,
  is rejected by an open circuit, or exhausts its retries,
* enters **degraded mode** when every server is unreachable — cached
  formats keep resolving, unknown ids report a miss instead of hanging,
  and registrations are queued for replay when a server answers again.

The wire protocol is JSON (deliberately not PBIO: the meta-data
channel must not depend on the meta-data it serves).  Both sides count
what they do in a plain ``stats`` dict.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FormatError, TransportError
from repro.net.reliable import ReliableEndpoint, SendTicket
from repro.net.transport import Network
from repro.obs import OBS
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat, project_format
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.serialization import (
    format_from_dict,
    format_to_dict,
    transform_from_dict,
    transform_to_dict,
)

ResolveCallback = Callable[[Optional[IOFormat]], None]

#: One negotiated projection state, as shipped to clients:
#: ``{"epoch": int, "format": Optional[ProjectionFormat], "full": bool}``.
ProjectionState = Dict[str, Any]
ProjectionCallback = Callable[[Optional[ProjectionState]], None]


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8")


def _decode(data: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed format-server message: {exc}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise TransportError("format-server message missing 'op'")
    return message


class FormatServer:
    """A format server process on the reliable transport.

    Operations (JSON, request/reply correlated by ``id``):

    * ``register`` — store formats + transforms; replied with
      ``register_ok``; mirrored to the standby *peer* when configured,
    * ``lookup`` — fetch a format by id, shipped together with its whole
      transform closure so the client can morph without extra round
      trips,
    * ``sync`` — replica mirror traffic (never re-forwarded, so two
      servers may peer with each other without loops),
    * ``interest`` — a subscriber announces (or retracts) the field set
      it can observe for a *parent* format within a *group*; the server
      recomputes the group's union projection, derives + registers a
      :class:`~repro.pbio.projection.ProjectionFormat` at a fresh epoch
      when the union changed, and replies ``interest_state``,
    * ``interest_lookup`` — a sender asks for the current projection
      state of (parent format, group) and is remembered as a *watcher*:
      every later renegotiation is pushed to it as an unsolicited
      ``projection_update``.
    """

    def __init__(
        self,
        network: Network,
        address: str = "format-server",
        registry: Optional[FormatRegistry] = None,
        peer: Optional[str] = None,
        seed: int = 0,
        interest_ttl: Optional[float] = None,
        **endpoint_options: Any,
    ) -> None:
        self.endpoint = ReliableEndpoint(
            network, address, seed=seed, **endpoint_options
        )
        self.endpoint.set_handler(self._on_message)
        self.registry = registry if registry is not None else FormatRegistry()
        self.peer = peer
        #: interests not renewed (re-announced) within this many virtual
        #: seconds are aged out at the next interest touch or
        #: :meth:`sweep_interests` call, widening the projection back —
        #: the crashed-sink-never-retracts case.  ``None`` disables aging.
        self.interest_ttl = interest_ttl
        self.stats = {
            "registers": 0,
            "lookups": 0,
            "misses": 0,
            "syncs": 0,
            "interests": 0,
            "interest_lookups": 0,
            "renegotiations": 0,
            "interest_expirations": 0,
        }
        #: per (parent format id, group): subscriber address -> announced
        #: field names (``None`` = needs the full format)
        self._interests: Dict[Tuple[int, str], Dict[str, Optional[List[str]]]] = {}
        #: per (parent format id, group): virtual time each subscriber
        #: last announced (lease stamps for interest aging)
        self._interest_renewed: Dict[Tuple[int, str], Dict[str, float]] = {}
        #: per (parent format id, group): the parent format, kept so a
        #: TTL sweep can renegotiate without a fresh announcement
        self._interest_parents: Dict[Tuple[int, str], IOFormat] = {}
        #: per (parent format id, group): the current negotiated state
        self._projections: Dict[Tuple[int, str], ProjectionState] = {}
        #: per (parent format id, group): sender addresses to push
        #: ``projection_update`` messages to on renegotiation
        self._watchers: Dict[Tuple[int, str], Set[str]] = {}

    @property
    def address(self) -> str:
        return self.endpoint.address

    @property
    def node(self):
        return self.endpoint.node

    def close(self) -> None:
        """Crash the server (its node drops all incoming traffic)."""
        self.endpoint.node.close()

    def reopen(self) -> None:
        """Bring a crashed server back up."""
        self.endpoint.node.reopen()

    # ------------------------------------------------------------------

    def _on_message(self, source: str, data: bytes) -> None:
        message = _decode(data)
        op = message["op"]
        if op == "register":
            self._ingest(message)
            self.stats["registers"] += 1
            self.endpoint.send(
                source,
                _encode({"op": "register_ok", "id": message.get("id")}),
            )
            if self.peer is not None:
                mirror = dict(message)
                mirror["op"] = "sync"
                mirror.pop("id", None)
                self.endpoint.send(self.peer, _encode(mirror))
        elif op == "sync":
            self._ingest(message)
            self.stats["syncs"] += 1
        elif op == "lookup":
            self._handle_lookup(source, message)
        elif op == "interest":
            self._handle_interest(source, message)
        elif op == "interest_lookup":
            self._handle_interest_lookup(source, message)
        # unknown ops are dropped: the server must tolerate newer clients

    def _ingest(self, message: Dict[str, Any]) -> None:
        # ``replace`` rather than ``register``: a client re-uploading
        # different content under a cached id (a re-derived projection, a
        # hostile writer) must refresh the entry, not crash the server.
        for fmt_dict in message.get("formats", ()):
            self.registry.replace(format_from_dict(fmt_dict))
        for spec_dict in message.get("transforms", ()):
            self.registry.register_transform(transform_from_dict(spec_dict))

    def _handle_lookup(self, source: str, message: Dict[str, Any]) -> None:
        self.stats["lookups"] += 1
        format_id = int(message["format_id"])
        fmt = self.registry.lookup_id(format_id)
        reply: Dict[str, Any] = {
            "op": "lookup_reply",
            "id": message.get("id"),
            "format_id": str(format_id),
            "found": fmt is not None,
        }
        if fmt is None:
            self.stats["misses"] += 1
        else:
            chains = self.registry.transform_closure(fmt)
            specs = {id(s): s for chain in chains for s in chain}
            reply["format"] = format_to_dict(fmt)
            reply["transforms"] = [
                transform_to_dict(s) for s in specs.values()
            ]
            if isinstance(fmt, ProjectionFormat):
                # Ship the parent alongside, so a subscriber that joins
                # mid-stream (first message already projected) can plan
                # the projection route through the parent immediately.
                parent = self.registry.lookup_id(fmt.parent_format_id)
                if parent is not None:
                    reply["parent"] = format_to_dict(parent)
        self.endpoint.send(source, _encode(reply))

    # ------------------------------------------------------------------
    # Interest negotiation (projection push-down)
    # ------------------------------------------------------------------

    def _handle_interest(self, source: str, message: Dict[str, Any]) -> None:
        self.stats["interests"] += 1
        group = str(message.get("group", ""))
        try:
            parent = format_from_dict(message.get("parent") or {})
        except FormatError:
            self.endpoint.send(source, _encode({
                "op": "interest_state", "id": message.get("id"),
                "malformed": True,
            }))
            return
        self.registry.replace(parent)
        key = (parent.format_id, group)
        self._interest_parents[key] = parent
        interests = self._interests.setdefault(key, {})
        renewed = self._interest_renewed.setdefault(key, {})
        if message.get("retract"):
            interests.pop(source, None)
            renewed.pop(source, None)
        else:
            fields = message.get("fields")
            interests[source] = (
                [str(name) for name in fields] if fields is not None else None
            )
            renewed[source] = self.endpoint.network.now
        self._expire_interests(key, parent)
        self._renegotiate(key, parent)
        self.endpoint.send(
            source,
            _encode(self._state_reply(key, parent, message.get("id"))),
        )

    def _handle_interest_lookup(
        self, source: str, message: Dict[str, Any]
    ) -> None:
        self.stats["interest_lookups"] += 1
        group = str(message.get("group", ""))
        try:
            parent = format_from_dict(message.get("parent") or {})
        except FormatError:
            self.endpoint.send(source, _encode({
                "op": "interest_state", "id": message.get("id"),
                "malformed": True,
            }))
            return
        self.registry.replace(parent)
        key = (parent.format_id, group)
        self._interest_parents[key] = parent
        self._watchers.setdefault(key, set()).add(source)
        if self._expire_interests(key, parent):
            self._renegotiate(key, parent)
        self.endpoint.send(
            source,
            _encode(self._state_reply(key, parent, message.get("id"))),
        )

    def _expire_interests(
        self, key: Tuple[int, str], parent: IOFormat
    ) -> bool:
        """Age out interests whose holder stopped re-announcing within
        :attr:`interest_ttl`.  Returns True when any expired (the caller
        renegotiates, widening the projection back toward the parent)."""
        if self.interest_ttl is None:
            return False
        renewed = self._interest_renewed.get(key)
        if not renewed:
            return False
        now = self.endpoint.network.now
        interests = self._interests.get(key, {})
        expired = [
            source for source, stamp in renewed.items()
            if now - stamp > self.interest_ttl
        ]
        for source in expired:
            renewed.pop(source, None)
            interests.pop(source, None)
            self.stats["interest_expirations"] += 1
        return bool(expired)

    def sweep_interests(self) -> int:
        """Proactive TTL pass over every interest group (the lazy path
        only ages a group when it is next touched).  Returns the number
        of groups whose projection renegotiated."""
        changed = 0
        for key in list(self._interest_renewed):
            parent = self._interest_parents.get(key)
            if parent is None:
                continue
            if self._expire_interests(key, parent):
                before = self.stats["renegotiations"]
                self._renegotiate(key, parent)
                if self.stats["renegotiations"] != before:
                    changed += 1
        return changed

    def _renegotiate(self, key: Tuple[int, str], parent: IOFormat) -> None:
        """Recompute the union projection for *key*; on change, derive
        the next epoch's format, register it (old epochs stay registered
        so in-flight frames remain decodable) and push the new state to
        every watching sender."""
        interests = self._interests.get(key) or {}
        declared = {field.name for field in parent.fields}
        union: Optional[Set[str]] = set()
        if not interests:
            union = None
        else:
            for fields in interests.values():
                if fields is None:
                    union = None
                    break
                union.update(fields)
        if union is not None:
            # Unknown names (a subscriber announcing against a stale
            # revision) are ignored rather than rejected.
            union &= declared
            if union >= declared:
                union = None
            elif not union:
                # An all-dead subscriber group still needs decodable
                # frames; keep the parent's first field.
                union = {parent.fields[0].name}
        state = self._projections.get(key)
        previous = None if state is None else state["fields"]
        if state is not None and (
            (previous is None) == (union is None)
            and (previous is None or set(previous) == union)
        ):
            return  # no effective change
        if state is None and union is None:
            # First announcement already wants the full format: record
            # the state at epoch 0 without counting a renegotiation.
            self._projections[key] = {"epoch": 0, "fields": None, "format": None}
            return
        epoch = (state["epoch"] if state is not None else 0) + 1
        fmt: Optional[ProjectionFormat] = None
        fields_list: Optional[List[str]] = None
        if union is not None:
            fmt = project_format(parent, union, epoch)
            fields_list = fmt.field_names()
            self.registry.replace(fmt)
            if self.peer is not None:
                self.endpoint.send(self.peer, _encode({
                    "op": "sync",
                    "formats": [format_to_dict(fmt)],
                    "transforms": [],
                }))
        self._projections[key] = {
            "epoch": epoch, "fields": fields_list, "format": fmt,
        }
        self.stats["renegotiations"] += 1
        self._push_update(key, parent)

    def _state_reply(
        self, key: Tuple[int, str], parent: IOFormat, request_id: Any
    ) -> Dict[str, Any]:
        state = self._projections.get(key)
        fmt = None if state is None else state["format"]
        reply: Dict[str, Any] = {
            "op": "interest_state",
            "id": request_id,
            "group": key[1],
            "parent_format_id": str(parent.format_id),
            "epoch": 0 if state is None else state["epoch"],
            "full": fmt is None,
        }
        if fmt is not None:
            reply["projection"] = format_to_dict(fmt)
        return reply

    def _push_update(self, key: Tuple[int, str], parent: IOFormat) -> None:
        watchers = self._watchers.get(key)
        if not watchers:
            return
        update = self._state_reply(key, parent, None)
        update["op"] = "projection_update"
        del update["id"]
        wire = _encode(update)
        # sorted: push order must be reproducible under the seeded
        # fault-injection harness
        for watcher in sorted(watchers):
            self.endpoint.send(watcher, wire)


class _Request:
    """One in-flight client request, across failover attempts."""

    __slots__ = ("message", "on_reply", "on_fail", "servers_left", "timer",
                 "done")

    def __init__(
        self,
        message: Dict[str, Any],
        on_reply: Callable[[Dict[str, Any]], None],
        on_fail: Callable[[], None],
        servers_left: List[str],
    ) -> None:
        self.message = message
        self.on_reply = on_reply
        self.on_fail = on_fail
        self.servers_left = servers_left
        self.timer = None
        self.done = False


class CachingFormatResolver:
    """A client of the format-server fleet with a local format cache.

    The cache is a full :class:`FormatRegistry` (formats *and*
    transforms), so a :class:`~repro.morph.receiver.MorphReceiver` can
    run directly against it — resolving a format once makes every
    subsequent message of that format a pure local operation.

    Parameters
    ----------
    servers:
        Server addresses in preference order; the resolver fails over
        down the list and sticks with whichever answered last.
    request_timeout:
        Virtual seconds to wait for a reply before trying the next
        server (on top of the reliable endpoint's own retry budget,
        which covers lost frames; this covers lost *servers*).
    """

    def __init__(
        self,
        network: Network,
        address: str,
        servers: Sequence[str] = ("format-server",),
        registry: Optional[FormatRegistry] = None,
        request_timeout: float = 2.0,
        seed: int = 0,
        **endpoint_options: Any,
    ) -> None:
        if not servers:
            raise TransportError("resolver needs at least one server address")
        self.network = network
        self.endpoint = ReliableEndpoint(
            network, address, seed=seed, **endpoint_options
        )
        self.endpoint.set_handler(self._on_message)
        self.registry = registry if registry is not None else FormatRegistry()
        self.servers = list(servers)
        self.request_timeout = request_timeout
        #: index into ``servers`` of the server currently trusted
        self.active_server = 0
        self.degraded = False
        self._ids = itertools.count(1)
        self._requests: Dict[int, _Request] = {}
        #: lookup callbacks coalesced per format id
        self._inflight: Dict[int, List[ResolveCallback]] = {}
        #: registration payloads queued while degraded
        self._pending_registrations: List[Dict[str, Any]] = []
        #: non-meta traffic handler (a receiver, an application...)
        self.data_handler: Optional[Callable[[str, bytes], None]] = None
        #: fired with a format id whenever a server reply displaced
        #: different cached content under that id — receivers hook this
        #: to drop their cached morph routes for the stale entry
        self.on_invalidate: Optional[Callable[[int], None]] = None
        #: last known projection state per (parent format id, group)
        self._projection_states: Dict[Tuple[int, str], ProjectionState] = {}
        #: interests this endpoint has announced (and not retracted),
        #: per (group, parent format id) — replayed by
        #: :meth:`reannounce_interests` to renew server-side TTL leases
        self._announced_interests: Dict[
            Tuple[str, int], Tuple[IOFormat, Optional[List[str]]]
        ] = {}
        #: projection-update callbacks per (parent format id, group)
        self._projection_watches: Dict[
            Tuple[int, str], List[ProjectionCallback]
        ] = {}
        self.stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "lookups_sent": 0,
            "failovers": 0,
            "degraded_misses": 0,
            "queued_registrations": 0,
            "replayed_registrations": 0,
            "invalidations": 0,
            "interests_sent": 0,
            "interest_lookups_sent": 0,
            "interest_reannounces": 0,
            "projection_updates": 0,
        }

    @property
    def address(self) -> str:
        return self.endpoint.address

    @property
    def cache(self) -> FormatRegistry:
        """Alias for :attr:`registry` — the local replica."""
        return self.registry

    @property
    def pending_registrations(self) -> int:
        return len(self._pending_registrations)

    # ------------------------------------------------------------------
    # Registration (writer side)
    # ------------------------------------------------------------------

    def register(
        self,
        *formats: IOFormat,
        transforms: Sequence[TransformSpec] = (),
    ) -> None:
        """Register formats/transforms locally (always succeeds — the
        cache is authoritative for this process) and push them to the
        format server, queueing the upload when degraded."""
        for fmt in formats:
            self.registry.register(fmt)
        for spec in transforms:
            self.registry.register_transform(spec)
        payload = {
            "op": "register",
            "formats": [format_to_dict(f) for f in formats],
            "transforms": [transform_to_dict(s) for s in transforms],
        }
        if not formats and not transforms:
            return
        self._send_registration(payload)

    def publish(self) -> None:
        """Upload the entire local registry — what a writer does at
        startup (or after recovering from degraded mode)."""
        formats = self.registry.formats()
        transforms = [
            spec
            for fmt in formats
            for spec in self.registry.transforms_from(fmt)
        ]
        self._send_registration({
            "op": "register",
            "formats": [format_to_dict(f) for f in formats],
            "transforms": [transform_to_dict(s) for s in transforms],
        })

    def _send_registration(self, payload: Dict[str, Any]) -> None:
        if self.degraded:
            self._queue_registration(payload)
            return
        self._request(
            payload,
            on_reply=lambda _reply: None,
            on_fail=lambda: self._queue_registration(payload),
        )

    def _queue_registration(self, payload: Dict[str, Any]) -> None:
        self._pending_registrations.append(payload)
        self.stats["queued_registrations"] += 1
        self.degraded = True

    # ------------------------------------------------------------------
    # Resolution (reader side)
    # ------------------------------------------------------------------

    def resolve(
        self, format_id: int, on_done: Optional[ResolveCallback] = None
    ) -> Optional[IOFormat]:
        """Resolve *format_id* to a format.

        Cache hits return the format immediately (and invoke *on_done*
        synchronously).  Misses return ``None`` and fetch it from the
        server fleet; *on_done* fires with the format — or ``None`` when
        every server is unreachable or none knows the id — once the
        outcome is known.  Concurrent misses for one id are coalesced
        into a single request."""
        fmt = self.registry.lookup_id(format_id)
        if fmt is not None:
            self.stats["cache_hits"] += 1
            if on_done is not None:
                on_done(fmt)
            return fmt
        self.stats["cache_misses"] += 1
        if self.degraded:
            # Degraded mode serves only the cache; report the miss
            # instead of hanging on a fleet we know is down.
            self.stats["degraded_misses"] += 1
            if on_done is not None:
                on_done(None)
            return None
        callbacks = self._inflight.get(format_id)
        if callbacks is not None:
            # A fetch for this id is already in flight — coalesce.
            if on_done is not None:
                callbacks.append(on_done)
            return None
        self._lookup(format_id, on_done)
        return None

    def refresh(
        self, format_id: int, on_done: Optional[ResolveCallback] = None
    ) -> None:
        """Force a server lookup for *format_id* even when it is cached,
        merging the reply's format **and transform closure** into the
        local cache.  A receiver that knows a format but has no
        transform path for it calls this to pull the writer's
        retro-transformations before falling back to lossy
        reconciliation.  *on_done* fires with the freshest locally known
        format (the cached one when the fleet is unreachable)."""
        cached = self.registry.lookup_id(format_id)
        if self.degraded:
            if on_done is not None:
                on_done(cached)
            return
        callbacks = self._inflight.get(format_id)
        wrapped: Optional[ResolveCallback] = None
        if on_done is not None:
            # A refresh is best-effort: fall back to the cached format
            # when the lookup fails instead of reporting None.
            wrapped = lambda fmt: on_done(fmt if fmt is not None else cached)
        if callbacks is not None:
            if wrapped is not None:
                callbacks.append(wrapped)
            return
        self._lookup(format_id, wrapped)

    def _lookup(
        self, format_id: int, on_done: Optional[ResolveCallback]
    ) -> None:
        self._inflight[format_id] = [on_done] if on_done is not None else []
        self.stats["lookups_sent"] += 1
        if OBS.enabled:
            # Initiation marker only: the reply arrives asynchronously,
            # and the parked message's replay re-joins the trace from its
            # own wire-carried context.  Recorded while the triggering
            # message's context is still active, so the flight recorder
            # shows the out-of-band fetch as part of the journey.
            with OBS.tracer.span(
                "pbio.resolver.lookup",
                format_id=format_id,
                resolver=self.address,
            ):
                pass
        self._request(
            {"op": "lookup", "format_id": str(format_id)},
            on_reply=lambda reply: self._finish_resolve(format_id, reply),
            on_fail=lambda: self._finish_resolve(format_id, None),
        )

    def _finish_resolve(
        self, format_id: int, reply: Optional[Dict[str, Any]]
    ) -> None:
        fmt: Optional[IOFormat] = None
        if reply is not None and reply.get("found"):
            fmt = format_from_dict(reply["format"])
            self._ingest_format(fmt)
            parent_dict = reply.get("parent")
            if parent_dict is not None:
                # A projection lookup ships its parent alongside; cache
                # it so the receiver can plan the projection route.
                try:
                    self._ingest_format(format_from_dict(parent_dict))
                except FormatError:
                    pass  # hostile or stale provenance: keep the format
            for spec_dict in reply.get("transforms", ()):
                self.registry.register_transform(transform_from_dict(spec_dict))
        for callback in self._inflight.pop(format_id, ()):
            callback(fmt)

    def _ingest_format(self, fmt: IOFormat) -> None:
        """Merge a server-shipped format into the local cache.  The
        server is authoritative: different cached content under the same
        id is displaced (``FormatRegistry.replace``), counted as an
        invalidation, and reported through :attr:`on_invalidate` so
        receivers drop lookup/route state compiled against the stale
        entry."""
        if self.registry.replace(fmt):
            self.stats["invalidations"] += 1
            if self.on_invalidate is not None:
                self.on_invalidate(fmt.format_id)

    # ------------------------------------------------------------------
    # Projection negotiation (interest push-down)
    # ------------------------------------------------------------------

    def announce_interest(
        self,
        group: str,
        parent: IOFormat,
        fields: Optional[Sequence[str]],
        retract: bool = False,
        on_state: Optional[ProjectionCallback] = None,
    ) -> None:
        """Announce (or retract) this subscriber's interest in *parent*
        within *group*: the top-level field names its handler can ever
        observe, or ``None`` when it needs every field.  The server
        unions interests across the group, derives the projection format,
        and replies with the new state (*on_state*; ``None`` when the
        fleet is unreachable — projection is an optimization, degraded
        mode simply keeps full-format traffic)."""
        self.registry.register(parent)
        self.stats["interests_sent"] += 1
        if retract:
            self._announced_interests.pop((group, parent.format_id), None)
        else:
            self._announced_interests[(group, parent.format_id)] = (
                parent, list(fields) if fields is not None else None,
            )
        if self.degraded:
            if on_state is not None:
                on_state(None)
            return
        payload: Dict[str, Any] = {
            "op": "interest",
            "group": group,
            "parent": format_to_dict(parent),
            "fields": sorted(fields) if fields is not None else None,
        }
        if retract:
            payload["retract"] = True
        self._request(
            payload,
            on_reply=lambda reply: self._ingest_projection_state(
                reply, on_state
            ),
            on_fail=lambda: on_state(None) if on_state is not None else None,
        )

    def reannounce_interests(self) -> int:
        """Replay every live interest announcement — the heartbeat-side
        half of interest aging: a subscriber that is alive keeps its
        server-side TTL lease fresh by re-announcing on its heartbeat
        cadence; a crashed one stops, and the server widens the
        projection back once the TTL lapses.  No-op while degraded
        (projection is an optimization; full-format traffic flows
        anyway).  Returns the number of announcements sent."""
        if self.degraded:
            return 0
        sent = 0
        for (group, _parent_id), (parent, fields) in sorted(
            self._announced_interests.items()
        ):
            sent += 1
            self.stats["interest_reannounces"] += 1
            self._request(
                {
                    "op": "interest",
                    "group": group,
                    "parent": format_to_dict(parent),
                    "fields": sorted(fields) if fields is not None else None,
                },
                on_reply=lambda reply: self._ingest_projection_state(reply),
                on_fail=lambda: None,
            )
        return sent

    def watch_projection(
        self,
        group: str,
        parent: IOFormat,
        on_update: Optional[ProjectionCallback] = None,
    ) -> None:
        """Sender side: fetch the current projection state of
        (*parent*, *group*) and register as a watcher — *on_update* fires
        for the initial state and for every later renegotiation pushed
        by the server."""
        key = (parent.format_id, group)
        if on_update is not None:
            self._projection_watches.setdefault(key, []).append(on_update)
        self.registry.register(parent)
        self.stats["interest_lookups_sent"] += 1
        if self.degraded:
            return
        self._request(
            {
                "op": "interest_lookup",
                "group": group,
                "parent": format_to_dict(parent),
            },
            on_reply=self._ingest_projection_state,
            on_fail=lambda: None,
        )

    def projection_state(
        self, parent_format_id: int, group: str
    ) -> Optional[ProjectionState]:
        """The last projection state seen for (*parent_format_id*,
        *group*) — ``None`` before any reply arrived."""
        return self._projection_states.get((parent_format_id, group))

    def _ingest_projection_state(
        self,
        message: Dict[str, Any],
        on_state: Optional[ProjectionCallback] = None,
    ) -> None:
        """Parse an ``interest_state`` reply or ``projection_update``
        push, merge the projection format into the cache, remember the
        state and fire the watchers.  Malformed messages yield ``None``
        without touching cached state."""
        state: Optional[ProjectionState] = None
        key: Optional[Tuple[int, str]] = None
        try:
            parent_id = int(message["parent_format_id"])
            epoch = int(message.get("epoch", 0))
        except (KeyError, TypeError, ValueError):
            parent_id = None
        if parent_id is not None:
            key = (parent_id, str(message.get("group", "")))
            fmt: Optional[IOFormat] = None
            proj_dict = message.get("projection")
            try:
                if proj_dict is not None:
                    fmt = format_from_dict(proj_dict)
                    self._ingest_format(fmt)
                state = {
                    "epoch": epoch,
                    "format": fmt,
                    "full": fmt is None,
                }
            except FormatError:
                state = None  # hostile projection description: drop
        if state is not None and key is not None:
            self._projection_states[key] = state
            self.stats["projection_updates"] += 1
            for callback in list(self._projection_watches.get(key, ())):
                callback(state)
        if on_state is not None:
            on_state(state)

    # ------------------------------------------------------------------
    # Request plumbing: correlation, timeout, failover, degradation
    # ------------------------------------------------------------------

    def _request(
        self,
        message: Dict[str, Any],
        on_reply: Callable[[Dict[str, Any]], None],
        on_fail: Callable[[], None],
    ) -> None:
        order = (
            self.servers[self.active_server:]
            + self.servers[:self.active_server]
        )
        request = _Request(dict(message), on_reply, on_fail, order)
        request.message["id"] = next(self._ids)
        self._requests[request.message["id"]] = request
        self._attempt(request, first=True)

    def _attempt(self, request: _Request, first: bool = False) -> None:
        if request.done:
            return
        if not request.servers_left:
            request.done = True
            self._requests.pop(request.message["id"], None)
            self.degraded = True
            request.on_fail()
            return
        server = request.servers_left.pop(0)
        if not first:
            self.stats["failovers"] += 1
            self.active_server = self.servers.index(server)
        if request.timer is not None:
            request.timer.cancel()
        request.timer = self.network.call_later(
            self.request_timeout, lambda: self._attempt(request)
        )

        def on_result(ticket: SendTicket) -> None:
            # Rejected (open circuit) or failed (retries exhausted):
            # don't wait for the timeout, move on immediately.
            if ticket.state in ("failed", "rejected") and not request.done:
                self._attempt(request)

        self.endpoint.send(server, _encode(request.message), on_result)

    def _on_message(self, source: str, data: bytes) -> None:
        if data[:1] == b"{" and source in self.servers:
            try:
                message = _decode(data)
            except TransportError:
                return  # hostile or truncated meta traffic: drop
            op = message.get("op")
            if op in ("lookup_reply", "register_ok", "interest_state"):
                self._handle_reply(message)
                return
            if op == "projection_update":
                # Unsolicited renegotiation push from the fleet — no
                # request to correlate with.
                self._ingest_projection_state(message)
                return
        if self.data_handler is not None:
            self.data_handler(source, data)

    def _handle_reply(self, message: Dict[str, Any]) -> None:
        request = self._requests.pop(message.get("id"), None)
        if request is None or request.done:
            return
        request.done = True
        if request.timer is not None:
            request.timer.cancel()
        self._exit_degraded()
        request.on_reply(message)

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------

    def _exit_degraded(self) -> None:
        self.degraded = False
        self._flush_pending()

    def _flush_pending(self) -> None:
        """Replay registrations queued while degraded."""
        pending, self._pending_registrations = self._pending_registrations, []
        for payload in pending:
            self.stats["replayed_registrations"] += 1
            self._send_registration(payload)

    def retry_pending(self) -> int:
        """Probe the fleet again after degradation: re-send queued
        registrations (success flips the resolver out of degraded mode
        via the reply path).  Returns how many uploads were attempted."""
        count = len(self._pending_registrations)
        if not count:
            return 0
        # Optimistic: flip out of degraded mode so the probes go out;
        # failure re-enters it, success is confirmed by the reply path.
        self._exit_degraded()
        return count
