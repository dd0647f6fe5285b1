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
channel must not depend on the meta-data it serves), declared once in
:data:`PROTOCOL`.  Both sides read every message through that table and
refuse one that does not fit, whole, before anything is stored: the
refusal is counted in ``errors`` and kept in ``last_error``.  What they
do is counted in a plain ``stats`` dict.
"""

from __future__ import annotations

import itertools
import json
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple)

from repro.errors import ReproError, TransportError
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TransportError(f"malformed format-server message: {exc}") from None
    if not (isinstance(message, dict) and "op" in message
            and isinstance(message["op"], str)):
        raise TransportError("format-server message missing 'op'")
    return message


# ----------------------------------------------------------------------
# The protocol, declared once
# ----------------------------------------------------------------------


def _typed(kind: type) -> Callable[[Any], Any]:
    """Reads a value of exactly this JSON type (``true`` is no integer)."""
    def parse(value: Any) -> Any:
        if type(value) is not kind:
            raise TypeError(f"must be {kind.__name__}, got {type(value).__name__}")
        return value
    return parse


def _wire_id(value: Any) -> int:
    if not _typed(str)(value).isdecimal():
        raise ValueError(f"must be a decimal format id, got {value[:32]!r}")
    return int(value)


def _names(value: Any) -> List[str]:
    return [_typed(str)(name) for name in _typed(list)(value)]


def _formats(value: Any) -> List[IOFormat]:
    return [format_from_dict(item) for item in _typed(list)(value)]


def _transforms(value: Any) -> List[TransformSpec]:
    return [transform_from_dict(item) for item in _typed(list)(value)]


_REQUIRED = object()


class _Key(NamedTuple):
    """One key of one op: how its value is read, and its default when
    absent (:data:`_REQUIRED`: none, the message is refused).  A key
    whose default is ``None`` may also be sent as ``null``.  With *when*
    ``(flag, value)`` the key is read only when that earlier flag key
    read *value*, and reads ``None`` otherwise."""

    parse: Callable[[Any], Any]
    default: Any = _REQUIRED
    when: Optional[Tuple[str, bool]] = None


_ID = _Key(_typed(int))
_FORMATS = {"formats": _Key(_formats, ()), "transforms": _Key(_transforms, ())}
_INTEREST = {"id": _ID, "group": _Key(_typed(str), ""),
             "parent": _Key(format_from_dict)}
_STATE = {"group": _Key(_typed(str)), "parent_format_id": _Key(_wire_id),
          "epoch": _Key(_typed(int)), "full": _Key(_typed(bool)),
          "projection": _Key(format_from_dict, None)}
_FOUND = ("found", True)

#: Every op of the format-server protocol and its keys, in the order
#: they are read (``id`` first, so a refused message whose id reads can
#: still be answered or failed over).  Format and transform descriptions
#: are parsed in the same read.
PROTOCOL: Dict[str, Dict[str, _Key]] = {
    # requests, read by FormatServer
    "register": {"id": _ID, **_FORMATS},
    "sync": _FORMATS,
    "lookup": {"id": _ID, "format_id": _Key(_wire_id)},
    "interest": {**_INTEREST, "fields": _Key(_names, None),
                 "retract": _Key(_typed(bool), False)},
    "interest_lookup": _INTEREST,
    # replies, read by CachingFormatResolver
    "register_ok": {"id": _ID},
    "lookup_reply": {
        "id": _ID, "format_id": _Key(_wire_id), "found": _Key(_typed(bool)),
        "format": _Key(format_from_dict, when=_FOUND),
        "parent": _Key(format_from_dict, None, _FOUND),
        "transforms": _Key(_transforms, (), _FOUND),
    },
    "interest_state": {
        "id": _ID, "malformed": _Key(_typed(bool), False),
        **{key: spec._replace(when=("malformed", False))
           for key, spec in _STATE.items()},
    },
    "projection_update": _STATE,
}
REPLIES = ("register_ok", "lookup_reply", "interest_state", "projection_update")
#: the requests whose refusal is answered: by this op, with the request's
#: id and ``"malformed": true`` (other refusals go unanswered)
REFUSAL_REPLIES = {"interest": "interest_state",
                   "interest_lookup": "interest_state"}


def _check(message: Dict[str, Any], read: Dict[str, Any]) -> Dict[str, Any]:
    """Read *message* against its op's row of :data:`PROTOCOL` into, and
    return, *read*: every declared key, parsed or defaulted.  A message
    that does not fit raises :class:`TransportError` naming the op and
    the key, and *read* then holds the keys read before it."""
    op = message["op"]
    for key, (parse, default, when) in PROTOCOL[op].items():
        value = message[key] if key in message else default
        if when is not None and read[when[0]] is not when[1]:
            read[key] = None
        elif value is _REQUIRED:
            raise TransportError(f"format-server {op!r} lacks {key!r}")
        elif value is default:
            read[key] = value
        else:
            try:
                read[key] = parse(value)
            except (ReproError, LookupError, TypeError, ValueError,
                    AttributeError, RecursionError) as exc:
                raise TransportError(
                    f"format-server {op!r} has a bad {key!r}: {exc}"
                ) from None
    return read


class FormatServer:
    """A format server process on the reliable transport.

    Operations (JSON, request/reply correlated by ``id``; their keys are
    in :data:`PROTOCOL`):

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
            "lookups": 0,
            "misses": 0,
            "syncs": 0,
            "renegotiations": 0,
            "interest_expirations": 0,
        }
        #: requests refused as malformed, and the last refusal
        self.errors = 0
        self.last_error: Optional[BaseException] = None
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
        self.endpoint.reopen()

    # ------------------------------------------------------------------

    def _on_message(self, source: str, data: bytes) -> None:
        request: Dict[str, Any] = {}
        try:
            message = _decode(data)
            op = message["op"]
            if op == "register" or op == "sync":
                self._ingest(message)
                if op == "sync":
                    self.stats["syncs"] += 1
                    return
                self.endpoint.send(source, _encode(
                    {"op": "register_ok", "id": message["id"]}))
                if self.peer is not None:
                    mirror = dict(message, op="sync")
                    del mirror["id"]
                    self.endpoint.send(self.peer, _encode(mirror))
            elif op == "lookup":
                self._handle_lookup(source, _check(message, request))
            elif op == "interest" or op == "interest_lookup":
                self._handle_interest(source, op, _check(message, request))
            # other ops are dropped: the server must tolerate newer clients
        except ReproError as exc:  # a refused request
            self.errors += 1
            self.last_error = exc
            if "id" in request and op in REFUSAL_REPLIES:
                self.endpoint.send(source, _encode({
                    "op": REFUSAL_REPLIES[op], "id": request["id"],
                    "malformed": True,
                }))

    def _ingest(self, message: Dict[str, Any]) -> None:
        # Read whole before anything is stored.  ``replace`` rather than
        # ``register``: a client re-uploading different content under a
        # cached id (a re-derived projection, a hostile writer) must
        # refresh the entry, not crash the server.
        request = _check(message, {})
        for fmt in request["formats"]:
            self.registry.replace(fmt)
        for spec in request["transforms"]:
            self.registry.register_transform(spec)

    def _handle_lookup(self, source: str, request: Dict[str, Any]) -> None:
        format_id = request["format_id"]
        self.stats["lookups"] += 1
        fmt = self.registry.lookup_id(format_id)
        reply: Dict[str, Any] = {
            "op": "lookup_reply",
            "id": request["id"],
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

    def _handle_interest(
        self, source: str, op: str, request: Dict[str, Any]
    ) -> None:
        parent = request["parent"]
        self.registry.replace(parent)
        key = (parent.format_id, request["group"])
        self._interest_parents[key] = parent
        if op == "interest_lookup":
            self._watchers.setdefault(key, set()).add(source)
            if self._expire_interests(key, parent):
                self._renegotiate(key, parent)
        else:
            interests = self._interests.setdefault(key, {})
            renewed = self._interest_renewed.setdefault(key, {})
            if request["retract"]:
                interests.pop(source, None)
                renewed.pop(source, None)
            else:
                interests[source] = request["fields"]
                renewed[source] = self.endpoint.network.now
            self._expire_interests(key, parent)
            self._renegotiate(key, parent)
        self.endpoint.send(
            source, _encode(self._state_reply(key, parent, request["id"]))
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




def _interest(group: str, parent: IOFormat,
              fields: Optional[Sequence[str]]) -> Dict[str, Any]:
    """The ``interest`` request announcing *fields* of *parent* in
    *group* (``None``: every field)."""
    return {"op": "interest", "group": group, "parent": format_to_dict(parent),
            "fields": sorted(fields) if fields is not None else None}


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
            "replayed_registrations": 0,
            "invalidations": 0,
            "interest_reannounces": 0,
            "projection_updates": 0,
        }
        #: replies refused as malformed, and the last refusal
        self.errors = 0
        self.last_error: Optional[BaseException] = None

    @property
    def address(self) -> str:
        return self.endpoint.address

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
        if formats or transforms:
            self._upload(formats, transforms)

    def publish(self) -> None:
        """Upload the entire local registry — what a writer does at
        startup (or after recovering from degraded mode)."""
        formats = self.registry.formats()
        self._upload(formats, [
            spec
            for fmt in formats
            for spec in self.registry.transforms_from(fmt)
        ])

    def _upload(self, formats: Sequence[IOFormat],
                transforms: Sequence[TransformSpec]) -> None:
        self._send_registration({
            "op": "register", "formats": [format_to_dict(f) for f in formats],
            "transforms": [transform_to_dict(s) for s in transforms]})

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
        fmt = None if reply is None else reply["format"]
        if fmt is not None:
            self._ingest_format(fmt)
            if reply["parent"] is not None:
                # A projection lookup ships its parent alongside; cache
                # it so the receiver can plan the projection route.
                self._ingest_format(reply["parent"])
            for spec in reply["transforms"]:
                self.registry.register_transform(spec)
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
        payload = _interest(group, parent, fields)
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
                _interest(group, parent, fields),
                on_reply=self._ingest_projection_state,
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
        reply: Dict[str, Any],
        on_state: Optional[ProjectionCallback] = None,
    ) -> None:
        """Merge an ``interest_state`` reply or ``projection_update``
        push: cache its projection format, remember the state and fire
        the watchers.  A ``malformed`` reply (the server refused the
        request) carries no state: *on_state* gets ``None``."""
        state: Optional[ProjectionState] = None
        if reply["parent_format_id"] is not None:
            fmt = reply["projection"]
            if fmt is not None:
                self._ingest_format(fmt)
            state = {"epoch": reply["epoch"], "format": fmt, "full": fmt is None}
            key = (reply["parent_format_id"], reply["group"])
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
            reply: Dict[str, Any] = {}
            try:
                message = _decode(data)
                if message["op"] in REPLIES:
                    _check(message, reply)
            except ReproError as exc:  # a refused reply
                self.errors += 1
                self.last_error = exc
                # a failed attempt at that server, as a rejected ticket is
                if "id" in reply and reply["id"] in self._requests:
                    self._attempt(self._requests[reply["id"]])
                return
            if message["op"] == "projection_update":
                # Unsolicited renegotiation push from the fleet — no
                # request to correlate with.
                self._ingest_projection_state(reply)
                return
            if reply:
                self._handle_reply(reply)
                return
        if self.data_handler is not None:
            self.data_handler(source, data)

    def _handle_reply(self, reply: Dict[str, Any]) -> None:
        request = self._requests.pop(reply["id"], None)
        if request is None or request.done:
            return
        request.done = True
        if request.timer is not None:
            request.timer.cancel()
        self._exit_degraded()
        request.on_reply(reply)
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
