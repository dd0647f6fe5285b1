"""Fabric worker — owns shards, morphs at the owner, hands off cleanly.

A :class:`FabricWorker` is one member of the sharded fleet.  For every
shard it owns it runs the full morphing data plane: decode the published
payload, run the ECode transform chain to each subscriber format group,
reconcile, re-encode, and push a :data:`FABRIC_DELIVER` to every
subscriber in the group.  Morphing happens **at the owner** so adding
workers adds morphing capacity — the property the scaling bench
measures.

The data plane is run-oriented: whatever arrives (a bare publish is a
frame of one) is turned into *admitted runs*, and each run is journaled
write-ahead with one file append, morphed per format group, and sent as
one BATCH1 frame per subscriber — see ``docs/FABRIC.md``.

Exactly-once across rebalancing rests on three mechanisms:

* a per-``(channel, publisher)`` :class:`SeqLedger` (contiguous
  high-water mark plus a sparse out-of-order set) that admits each
  sequence number once,
* **drain-and-forward handoff**: the old owner snapshots the shard's
  channel state (subscribers + ledgers) into a
  :data:`FABRIC_HANDOFF` message, stops owning, and forwards any
  late-arriving traffic raw to the successor — forwarded bytes are
  untouched, so trace blocks survive the extra hop,
* a **pending buffer** on the successor for traffic that outruns the
  handoff state message (reordering under jitter), replayed once the
  state lands.

Duplicate paths all converge on the ledger: a publisher retry absorbed
by the reliable layer never reaches us; a retry that raced a handoff is
forwarded to the successor, whose moved ledger already admitted the
sequence number and drops it.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import FabricError
from repro.fabric.hashing import shard_of
from repro.fabric.journal import JournalStore
from repro.fabric.protocol import (
    FABRIC_DELIVER,
    FABRIC_HANDOFF,
    FABRIC_HANDOFF_ACK,
    FABRIC_PUBLISH,
    FABRIC_REDIRECT,
    FABRIC_SUBSCRIBE,
    register_fabric_protocol,
)
from repro.fabric.state import (
    Channels,
    dump_state,
    load_part,
    load_state,
    split_state,
)
from repro.morph.receiver import MorphReceiver
from repro.net.batch import (
    BATCH_HEADER_SIZE,
    BATCH_LENGTH_SIZE,
    is_batch,
    pack_batch,
    unpack_batch,
)
from repro.net.ledger import SeqLedger
from repro.net.reliable import EndpointMixin
from repro.obs import OBS
from repro.obs.metrics import Handles
from repro.obs.tracectx import (
    TRACE_BLOCK_SIZE,
    UNRECORDED,
    TraceContext,
    activate,
    current,
    recording,
)
from repro.pbio.buffer import attach_trace, peek_trace, unpack_header
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import CachingFormatResolver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.membership import FabricDirectory

#: Per-shard cap on messages buffered while handoff state is in flight.
PENDING_LIMIT = 1024

#: Byte ceiling of one outbound BATCH1 frame: a run larger than this
#: leaves as several frames, each of which still fits a UDP datagram (a
#: single message above it travels alone, as it always has).
MAX_FRAME_BYTES = 60_000

#: An admitted run: ``(publisher, seq, payload)`` of consecutive
#: publishes of one channel that each passed their ledger.
Run = List[Tuple[str, int, bytes]]

#: Target size (JSON characters) of one FABRIC_HANDOFF part.  Channel
#: state is split at channel granularity, so one oversized channel still
#: travels whole — the bound is a soft target, not a hard frame limit.
HANDOFF_CHUNK_BYTES = 8192


def _frames(datagrams: List[bytes], ctx: Optional[TraceContext]) -> List[bytes]:
    """Pack *datagrams*, in order, into as few BATCH1 frames as
    :data:`MAX_FRAME_BYTES` allows (room for the frame-level trace block
    is always reserved, so there is one constant, not two)."""
    frames: List[bytes] = []
    empty = BATCH_HEADER_SIZE + TRACE_BLOCK_SIZE
    first, size = 0, empty
    for index, datagram in enumerate(datagrams):
        need = BATCH_LENGTH_SIZE + len(datagram)
        if size + need > MAX_FRAME_BYTES and index > first:
            frames.append(pack_batch(datagrams[first:index], ctx))
            first, size = index, empty
        size += need
    frames.append(pack_batch(datagrams[first:], ctx))
    return frames


class _SubscriberGroup:
    """Subscribers of one channel sharing one event format.

    Each group owns a :class:`MorphReceiver` whose single handler
    re-encodes the morphed record in the group format and pushes it to
    every contact — one re-encode per *format group*, not per
    subscriber (the decode and the transforms are paid per *event*:
    :meth:`FabricWorker._fan_out`)."""

    __slots__ = ("fmt", "contacts", "receiver", "failed")

    def __init__(self, fmt: IOFormat, receiver: MorphReceiver) -> None:
        self.fmt = fmt
        self.contacts: List[str] = []
        self.receiver = receiver
        #: what the receiver had dead-lettered or dropped in quarantine
        #: when the last run ended (the advance is the worker's errors)
        self.failed = 0


class FabricChannel:
    """Owner-side state of one channel: subscriber groups + ledgers."""

    __slots__ = ("channel_id", "groups", "ledgers")

    def __init__(self, channel_id: str) -> None:
        self.channel_id = channel_id
        #: format_id -> subscriber group
        self.groups: Dict[int, _SubscriberGroup] = {}
        #: publisher address -> exactly-once ledger
        self.ledgers: Dict[str, SeqLedger] = {}

    def subscribers(self) -> List[Tuple[str, int]]:
        return [
            (contact, format_id)
            for format_id, group in sorted(self.groups.items())
            for contact in group.contacts
        ]


class FabricWorker(EndpointMixin):
    """One sharded-fabric worker process.

    Parameters mirror :class:`~repro.echo.process.EChoProcess`: the
    worker sits on one transport node (optionally wrapped in a
    :class:`~repro.net.reliable.ReliableEndpoint`), shares the format
    registry out-of-band or resolves formats through the server fleet
    on demand (*format_servers* / *resolver*).
    """

    def __init__(
        self,
        directory: "FabricDirectory",
        network: Any,
        address: str,
        registry: Optional[FormatRegistry] = None,
        reliable: bool = False,
        reliable_options: Optional[Dict[str, Any]] = None,
        resolver: Optional[CachingFormatResolver] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        journal: Optional[JournalStore] = None,
        handoff_chunk_bytes: int = HANDOFF_CHUNK_BYTES,
    ) -> None:
        self.directory = directory
        self._open_endpoint(
            network, address, registry, reliable, reliable_options,
            resolver, format_servers, resolver_options, FabricError,
        )
        register_fabric_protocol(self.registry)
        if self.resolver is not None:
            self.resolver.publish()
        #: shard -> ownership epoch
        self._owned: Dict[int, int] = {}
        #: shard -> (successor address, epoch it moved under)
        self._forwarding: Dict[int, Tuple[str, int]] = {}
        #: shard -> raw datagrams that outran the handoff state message
        self._pending: Dict[int, List[Tuple[str, bytes]]] = {}
        self._channels: Dict[str, FabricChannel] = {}
        #: format ids already refreshed from the server fleet
        self._refreshed: Set[int] = set()
        #: set while one event of a run is morphed, read by the group
        #: handlers: (shared DELIVER envelope wire, trace context to
        #: attach, contact -> the run's queued datagrams)
        self._delivering: Optional[Tuple[Any, ...]] = None
        #: write-ahead ledger journal shared with whoever inherits our
        #: shards (None disables journaling — the crash-ablation arm)
        self.journal = journal
        self.handoff_chunk_bytes = handoff_chunk_bytes
        #: (shard, epoch) -> {part index -> parsed channels} for multi-part
        #: handoff snapshots still being assembled
        self._handoff_staging: Dict[Tuple[int, int], Dict[int, Channels]] = {}
        #: (shard, epoch) -> part indices already relayed onward
        self._relay_seen: Dict[Tuple[int, int], Set[int]] = {}
        self._crashed = False
        #: set True to model a directory partition: the worker keeps
        #: serving traffic but stops renewing its lease
        self.heartbeats_suspended = False
        self._heartbeat_interval: Optional[float] = None
        self._heartbeat_timer: Optional[Any] = None
        #: optional TelemetryAgent whose scrapes piggy-back on heartbeats
        self.telemetry: Optional[Any] = None
        self.processed = 0
        self.duplicates = 0
        self.forwarded = 0
        self.deliveries = 0
        self.handoffs_sent = 0
        self.handoffs_received = 0
        self.handoffs_acked = 0
        self.handoffs_rejected = 0
        self.handoff_parts_sent = 0
        self.redirects_sent = 0
        self.fenced = 0
        self.recovered_shards = 0
        self.tail_replayed = 0
        self.errors = 0
        #: the most recent contained failure, for debugging
        self.last_error: Optional[BaseException] = None
        # what the data plane counts per message or per run; ownership
        # transitions ask the registry when they happen
        self._obs_processed = Handles.bounded_counter(
            "fabric.shard.processed", "shard")

    def owned_shards(self) -> List[int]:
        return sorted(self._owned)

    def owns(self, channel_id: str) -> bool:
        return shard_of(channel_id, self.directory.num_shards) in self._owned

    def _update_owned_gauge(self) -> None:
        if OBS.enabled:
            OBS.metrics.gauge(
                "fabric.shards_owned", worker=self.address
            ).set(len(self._owned))

    # ------------------------------------------------------------------
    # Ownership transitions (driven by the directory)
    # ------------------------------------------------------------------

    def grant_shard(self, shard: int, epoch: int) -> None:
        """Own *shard* with no predecessor state (fresh shard, or the
        predecessor's process crashed before it could hand off).  With a
        journal attached, crash-granted shards are rebuilt from the
        predecessor's journaled admissions before we serve traffic."""
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        if self.journal is not None:
            self._recover_shard(shard, epoch)
        self._update_owned_gauge()
        self._replay_pending(shard)

    def _recover_shard(self, shard: int, epoch: int) -> None:
        """Rebuild *shard* from the journal and fence out its past.

        Fencing first: any stale owner that resurrects and tries to
        journal under its old epoch is rejected at the store.  Then the
        journaled snapshot + admissions, which the journal parsed with
        the reader a handoff part goes through, are installed, and the
        *tail* — admissions after the last snapshot, whose deliveries
        may have died with the old owner — is fanned out again.
        Subscriber-side ledgers suppress and count the re-deliveries
        that did land the first time, which is the "explicitly-counted
        duplicates at the journal tail" contract."""
        recovery = self.journal.recover(shard)
        self.journal.fence(shard, epoch)
        if recovery is None:
            return
        self.recovered_shards += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.recovery.shards", worker=self.address
            ).inc()
        self._install_channels(recovery.channels)
        # The tail replays through the run path: consecutive admits of
        # one channel fan out (and leave) together.
        for channel_id, entries in groupby(recovery.tail, key=itemgetter(0)):
            channel = self._channels.get(channel_id)
            if channel is None:
                continue
            run = [entry[1:] for entry in entries]
            self.tail_replayed += len(run)
            self._fan_out(channel, run)
        # The recovered state is the new baseline: compact so the next
        # crash replays from here, not from the predecessor's history.
        self.journal.snapshot(shard, epoch, self._shard_state(shard))

    # ------------------------------------------------------------------
    # Crash / restart / lease lifecycle
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """SIGKILL the process model.

        Incoming traffic stops (the node closes), unacked outgoing sends
        die without a GAP farewell (:meth:`ReliableEndpoint.
        abort_in_flight` — a dead process sends nothing), and all
        volatile shard state is wiped.  Two things survive, matching
        what a real deployment keeps off-heap: the journal (the durable
        medium) and the endpoint's sequence-number session state — a
        modeling simplification standing in for the session
        re-establishment handshake a production transport would run."""
        if self._crashed:
            return
        self._crashed = True
        self.stop_heartbeats()
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None
        self.node.close()
        if self.reliable is not None:
            self.reliable.abort_in_flight()
        self._owned.clear()
        self._forwarding.clear()
        self._pending.clear()
        self._channels.clear()
        self._handoff_staging.clear()
        self._relay_seen.clear()
        self._delivering = None
        self._update_owned_gauge()

    def restart(self) -> None:
        """Reopen the transport after a crash.  Shard state stays empty
        until the caller rejoins the directory (``directory.join``),
        which re-grants shards through the journal-recovery path."""
        if not self._crashed:
            raise FabricError(f"worker {self.address} is not crashed")
        self._crashed = False
        self.node.reopen()

    def heartbeat(self) -> bool:
        """Renew our directory lease; piggy-back projection-interest
        re-announcement so TTL-aged interests of a live worker stay
        fresh.  Returns False without touching the directory when the
        worker is crashed or partitioned (``heartbeats_suspended``)."""
        if self._crashed or self.heartbeats_suspended:
            return False
        renewed = self.directory.heartbeat(self.address)
        if renewed and self.resolver is not None:
            self.resolver.reannounce_interests()
        if renewed and self.telemetry is not None:
            # Telemetry rides the liveness cadence: scrapes happen at
            # most once per agent interval, clocked by the same timer
            # that renews the lease — no extra timer, and a crashed
            # worker's telemetry stops exactly when its lease does.
            self.telemetry.maybe_scrape(self.network.now)
        return renewed

    def attach_telemetry(self, agent: Any) -> None:
        """Piggy-back *agent*'s scrapes on this worker's heartbeats (see
        :meth:`heartbeat`); detached automatically on :meth:`crash`."""
        self.telemetry = agent

    def start_heartbeats(self, interval: float) -> None:
        """Self-rescheduling lease renewal every *interval* seconds.
        Note for simulated networks: an armed heartbeat timer keeps the
        event queue non-empty, so drive ``net.run(max_time=...)`` in
        steps (or call :meth:`heartbeat` manually) instead of expecting
        quiescence."""
        self.stop_heartbeats()
        self._heartbeat_interval = interval
        self._heartbeat_timer = self.network.call_later(
            interval, self._heartbeat_tick
        )

    def _heartbeat_tick(self) -> None:
        self._heartbeat_timer = None
        if self._heartbeat_interval is None or self._crashed:
            return
        self.heartbeat()
        self._heartbeat_timer = self.network.call_later(
            self._heartbeat_interval, self._heartbeat_tick
        )

    def stop_heartbeats(self) -> None:
        self._heartbeat_interval = None
        timer = self._heartbeat_timer
        self._heartbeat_timer = None
        if timer is not None:
            timer.cancel()

    def _shard_state(self, shard: int) -> Dict[str, Any]:
        """Non-destructive snapshot of *shard*'s channel state, in the
        shape shared by handoffs and journal snapshots."""
        num_shards = self.directory.num_shards
        return dump_state({
            channel_id: (channel.subscribers(), channel.ledgers)
            for channel_id, channel in self._channels.items()
            if shard_of(channel_id, num_shards) == shard
        })

    def _chunk_state(self, state: Dict[str, Any]) -> List[str]:
        """*state* as bounded-size JSON handoff parts."""
        return split_state(state, self.handoff_chunk_bytes)

    def begin_handoff(self, shard: int, successor: str, epoch: int) -> None:
        """Drain-and-forward handoff of *shard* to *successor*: snapshot
        the shard's channels (subscribers + ledgers), ship the snapshot
        in bounded-size parts, stop owning, and forward stale traffic
        from here on."""
        if shard not in self._owned:
            # Stacked membership changes: the shard's snapshot is still
            # in flight to us from the previous owner.  Mark the relay —
            # when the snapshot lands, _on_handoff passes it straight on
            # to the newer successor instead of installing it here.
            self._forwarding[shard] = (successor, epoch)
            return
        state = self._shard_state(shard)
        for channel_id in list(state["channels"]):
            self._channels.pop(channel_id, None)
        del self._owned[shard]
        self._forwarding[shard] = (successor, epoch)
        self._update_owned_gauge()
        self.handoffs_sent += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.handoff", worker=self.address, role="source"
            ).inc()
        chunks = self._chunk_state(state)
        total = len(chunks)
        for index, chunk in enumerate(chunks):
            self.handoff_parts_sent += 1
            record = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=epoch, part=index, parts=total,
                state=chunk,
            )
            self._send(successor, self.pbio.encode(FABRIC_HANDOFF, record))

    def _replay_pending(self, shard: int) -> None:
        for source, data in self._pending.pop(shard, ()):
            self._on_message(source, data)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _park(self, format_id: int, replay: Callable[[], None]) -> None:
        """Fetch missing meta-data from the format-server fleet, then
        replay (mirrors :meth:`EChoProcess._park`)."""

        def _done(found: Optional[IOFormat]) -> None:
            self._refreshed.add(format_id)
            if found is None:
                self.errors += 1
                return
            replay()

        assert self.resolver is not None
        self.resolver.refresh(format_id, _done)

    def _on_message(self, source: str, data: bytes) -> None:
        """Transport entry point: a BATCH1 frame's messages, or one bare
        message (a frame of one), walked once by :meth:`_on_segments`."""
        if not is_batch(data):
            self._on_segments(source, [data])
            return
        try:
            frame = unpack_batch(data)
        except Exception as exc:  # noqa: BLE001 - malformed frame from a peer
            self._contain(exc)
            return
        view = memoryview(data)
        with activate(frame.trace):
            self._on_segments(
                source, [view[off:off + n] for off, n in frame.segments]
            )

    def _on_segments(self, source: str, segments: List[bytes]) -> None:
        """Turn *segments* into **admitted runs**, each handed to
        :meth:`_commit_run`.  A run is consecutive ``FABRIC_PUBLISH``
        segments of one channel whose shard we own (checked, with the
        epoch fence, when the run opens — ownership cannot change while
        this loop runs) and that each pass their ``SeqLedger.admit``.
        Anything else — a subscribe, a handoff, a publish for a shard we
        do not own or whose handoff state is in flight — closes the run
        and takes the per-message route, so a frame that races a handoff
        can have some events delivered here and the rest forwarded.
        Failures are contained per segment: the reliable layer acked the
        whole frame, nothing would resend a poisoned one's neighbours."""
        channel: Optional[FabricChannel] = None
        shard = -1
        run: Run = []
        format_id = publisher = fmt = ledger = None
        for data in segments:
            try:
                header = unpack_header(data)
                if header.format_id != format_id:
                    format_id = header.format_id
                    fmt = self.registry.lookup_id(format_id)
                if fmt is None:
                    if self.resolver is None or format_id in self._refreshed:
                        self.errors += 1
                    else:
                        self._park(format_id,
                                   lambda d=data: self._on_message(source, d))
                    continue
                view = memoryview(data)
                body_end = header.body_offset + header.payload_length
                record = self.pbio.decode_as(fmt, view[:body_end])
                name = fmt.name
                if name != FABRIC_PUBLISH.name:
                    self._commit_run(shard, channel, run)
                    run, channel = [], None
                    if name == FABRIC_SUBSCRIBE.name:
                        self._on_subscribe(source, data, record)
                    elif name == FABRIC_HANDOFF.name:
                        self._on_handoff(source, record)
                    elif name == FABRIC_HANDOFF_ACK.name:
                        self.handoffs_acked += 1
                    else:
                        self.errors += 1
                    continue
                channel_id = record["channel_id"]
                if channel is None or channel_id != channel.channel_id:
                    self._commit_run(shard, channel, run)
                    run, publisher = [], None
                    shard = shard_of(channel_id, self.directory.num_shards)
                    self._fence_check(shard)
                    channel = (
                        self._channel(channel_id) if shard in self._owned
                        else None
                    )
                if channel is None:
                    self._reroute(
                        shard, source, data, record["publisher"], channel_id
                    )
                    continue
                if record["epoch"] != self.directory.epoch:
                    # Stale route: deliver anyway (we own it), but correct
                    # the publisher's cache so it stops paying the extra hop.
                    self._send_redirect(channel_id, record["publisher"])
                if record["publisher"] != publisher:
                    publisher = record["publisher"]
                    ledger = channel.ledgers.get(publisher)
                    if ledger is None:
                        ledger = channel.ledgers[publisher] = SeqLedger()
                if ledger.admit(record["seq"]):
                    run.append((publisher, record["seq"], view[body_end:]))
                else:
                    self.duplicates += 1
            except Exception as exc:  # noqa: BLE001 - contained per segment
                self._contain(exc)
        self._commit_run(shard, channel, run)

    def _contain(self, exc: BaseException) -> None:
        self.errors += 1
        self.last_error = exc

    def _reroute(
        self, shard: int, source: str, data: bytes, reply_to: str, channel_id: str
    ) -> None:
        """A channel message for a shard we do not own: forward it raw
        (drain-and-forward — payload bytes, trace block included, pass
        untouched) or buffer it if our own handoff state is in flight."""
        owner = self.directory.assignment.get(shard)
        if owner == self.address:
            # We are the new owner but the FABRIC_HANDOFF snapshot has
            # not landed yet — hold the message, replay on arrival.
            pending = self._pending.setdefault(shard, [])
            if len(pending) >= PENDING_LIMIT:
                self.errors += 1
                return
            pending.append((source, data))
            return
        if shard in self._forwarding:
            target = self._forwarding[shard][0]
        elif owner is not None:
            target = owner
        else:
            self.errors += 1
            return
        self.forwarded += 1
        self._send(target, data)
        self._send_redirect(channel_id, reply_to)

    def _send_redirect(self, channel_id: str, contact: str) -> None:
        try:
            owner, epoch = self.directory.route(channel_id)
        except FabricError:
            return
        self.redirects_sent += 1
        record = FABRIC_REDIRECT.make_record(
            channel_id=channel_id, owner=owner, epoch=epoch
        )
        self._send(contact, self.pbio.encode(FABRIC_REDIRECT, record))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _channel(self, channel_id: str) -> FabricChannel:
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = FabricChannel(channel_id)
            self._channels[channel_id] = channel
        return channel

    def _fence_check(self, shard: int) -> bool:
        """True if we believed we owned *shard* but the directory has
        moved it under a newer epoch — the resurrected-stale-owner case.
        Drops the zombie ownership (and its channel state, which the
        new owner rebuilt from the journal) so the caller falls through
        to the reroute path instead of admitting under a dead epoch."""
        owned_epoch = self._owned.get(shard)
        if owned_epoch is None:
            return False
        if self.directory.shard_epoch(shard) <= owned_epoch:
            return False
        del self._owned[shard]
        for channel_id in [
            cid for cid in self._channels
            if shard_of(cid, self.directory.num_shards) == shard
        ]:
            del self._channels[channel_id]
        self.fenced += 1
        self._update_owned_gauge()
        return True

    def _commit_run(
        self, shard: int, channel: Optional[FabricChannel], run: Run
    ) -> None:
        """Journal one admitted run write-ahead, then fan it out.
        Contained: a failing run counts one error and does not take the
        segment that closed it down too."""
        if not run:
            return
        try:
            if self.journal is not None:
                # Write-ahead: every admission of the run is durable (one
                # file append) before any delivery leaves, so a crash
                # between here and the sends loses no admitted event —
                # the successor replays the run from the journal tail.
                epoch = self._owned[shard]
                with self.journal.group():
                    for publisher, seq, payload in run:
                        self.journal.append_admit(
                            shard, epoch, channel.channel_id, publisher, seq,
                            payload,
                        )
            self.processed += len(run)
            if OBS.enabled:
                self._obs_processed(shard).inc(len(run))
            self._fan_out(channel, run)
            # Compaction is checked once per run, after its deliveries left.
            if self.journal is not None and self.journal.should_compact(shard):
                self._compact_shard(shard)
        except Exception as exc:  # noqa: BLE001 - contained per run
            self._contain(exc)

    def _compact_shard(self, shard: int) -> None:
        self.journal.snapshot(
            shard, self._owned[shard], self._shard_state(shard)
        )

    def _fan_out(self, channel: FabricChannel, run: Run) -> None:
        """Morph-at-owner for one run: each event goes through every
        format group's receiver (the group handler re-encodes into the
        per-contact outbox), then each contact gets the run as **one**
        BATCH1 frame — split only at :data:`MAX_FRAME_BYTES` — carrying
        the inbound frame's trace context once.  A run of one leaves
        unframed, as a single publish always has.  Bare publishes,
        frames and recovery replay all end here.

        The groups are readers of one wire and Figure 1's ladder is a
        tree they share: with more than one, each event carries a memo
        (:meth:`MorphReceiver.process`) through which its payload is
        decoded once and each retro-transform runs once; a lone group
        keeps its fused route.  What a group's receiver dead-letters or
        drops in quarantine is counted in ``errors`` as the run ends."""
        groups = [
            group for _format_id, group in sorted(channel.groups.items())
            if group.contacts
        ]
        if not groups:
            return
        framed = len(run) > 1
        sharing = len(groups) > 1
        frame_ctx = current()
        outbox: Dict[str, List[bytes]] = {}
        channel_id = channel.channel_id
        try:
            for publisher, seq, payload in run:
                # A publish's own trace block is re-attached to its
                # re-encoded deliveries.  Batch-inner messages carry
                # none: the frame-level context covers them, spliced once
                # into the outbound frame (or the unframed message).
                own = peek_trace(payload)
                ctx = own if framed else own or frame_ctx
                envelope = self.pbio.encode(
                    FABRIC_DELIVER,
                    FABRIC_DELIVER.make_record(
                        channel_id=channel_id, publisher=publisher, seq=seq
                    ),
                )
                if ctx is not None:
                    envelope = attach_trace(envelope, ctx)
                self._delivering = (envelope, ctx, outbox)
                context = span = UNRECORDED
                if OBS.enabled and recording(own or frame_ctx):
                    context = activate(own)
                    span = OBS.tracer.span(
                        "fabric.morph", channel=channel_id,
                        worker=self.address,
                    )
                with context, span:
                    shared = {} if sharing else None
                    for group in groups:
                        group.receiver.process(payload, shared)
        finally:
            self._delivering = None
            for group in groups:
                tally = group.receiver.containment
                failed = tally["dead_lettered"] + tally["quarantine_drops"]
                self.errors += failed - group.failed
                group.failed = failed
        for contact, datagrams in outbox.items():
            try:
                for wire in _frames(datagrams, frame_ctx) if framed else datagrams:
                    self._send(contact, wire)
            except Exception as exc:  # noqa: BLE001 - an unreachable
                self._contain(exc)  # contact must not starve the others

    def _make_group(
        self, channel: FabricChannel, fmt: IOFormat
    ) -> _SubscriberGroup:
        receiver = MorphReceiver(self.registry, contain_failures=True)
        group = _SubscriberGroup(fmt, receiver)

        def deliver(morphed: Any, _group: _SubscriberGroup = group) -> None:
            self._deliver_group(_group, morphed)

        receiver.register_handler(fmt, deliver)
        return group

    def _deliver_group(self, group: _SubscriberGroup, morphed: Any) -> None:
        """Re-encode one morphed event in the group's format behind the
        event's (already encoded, shared) ``FABRIC_DELIVER`` envelope and
        queue it for every contact of the group."""
        assert self._delivering is not None
        envelope, ctx, outbox = self._delivering
        out_payload = self.pbio.encode(group.fmt, morphed)
        if ctx is not None:
            out_payload = attach_trace(out_payload, ctx)
        datagram = envelope + out_payload
        for contact in group.contacts:
            outbox.setdefault(contact, []).append(datagram)
            self.deliveries += 1

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def _on_subscribe(self, source: str, data: bytes, record: Any) -> None:
        channel_id = record["channel_id"]
        shard = shard_of(channel_id, self.directory.num_shards)
        self._fence_check(shard)
        if shard not in self._owned:
            self._reroute(shard, source, data, record["contact"], channel_id)
            return
        self._install_subscriber(
            channel_id, record["contact"], record["format_id"]
        )
        if self.journal is not None:
            self.journal.append_subscribe(
                shard, self._owned[shard], channel_id,
                record["contact"], record["format_id"],
            )
            if self.journal.should_compact(shard):
                self._compact_shard(shard)

    def _install_subscriber(
        self, channel_id: str, contact: str, format_id: int
    ) -> None:
        fmt = self.registry.lookup_id(format_id)
        if fmt is None:
            if self.resolver is not None and format_id not in self._refreshed:
                self._park(
                    format_id,
                    lambda: self._install_subscriber(
                        channel_id, contact, format_id
                    ),
                )
            else:
                self.errors += 1
            return
        channel = self._channel(channel_id)
        group = channel.groups.get(format_id)
        if group is None:
            group = channel.groups[format_id] = self._make_group(channel, fmt)
        if contact not in group.contacts:
            group.contacts.append(contact)

    # ------------------------------------------------------------------
    # Handoff receive side
    # ------------------------------------------------------------------

    def _install_channel_state(self, channels_state: Dict[str, Any]) -> None:
        """Validate a raw ``channels`` mapping and install it."""
        self._install_channels(load_state({"channels": channels_state}))

    def _install_channels(self, channels: Channels) -> None:
        """Install parsed handoff/recovery state.  A ledger we already
        hold is merged, never replaced (a shard lives in one place, so
        this should not happen — but merging cannot un-admit)."""
        for channel_id, (subscribers, ledgers) in channels.items():
            for publisher, restored in ledgers.items():
                held = self._channel(channel_id).ledgers.setdefault(
                    publisher, restored
                )
                if held is not restored:
                    held.merge(restored)
            for contact, format_id in subscribers:
                self._install_subscriber(channel_id, contact, format_id)

    def _on_handoff(self, source: str, record: Any) -> None:
        shard = record["shard"]
        epoch = record["epoch"]
        part = record["part"]
        parts = max(1, record["parts"])
        if part >= parts:
            raise FabricError(
                f"handoff part {part}/{parts} out of range for shard {shard}"
            )
        relay = self._forwarding.get(shard)
        if relay is not None and relay[1] >= epoch:
            # Ownership moved on (to ``relay``) while this snapshot was
            # in flight: relay each part under the newer epoch, stay in
            # forwarding mode, and — once the whole snapshot has passed
            # through — ack the sender and flush anything we buffered
            # while the directory briefly pointed at us.
            target, relay_epoch = relay
            seen = self._relay_seen.setdefault((shard, epoch), set())
            if not seen:
                self.handoffs_sent += 1
                if OBS.enabled:
                    OBS.metrics.counter(
                        "fabric.handoff", worker=self.address, role="relay"
                    ).inc()
            seen.add(part)
            relayed = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=relay_epoch, part=part, parts=parts,
                state=record["state"],
            )
            self._send(target, self.pbio.encode(FABRIC_HANDOFF, relayed))
            if len(seen) < parts:
                return
            del self._relay_seen[(shard, epoch)]
            ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
            self._send(source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
            self._replay_pending(shard)
            return
        if epoch < self.directory.shard_epoch(shard) or (
            self._owned.get(shard, -1) >= epoch
        ):
            # Stale snapshot: the directory moved the shard again under
            # a newer epoch (we recovered it from the journal, or a
            # fresher handoff already landed).  Installing it would
            # resurrect dead ownership — refuse.
            self.handoffs_rejected += 1
            return
        channels = load_part(record["state"])
        staging = self._handoff_staging.setdefault((shard, epoch), {})
        staging[part] = channels
        if len(staging) < parts:
            return
        del self._handoff_staging[(shard, epoch)]
        for key in [
            k for k in self._handoff_staging
            if k[0] == shard and k[1] < epoch
        ]:
            del self._handoff_staging[key]
        for index in sorted(staging):
            self._install_channels(staging[index])
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        self._update_owned_gauge()
        self.handoffs_received += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.handoff", worker=self.address, role="target"
            ).inc()
        if self.journal is not None:
            # Graceful moves fence + snapshot too: the journal always
            # reflects the newest owner's view of the shard.
            self.journal.fence(shard, epoch)
            self.journal.snapshot(shard, epoch, self._shard_state(shard))
        ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
        self._send(source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
        self._replay_pending(shard)
