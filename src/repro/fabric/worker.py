"""Fabric worker — owns shards, morphs at the owner, hands off cleanly.

A :class:`FabricWorker` is one member of the sharded fleet.  For every
shard it owns it runs the full morphing data plane: decode the published
payload, run the ECode transform chain to each subscriber format group,
reconcile, re-encode, and push a :data:`FABRIC_DELIVER` to every
subscriber in the group.  A group in the publisher's own format is
Algorithm 2's perfect match: it gets the publisher's payload bytes,
which are what a re-encode would write
(:func:`~repro.pbio.buffer.canonical_format_id`).  Morphing
happens **at the owner** so adding workers adds morphing capacity — the
property the scaling bench measures.

The data plane is run-oriented: whatever arrives (a bare publish is a
frame of one) is turned into *admitted runs*, each journaled as it is
admitted and held per channel until the receive burst is over.  The
burst's flush then writes the journal file once, morphs each channel's
runs per format group once, and sends each subscriber one BATCH1 frame —
see ``docs/FABRIC.md``.

Exactly-once across rebalancing rests on three mechanisms:

* a per-``(channel, publisher)`` :class:`SeqLedger` (contiguous
  high-water mark plus a sparse out-of-order set) that admits each
  sequence number once,
* **drain-and-forward handoff**: the old owner snapshots the shard's
  channel state (subscribers + ledgers) into a
  :data:`FABRIC_HANDOFF` message, stops owning, and forwards any
  late-arriving traffic raw to the successor — forwarded bytes are
  untouched, so trace blocks survive the extra hop,
* a **hold** (:meth:`~repro.net.reliable.EndpointMixin._hold`) keyed
  by the shard on the successor for traffic that outruns the handoff
  state message (reordering under jitter), replayed once it lands.

Duplicate paths all converge on the ledger: a publisher retry absorbed
by the reliable layer never reaches us; a retry that raced a handoff is
forwarded to the successor, whose moved ledger already admitted the
sequence number and drops it.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import DecodeError, EncodeError, FabricError
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
    split_state,
)
from repro.morph.receiver import CUT_SOURCES, MorphReceiver, WireCut
# unpack_batch stays for benchmarks/e2e/trace.py's patch list
# MAX_FRAME_BYTES is re-exported for code that reads it from here
from repro.net.batch import (
    MAX_FRAME_BYTES,
    pack_batch,
    split_batch,
    unpack_batch,
)
from repro.net.ledger import SeqLedger
from repro.net.reliable import EndpointMixin
from repro.obs import OBS
from repro.obs.metrics import Tallies, collect, counter, gauge
from repro.obs.tracectx import (
    UNRECORDED,
    activate,
    current,
    isolate,
    recording,
)
from repro.pbio.buffer import (
    MessageHeader,
    attach_trace,
    canonical_format_id,
    peek_trace,
    unpack_header,
)
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.membership import FabricDirectory

#: An admitted run: ``(publisher, seq, payload, payload header)`` of
#: consecutive publishes of one channel that each passed their ledger;
#: the payload is cut to its declared length, and the header is the one
#: admission parsed (``None`` for a journal tail replay: the receivers
#: parse it).
Run = List[Tuple[str, int, bytes, Optional[MessageHeader]]]

#: A channel's admitted runs held until the burst's flush fans them out:
#: (shard, the runs' events, the frame trace context they arrived under,
#: the span open when they were admitted) — see
#: :meth:`FabricWorker._commit_run`.
Pending = Tuple[int, Run, Optional[Any], Optional[int]]

#: One delivery held until its receive burst is over: (``FABRIC_DELIVER``
#: envelope, payload, the run's trace context when the message does not
#: carry one of its own, the span open when its run was fanned out) —
#: see :meth:`FabricWorker._flush`.
Held = Tuple[bytes, bytes, Optional[Any], Optional[int]]

#: Target size (JSON characters) of one FABRIC_HANDOFF part.  Channel
#: state is split at channel granularity, so one oversized channel still
#: travels whole — the bound is a soft target, not a hard frame limit.
HANDOFF_CHUNK_BYTES = 8192

_COLLECTED = (
    counter("fabric.shard.processed", "processed", "shard", bounded=True),
    gauge("fabric.shards_owned", lambda w: {w.address: len(w._owned)},
          "worker"),
)
#: ... and those labelled with the worker's address
_PER_WORKER = (
    counter("fabric.handoff", "handoffs", "role"),
    counter("fabric.recovery.shards", "recovered"),
)


class _SubscriberGroup:
    """Subscribers of one channel sharing one event format.

    Each group owns a :class:`MorphReceiver` whose single handler
    forwards, cuts or re-encodes the morphed record in the group format
    and pushes it to every contact — one payload per *format group*, not
    per subscriber: the publisher's own when the group is in its format
    and the payload is native, a cut of a wire the owner holds when the
    group's last step only drops fields, else a re-encode (the decode
    and the transforms are paid per *event*:
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
    worker sits on one transport node wrapped in a
    :class:`~repro.net.reliable.ReliableEndpoint` (*reliable_options*),
    shares the format registry out-of-band or resolves formats through
    the server fleet on demand (*format_servers*).
    """

    def __init__(
        self,
        directory: "FabricDirectory",
        network: Any,
        address: str,
        registry: Optional[FormatRegistry] = None,
        reliable_options: Optional[Dict[str, Any]] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        journal: Optional[JournalStore] = None,
        handoff_chunk_bytes: int = HANDOFF_CHUNK_BYTES,
    ) -> None:
        self.directory = directory
        self._open_endpoint(
            network, address, registry, reliable_options,
            format_servers, resolver_options, FabricError,
        )
        register_fabric_protocol(self.registry)
        if self.resolver is not None:
            self.resolver.publish()
        #: shard -> ownership epoch
        self._owned: Dict[int, int] = {}
        #: shard -> (successor address, epoch it moved under)
        self._forwarding: Dict[int, Tuple[str, int]] = {}
        self._channels: Dict[str, FabricChannel] = {}
        #: set while one event of a run is morphed, read by the group
        #: handlers: (shared DELIVER envelope wire, the payload's own
        #: trace context, the run's when the payload has none, the span
        #: the run is fanned out under, the payload, its canonical format
        #: id, the wires encoded for the event — None for a lone group)
        self._delivering: Optional[Tuple[Any, ...]] = None
        #: runs admitted in this receive burst, by channel, waiting for
        #: its flush to fan them out; the deliveries held until the
        #: burst is over; and the shards to snapshot once they left:
        #: shard -> whether the snapshot is due whatever the journal's
        #: count says
        self._pending: Dict[str, Pending] = {}
        self._outbox: Dict[str, List[Held]] = {}
        self._compact_due: Dict[int, bool] = {}
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
        #: publishes admitted per shard, handoffs by role, shards recovered
        self._tally = Tallies("processed", "handoffs", recovered=0)
        collect(self, self._tally, _COLLECTED)
        collect(self, self._tally, _PER_WORKER, worker=self.address)
        self.duplicates = 0
        self.forwarded = 0
        self.deliveries = 0
        self.handoffs_acked = 0
        self.handoffs_rejected = 0
        self.handoff_parts_sent = 0
        self.redirects_sent = 0
        self.fenced = 0
        self.tail_replayed = 0

    processed = property(lambda self: sum(self._tally.processed.values()))
    handoffs_sent = property(lambda self: self._tally.handoffs["source"]
                             + self._tally.handoffs["relay"])
    handoffs_received = property(lambda self: self._tally.handoffs["target"])
    recovered_shards = property(lambda self: self._tally.recovered)

    def owned_shards(self) -> List[int]:
        return sorted(self._owned)

    def owns(self, channel_id: str) -> bool:
        return shard_of(channel_id, self.directory.num_shards) in self._owned

    # ------------------------------------------------------------------
    # Ownership transitions (driven by the directory)
    # ------------------------------------------------------------------

    def grant_shard(self, shard: int, epoch: int) -> None:
        """Own *shard* with no predecessor state (fresh shard, or the
        predecessor's process crashed before it could hand off).  With a
        journal attached, crash-granted shards are rebuilt from the
        predecessor's journaled admissions before we serve traffic."""
        self._commit()
        outran = self._holds.pop(shard, None)
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        if self.journal is not None:
            self._recover_shard(shard, epoch)
        self._release(shard, outran)

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
        self._tally.recovered += 1
        self._install_channels(recovery.channels)
        # The tail replays through the run path: consecutive admits of
        # one channel fan out (and leave) together.
        frame_ctx = current()
        parent = OBS.tracer.innermost() if OBS.enabled else None
        for channel_id, entries in groupby(recovery.tail, key=itemgetter(0)):
            channel = self._channels.get(channel_id)
            if channel is None:
                continue
            run = [(publisher, seq, payload, None)
                   for _channel, publisher, seq, payload in entries]
            self.tail_replayed += len(run)
            self._fan_out(channel, run, frame_ctx, parent)
        # The recovered state is the new baseline: compact so the next
        # crash replays from here, not from the predecessor's history —
        # once the replayed deliveries left, so a crash before then
        # still finds them in the tail.
        self._compact_later(shard, forced=True)

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
        medium) and the endpoint's session state (seqs, the reorder
        buffer, which waits for :meth:`restart`, holes and breakers) — a
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
        self.reliable.abort_in_flight()
        self._owned.clear()
        self._forwarding.clear()
        self._holds.clear()  # a fetch reply landing later replays nothing
        self._channels.clear()
        self._handoff_staging.clear()
        self._relay_seen.clear()
        self._delivering = None
        # the flush went with the endpoint's; the pending runs' admits
        # are in the journal, whose tail a successor replays
        self._pending.clear()
        self._outbox.clear()
        self._compact_due.clear()

    def restart(self) -> None:
        """Reopen the transport after a crash.  Shard state stays empty
        until the caller rejoins the directory (``directory.join``),
        which re-grants shards through the journal-recovery path."""
        if not self._crashed:
            raise FabricError(f"worker {self.address} is not crashed")
        self._crashed = False
        self.reliable.reopen()

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
        self._commit()
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
        self._tally.handoffs["source"] += 1
        chunks = self._chunk_state(state)
        total = len(chunks)
        for index, chunk in enumerate(chunks):
            self.handoff_parts_sent += 1
            record = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=epoch, part=index, parts=total,
                state=chunk,
            )
            self.reliable.send(
                successor, self.pbio.encode(FABRIC_HANDOFF, record))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_segments(self, source: str, segments: List[bytes]) -> None:
        """Turn *segments* into **admitted runs**, each handed to
        :meth:`_commit_run`.  A run is consecutive ``FABRIC_PUBLISH``
        segments of one channel whose shard we own (checked, with the
        epoch fence, when the run opens — ownership cannot change while
        this loop runs) and that each pass their ``SeqLedger.admit``.
        Anything else — a subscribe, a handoff, a publish for a shard we
        do not own or whose handoff state is in flight — closes the run
        and takes the per-message route, so a frame that races a handoff
        can have some events delivered here and the rest forwarded.  A
        segment whose meta-data must be fetched holds *source* before its
        ledger sees it.  A publish to admit has its payload header parsed
        here, once (a payload without a readable one is this segment's
        failure), and its payload cut to the declared length; the run
        carries both on (:data:`Run`)."""
        channel: Optional[FabricChannel] = None
        shard = -1
        run: Run = []
        format_id = publisher = fmt = ledger = None
        for data in segments:
            if source in self._holds:
                self._hold(source, lambda d=data: self._on_segments(
                    source, [d]))
                continue
            try:
                header = unpack_header(data)
                if header.format_id != format_id:
                    format_id = header.format_id
                    fmt = self.registry.lookup_id(format_id)
                if fmt is None:
                    if self._needs_meta(format_id, fmt):
                        self._commit_run(shard, channel, run)
                        run = []
                        self._hold(source, lambda d=data: self._on_segments(
                            source, [d]), format_id)
                        continue
                    raise DecodeError(
                        f"unknown envelope format id {format_id:#x}")
                view = memoryview(data)
                body_end = header.body_offset + header.payload_length
                name = fmt.name
                if name != FABRIC_PUBLISH.name:
                    record = self.pbio.decode_as(fmt, view[:body_end], header)
                    self._commit_run(shard, channel, run)
                    run, channel = [], None
                    self._commit()
                    if name == FABRIC_SUBSCRIBE.name:
                        self._on_subscribe(source, data, record)
                    elif name == FABRIC_HANDOFF.name:
                        self._on_handoff(source, record)
                    elif name == FABRIC_HANDOFF_ACK.name:
                        self.handoffs_acked += 1
                    else:
                        raise FabricError(
                            f"unexpected {name!r} message at a worker")
                    continue
                channel_id, sender, seq, epoch = self.pbio.decode_values(
                    fmt, view[:body_end], header)
                if channel is None or channel_id != channel.channel_id:
                    self._commit_run(shard, channel, run)
                    run, publisher = [], None
                    shard = shard_of(channel_id, self.directory.num_shards)
                    self._fence_check(shard)
                    channel = (
                        self._channel(channel_id)
                        if shard in self._owned and shard not in self._holds
                        else None
                    )
                if channel is None:
                    self._reroute(shard, source, data, sender, channel_id)
                    continue
                # The payload is its declared bytes: what follows them is
                # neither journaled nor forwarded.  Its header is parsed
                # here, once, and travels with it to every group.
                payload = view[body_end:]
                payload_header = unpack_header(payload)
                payload = payload[:payload_header.body_offset
                                  + payload_header.payload_length]
                if self.resolver is not None:
                    pid = payload_header.format_id
                    pfmt = self.registry.lookup_id(pid)
                    if any(self._needs_meta(pid, pfmt, g.receiver)
                           for g in channel.groups.values() if g.contacts):
                        self._commit_run(shard, channel, run)
                        run = []
                        self._hold(source, lambda d=data: self._on_segments(
                            source, [d]), pid)
                        continue
                if epoch != self.directory.epoch:
                    # Stale route: deliver anyway (we own it), but correct
                    # the publisher's cache so it stops paying the extra hop.
                    self._send_redirect(channel_id, sender)
                if sender != publisher:
                    publisher = sender
                    ledger = channel.ledgers.get(publisher)
                    if ledger is None:
                        ledger = channel.ledgers[publisher] = SeqLedger()
                if ledger.admit(seq):
                    run.append((publisher, seq, payload, payload_header))
                else:
                    self.duplicates += 1
            except Exception as exc:  # noqa: BLE001 - contained per segment
                self._contain(exc)
        self._commit_run(shard, channel, run)

    def _reroute(
        self, shard: int, source: str, data: bytes, reply_to: str, channel_id: str
    ) -> None:
        """A channel message for a shard we do not own: forward it raw
        (drain-and-forward — payload bytes, trace block included, pass
        untouched) or hold it while the shard's own state is in flight."""
        owner = self.directory.assignment.get(shard)
        if owner == self.address or shard in self._holds:
            self._hold(shard, lambda: self._on_segments(source, [data]))
            return
        if shard in self._forwarding:
            target = self._forwarding[shard][0]
        elif owner is not None:
            target = owner
        else:
            self.errors += 1
            return
        self.forwarded += 1
        self.reliable.send(target, data)
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
        self.reliable.send(contact, self.pbio.encode(FABRIC_REDIRECT, record))

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
        self._commit()
        del self._owned[shard]
        for channel_id in [
            cid for cid in self._channels
            if shard_of(cid, self.directory.num_shards) == shard
        ]:
            del self._channels[channel_id]
        self.fenced += 1
        return True

    def _commit_run(
        self, shard: int, channel: Optional[FabricChannel], run: Run
    ) -> None:
        """Admit one run: journal each event (its entry now, in the
        store's write group; the file at the burst's flush, before any
        delivery or ack of the burst leaves), count it, and hold it for
        the flush's fan-out (:meth:`_commit`) — behind its channel's
        pending run when both arrived under the same frame trace context
        and parent span, else after that one was fanned out.  Contained:
        a failing run counts one error and does not take the segment
        that closed it down too."""
        if not run:
            return
        try:
            channel_id = channel.channel_id
            if self.journal is not None:
                self.journal.hold()
                epoch = self._owned[shard]
                for publisher, seq, payload, _header in run:
                    self.journal.append_admit(
                        shard, epoch, channel_id, publisher, seq, payload)
            self._tally.processed[shard] += len(run)
            frame_ctx = current()
            parent = OBS.tracer.innermost() if OBS.enabled else None
            pending = self._pending.get(channel_id)
            if pending is not None and (
                    pending[2] is not frame_ctx or pending[3] != parent):
                self._commit()
                pending = None
            if pending is not None:
                pending[1].extend(run)
                return
            if not self._pending:
                self.reliable.after_burst(self._flush)
            self._pending[channel_id] = (shard, run, frame_ctx, parent)
        except Exception as exc:  # noqa: BLE001 - contained per run
            self._contain(exc)

    def _commit(self) -> None:
        """Fan out every pending run, one :meth:`_fan_out` per channel,
        in the order the channels were first admitted to.  The burst's
        flush runs it, and so does whatever reads or moves shard state
        before then: a subscribe, handoff or handoff ack segment,
        :meth:`begin_handoff`, :meth:`grant_shard` and a fence
        (:meth:`_fence_check`).  A channel's deliveries wait in the
        outbox; its shard is checked for compaction at the flush."""
        pending, self._pending = self._pending, {}
        for channel_id, (shard, run, frame_ctx, parent) in pending.items():
            if self._crashed:
                return  # a fan-out crashed the worker: the rest died too
            try:
                channel = self._channels[channel_id]
                if frame_ctx is None and parent is None and current() is None:
                    self._fan_out(channel, run, None, None)
                else:
                    # traced as it was admitted: in the frame's context
                    # (none, for an unsampled run committed while a
                    # sampled message is handled), under the span open
                    with isolate(frame_ctx), OBS.tracer.resume(parent):
                        self._fan_out(channel, run, frame_ctx, parent)
                if self.journal is not None:
                    self._compact_due.setdefault(shard, False)
            except Exception as exc:  # noqa: BLE001 - contained per run
                self._contain(exc)

    def _compact_later(self, shard: int, forced: bool = False) -> None:
        """Check *shard* for compaction (snapshot it anyway if *forced*)
        once this burst's deliveries left: a snapshot drops the
        journal's tail, and a delivery still held may have only that
        copy."""
        self._compact_due[shard] = forced or self._compact_due.get(shard, False)
        self.reliable.after_burst(self._flush)

    def _flush(self) -> None:
        """The burst is over.  First the journal's write group reaches
        the file in one write (the write-ahead point: every admit of the
        burst is on file before any of its deliveries or acks leaves),
        then the pending runs are fanned out, one :meth:`_fan_out` per
        channel (:meth:`_commit`).  Each contact's held deliveries then
        leave, in processing order, as one BATCH1 frame — split only at
        the ceiling (:func:`~repro.net.batch.split_batch`) — or bare
        when there is one.  A frame carries the trace context its
        messages lack, once, when they all lack the same one; otherwise
        each message that lacks its run's context carries it itself.  A
        send is traced under the span its deliveries were queued in,
        when they share one.  Then the shards the burst touched are
        compacted if due."""
        if self.journal is not None:
            self.journal.write()
        self._commit()
        outbox, self._outbox = self._outbox, {}
        for contact, held in outbox.items():
            try:
                envelope, payload, lacks, parent = held[0]
                if len(held) == 1:
                    if lacks is not None:
                        envelope = attach_trace(envelope, lacks)
                        payload = attach_trace(payload, lacks)
                    frames = (envelope + payload,)
                else:
                    ctx = lacks if all(
                        entry[2] is lacks for entry in held) else None
                    if parent is not None and any(
                            entry[3] != parent for entry in held):
                        parent = None
                    frames = [pack_batch(group, ctx) for group in split_batch([
                        envelope + payload if lacks is ctx
                        else attach_trace(envelope, lacks)
                        + attach_trace(payload, lacks)
                        for envelope, payload, lacks, _parent in held
                    ])]
                if parent is None:
                    for frame in frames:
                        self.reliable.send(contact, frame)
                    continue
                with OBS.tracer.resume(parent):
                    for frame in frames:
                        self.reliable.send(contact, frame)
            except Exception as exc:  # noqa: BLE001 - an unreachable
                self._contain(exc)  # contact must not starve the others
        due, self._compact_due = self._compact_due, {}
        for shard, forced in due.items():
            epoch = self._owned.get(shard)
            try:
                if epoch is not None and (
                        forced or self.journal.should_compact(shard)):
                    self.journal.snapshot(
                        shard, epoch, self._shard_state(shard))
            except Exception as exc:  # noqa: BLE001 - contained per shard
                self._contain(exc)

    def _fan_out(
        self, channel: FabricChannel, run: Run, frame_ctx: Optional[Any],
        parent: Optional[int],
    ) -> None:
        """Morph-at-owner for one run, which arrived under the frame
        trace context *frame_ctx* and the span *parent*: each event goes
        through every format group's receiver (the group handler
        forwards or re-encodes into the per-contact outbox), and the
        outbox leaves when the receive burst is over (:meth:`_flush`,
        after the endpoint's :meth:`~repro.net.reliable.
        ReliableEndpoint.after_burst`, which whoever queued the run
        registered): each contact gets the burst as **one** BATCH1
        frame, which carries the trace context its messages lack once
        when they lack the same one, and a contact with one message gets
        it bare, as a single publish always has.  A burst's runs of one
        channel (:meth:`_commit`) and recovery replay all end here.

        The groups are readers of one wire and Figure 1's ladder is a
        tree they share: with more than one, each event carries a memo
        (:meth:`MorphReceiver.process`) through which its payload is
        decoded once and each retro-transform runs once, and beside it
        the wires encoded for the event, each once whichever group asks
        first.  The memo offers the channel's group formats as cut
        sources (:data:`~repro.morph.receiver.CUT_SOURCES`): a group
        whose chain ends in a wire projection out of one of them does
        not run that step, and :meth:`_deliver_group` cuts its payload
        from that format's wire.  That is decided by the set of groups,
        not by their order.  A lone group keeps its fused route.  Every
        group is handed the payload header admission parsed, so none
        parses it again.  What a group's receiver dead-letters or drops
        in quarantine is counted as the run ends
        (:meth:`~repro.net.reliable.EndpointMixin._account`)."""
        groups = [
            group for _format_id, group in sorted(channel.groups.items())
            if group.contacts
        ]
        if not groups:
            return
        sharing = len(groups) > 1
        held = frozenset(
            group.fmt.format_id for group in groups) if sharing else None
        channel_id = channel.channel_id
        try:
            for publisher, seq, payload, header in run:
                # A publish's own trace block is re-attached to its
                # re-encoded deliveries (a forwarded payload still has
                # it).  Batch-inner messages carry none: the frame-level
                # context covers them, spliced once into the outbound
                # frame — or onto the message, should it leave alone.
                own = peek_trace(payload)
                envelope = self.pbio.encode_values(
                    FABRIC_DELIVER, (channel_id, publisher, seq))
                if own is not None:
                    envelope = attach_trace(envelope, own)
                shared = wires = None
                if sharing:
                    shared, wires = {CUT_SOURCES: held}, {}
                self._delivering = (
                    envelope, own, frame_ctx if own is None else None,
                    parent, payload, canonical_format_id(payload), wires)
                context = span = UNRECORDED
                if OBS.enabled and recording(own or frame_ctx):
                    context = activate(own)
                    span = OBS.tracer.span(
                        "fabric.morph", channel=channel_id,
                        worker=self.address,
                    )
                with context, span:
                    for group in groups:
                        group.receiver.process(payload, shared, header)
        finally:
            self._delivering = None
            for group in groups:
                group.failed = self._account(group.receiver, group.failed)

    def _make_group(
        self, channel: FabricChannel, fmt: IOFormat
    ) -> _SubscriberGroup:
        receiver = MorphReceiver(self.registry)
        group = _SubscriberGroup(fmt, receiver)

        def deliver(morphed: Any, _group: _SubscriberGroup = group) -> None:
            self._deliver_group(_group, morphed)

        receiver.register_handler(fmt, deliver)
        return group

    def _deliver_group(self, group: _SubscriberGroup, morphed: Any) -> None:
        """Queue one morphed event in the group's format, behind the
        event's (already encoded, shared) ``FABRIC_DELIVER`` envelope,
        for every contact of the group: the publisher's payload bytes
        when they are in the group's format and canonical
        (:func:`~repro.pbio.buffer.canonical_format_id`), a cut
        (:meth:`_cut`) when the receiver handed over a
        :class:`~repro.morph.receiver.WireCut`, otherwise the encode of
        *morphed* (:meth:`_encoded`).  The publish's own trace context
        goes on any of them (a forwarded payload already carries it).
        A payload without one lacks the run's, which goes on the frame
        it leaves in, or on the message when that frame cannot carry it
        (:meth:`_flush`).  Runs
        only on a payload the group decoded, inside its receiver's
        per-message containment."""
        assert self._delivering is not None
        (envelope, own, lacks, parent, payload,
         canonical) = self._delivering[:6]
        if canonical == group.fmt.format_id:
            out_payload = payload
        else:
            if morphed.__class__ is WireCut:
                out_payload = self._cut(morphed)
            else:
                out_payload = self._encoded(group.fmt, morphed)
            if own is not None:
                out_payload = attach_trace(out_payload, own)
        entry = (envelope, out_payload, lacks, parent)
        outbox = self._outbox
        for contact in group.contacts:
            outbox.setdefault(contact, []).append(entry)
            self.deliveries += 1

    def _encoded(self, fmt: IOFormat, record: Any) -> bytes:
        """*record*'s wire in *fmt*, encoded once per event: the event's
        wires (with more than one group) keep it beside its record."""
        wires = self._delivering[6]
        if wires is None:
            return self.pbio.encode(fmt, record)
        key = (fmt.format_id, id(record))
        entry = wires.get(key)
        if entry is None:
            # the record rides along: its id stays its own for the event
            entry = wires[key] = (self.pbio.encode(fmt, record), record)
        return entry[0]

    def _cut(self, cut: WireCut) -> bytes:
        """The payload of a group whose last step is a wire projection
        (``cut.step.projection``), cut from the wire of the step's input
        — which a group in that format needs anyway, and which is
        encoded once whichever group asks first.  An input that does not
        encode (a field the step drops holds what its format cannot)
        runs the step and encodes its output, as a group that cannot
        cut does."""
        step, record = cut.step, cut.record
        try:
            source = self._encoded(step.source, record)
        except EncodeError:
            return self.pbio.encode(step.target, step.apply(record))
        return step.projection.cut(source)

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
            source, channel_id, record["contact"], record["format_id"]
        )
        if self.journal is not None:
            self.journal.append_subscribe(
                shard, self._owned[shard], channel_id,
                record["contact"], record["format_id"],
            )
            self._compact_later(shard)

    def _install_subscriber(
        self, key: Any, channel_id: str, contact: str, format_id: int
    ) -> None:
        """Put *contact* in the channel's group for *format_id*, and in
        no other: a contact holds one format per channel, so a
        re-subscribe moves it.  *key* (the subscribing peer, or the
        shard for state) waits on a fetch."""
        fmt = self.registry.lookup_id(format_id)
        if key in self._holds or fmt is None and self._needs_meta(
                format_id, fmt):
            self._hold(key, lambda: self._install_subscriber(
                key, channel_id, contact, format_id), format_id)
            return
        if fmt is None:
            self.errors += 1
            return
        channel = self._channel(channel_id)
        for other_id, other in channel.groups.items():
            if other_id != format_id and contact in other.contacts:
                other.contacts.remove(contact)
        group = channel.groups.get(format_id)
        if group is None:
            group = channel.groups[format_id] = self._make_group(channel, fmt)
        if contact not in group.contacts:
            group.contacts.append(contact)

    # ------------------------------------------------------------------
    # Handoff receive side
    # ------------------------------------------------------------------

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
            shard = shard_of(channel_id, self.directory.num_shards)
            for contact, format_id in subscribers:
                self._install_subscriber(shard, channel_id, contact, format_id)

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
                self._tally.handoffs["relay"] += 1
            seen.add(part)
            relayed = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=relay_epoch, part=part, parts=parts,
                state=record["state"],
            )
            self.reliable.send(
                target, self.pbio.encode(FABRIC_HANDOFF, relayed))
            if len(seen) < parts:
                return
            del self._relay_seen[(shard, epoch)]
            ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
            self.reliable.send(
                source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
            self._release(shard, self._holds.pop(shard, None))
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
        # Traffic that outran the state waits behind its subscribers.
        outran = self._holds.pop(shard, None)
        for index in sorted(staging):
            self._install_channels(staging[index])
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        self._tally.handoffs["target"] += 1
        if self.journal is not None:
            # Graceful moves fence + snapshot too: the journal always
            # reflects the newest owner's view of the shard.
            self.journal.fence(shard, epoch)
            self.journal.snapshot(shard, epoch, self._shard_state(shard))
        ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
        self.reliable.send(source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
        self._release(shard, outran)
