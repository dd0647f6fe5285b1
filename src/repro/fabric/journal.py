"""Durable append-only ledger journal for crash-leave recovery.

A graceful leave moves a shard's exactly-once state in a
:data:`~repro.fabric.protocol.FABRIC_HANDOFF` snapshot — but a crashed
worker never gets to snapshot anything, and before this module existed
its successors restarted the :class:`~repro.net.ledger.SeqLedger`\\ s
empty (re-admitting publisher retries as fresh events, and losing every
admitted event whose delivery had not settled).

:class:`JournalStore` models the durable medium those workers share — a
replicated log service, an NFS volume, a local disk that survives the
process — as per-shard append-only logs:

* ``admit`` entries record one ledger admission **with the event's
  payload bytes**.  Admission is the point of no return (the publisher's
  reliable layer has been acked and will never resend), so recovery must
  be able to re-fan-out the tail of admitted-but-possibly-undelivered
  events; subscriber-side ledgers suppress (and count) the re-delivery
  duplicates this creates.
  The admits of one run are appended inside a write :meth:`~JournalStore.
  group`: one call (fence check, return value) per event, one file
  write for the run.
* ``subscribe`` entries record channel membership changes.
* ``snapshot`` entries are compaction points: the materialized channel
  state (the shape, and the reader, of :mod:`repro.fabric.state` — the
  same as a handoff part).  Recovery starts from the
  last snapshot and replays only the entries behind it, so the re-fan-out
  tail — and the in-memory log — stay bounded.
* Every append carries the **ownership epoch** it was made under and is
  checked against the shard's *fence*: when a successor recovers a shard
  it fences the journal at the takeover epoch, so a resurrected stale
  owner that somehow still admits traffic cannot corrupt the log
  (``JournalStore.fenced_appends`` counts the attempts).

The default store is in-memory (shared by reference between the workers
of one simulated deployment).  Passing ``path=`` makes it file-backed
(JSON lines, rewritten on compaction), which is what lets a *restarted*
worker — not just a successor — recover its own shards.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import FabricError, JournalError
from repro.fabric.state import Channels, dump_state, load_state
from repro.net.ledger import SeqLedger
from repro.obs import OBS
from repro.obs.metrics import Handles

#: Appends since the last snapshot that trigger compaction (overridable
#: per store).  Large enough that a fuzzing case never compacts unless
#: the scenario asks to, small enough that long-lived shards stay cheap.
DEFAULT_COMPACT_EVERY = 256


def _line(shard: int, entry: Dict[str, Any]) -> str:
    """The on-disk form of one entry (what :meth:`JournalStore._load`
    reads back)."""
    return json.dumps({"shard": shard, **entry}, sort_keys=True) + "\n"


class _ShardLog:
    """One shard's journal: ordered entries plus fencing metadata."""

    __slots__ = ("entries", "fence_epoch", "since_snapshot")

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        #: appends under epochs below this are rejected
        self.fence_epoch = 0
        #: appends since the last ``snapshot`` entry
        self.since_snapshot = 0


class JournalRecovery(NamedTuple):
    """What :meth:`JournalStore.recover` hands a worker."""

    #: ``{channel_id: (subscribers, {publisher: SeqLedger})}`` — parsed
    #: and validated; the worker installs these objects as they are
    channels: Channels
    #: ``(channel_id, publisher, seq, payload)`` admits since the last
    #: snapshot, in admission order, to re-fan-out
    tail: List[Tuple[str, str, int, bytes]]

    @property
    def state(self) -> Dict[str, Any]:
        """:attr:`channels` in the shape :meth:`JournalStore.snapshot`
        takes."""
        return dump_state(self.channels)


class JournalStore:
    """Append-only, epoch-fenced, per-shard ledger journal.

    Parameters
    ----------
    path:
        Optional file to persist the journal to (JSON lines; loaded on
        construction when it exists, rewritten on compaction).  Without
        it the store is purely in-memory — the shared-medium model for
        single-process deployments and the simulator.
    compact_every:
        Appends since the last snapshot after which
        :meth:`should_compact` turns true.  The *worker* performs the
        compaction (it holds the materialized state); the store only
        tracks the trigger.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if compact_every < 1:
            raise JournalError("compact_every must be >= 1")
        self.path = path
        self.compact_every = compact_every
        self._shards: Dict[int, _ShardLog] = {}
        #: lines buffered by an open write :meth:`group` (None outside)
        self._group: Optional[List[str]] = None
        self.appends = 0
        self.fenced_appends = 0
        self.compactions = 0
        self.recoveries = 0
        #: torn final lines cut off at load (see :meth:`_load`)
        self.torn_tail = 0
        self._obs_appends = Handles.counter("fabric.journal.appends")
        self._obs_compactions = Handles.counter("fabric.journal.compactions")
        self._obs_since_snapshot = Handles.gauge(
            "fabric.journal.entries_since_snapshot", "shard")
        self._obs_disk_bytes = Handles.gauge("fabric.journal.disk_bytes")
        if path is not None and os.path.exists(path):
            self._load(path)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _shard(self, shard: int) -> _ShardLog:
        log = self._shards.get(shard)
        if log is None:
            log = self._shards[shard] = _ShardLog()
        return log

    def _admit_entry(self, shard: int, entry: Dict[str, Any]) -> bool:
        """Fence-check and append one entry (persisting it when
        file-backed).  Returns whether the entry was admitted."""
        log = self._shard(shard)
        if entry["epoch"] < log.fence_epoch:
            self.fenced_appends += 1
            return False
        log.entries.append(entry)
        log.since_snapshot += 1
        self.appends += 1
        if OBS.enabled:
            self._obs_appends().inc()
        if self.path is not None:
            self._persist(_line(shard, entry))
        self._gauge_shard(shard, log)
        return True

    def _persist(self, line: str) -> None:
        """Write one journal line — straight to the file, or into the
        open write group's buffer."""
        if self._group is not None:
            self._group.append(line)
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)

    @contextlib.contextmanager
    def group(self) -> Iterator[None]:
        """Write group: appends made inside keep their per-call fence
        check, return value and in-memory entry, but a file-backed store
        buffers their lines and writes them with **one** ``open`` when
        the group closes (also when the body raises — what is in memory
        must reach the file).  The caller's write-ahead point is
        therefore the end of the ``with`` block, not each append."""
        if self._group is not None or self.path is None:
            yield  # nested, or nothing to persist
            return
        self._group = lines = []
        try:
            yield
        finally:
            self._group = None
            if lines:
                self._persist("".join(lines))
                self._gauge_disk()

    def append_admit(
        self,
        shard: int,
        epoch: int,
        channel_id: str,
        publisher: str,
        seq: int,
        payload: bytes,
    ) -> bool:
        """Journal one ledger admission, payload included (hex on disk so
        the log stays line-oriented JSON)."""
        return self._admit_entry(shard, {
            "kind": "admit",
            "epoch": epoch,
            "channel": channel_id,
            "publisher": publisher,
            "seq": seq,
            "payload": payload.hex(),
        })

    def append_subscribe(
        self,
        shard: int,
        epoch: int,
        channel_id: str,
        contact: str,
        format_id: int,
    ) -> bool:
        """Journal one subscriber installation."""
        return self._admit_entry(shard, {
            "kind": "subscribe",
            "epoch": epoch,
            "channel": channel_id,
            "contact": contact,
            "format_id": format_id,
        })

    def snapshot(self, shard: int, epoch: int, state: Dict[str, Any]) -> bool:
        """Compaction point: record the shard's materialized channel
        state and drop every earlier entry (recovery never needs them
        again).  File-backed stores rewrite the file — that is the
        actual space reclaim."""
        log = self._shard(shard)
        if epoch < log.fence_epoch:
            self.fenced_appends += 1
            return False
        log.entries = [{
            "kind": "snapshot",
            "epoch": epoch,
            "state": state,
        }]
        log.since_snapshot = 0
        self.compactions += 1
        if OBS.enabled:
            self._obs_compactions().inc()
        if self.path is not None:
            self._rewrite()
        self._gauge_shard(shard, log)
        return True

    def fence(self, shard: int, epoch: int) -> None:
        """Reject any future append for *shard* under an epoch older
        than *epoch* — called by a successor at takeover, so a
        resurrected stale owner cannot write behind it."""
        log = self._shard(shard)
        if epoch > log.fence_epoch:
            log.fence_epoch = epoch
            if self.path is not None:
                self._persist(_line(shard, {"kind": "fence", "epoch": epoch}))

    def fence_epoch(self, shard: int) -> int:
        log = self._shards.get(shard)
        return 0 if log is None else log.fence_epoch

    def should_compact(self, shard: int) -> bool:
        log = self._shards.get(shard)
        return log is not None and log.since_snapshot >= self.compact_every

    def entry_count(self, shard: int) -> int:
        log = self._shards.get(shard)
        return 0 if log is None else len(log.entries)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, shard: int) -> Optional[JournalRecovery]:
        """Materialize *shard*'s state from the journal: start from the
        last snapshot, replay later entries in order, and collect the
        tail of admits (with payloads) for re-fan-out.  Entries under an
        epoch older than a later fence are skipped — they were written
        by an owner that had already been superseded.  Returns ``None``
        for a shard with no journal (a genuinely fresh grant)."""
        log = self._shards.get(shard)
        if log is None or not log.entries:
            return None
        self.recoveries += 1
        start = 0
        for index in range(len(log.entries) - 1, -1, -1):
            if log.entries[index].get("kind") == "snapshot":
                start = index
                break
        channels: Channels = {}
        tail: List[Tuple[str, str, int, bytes]] = []
        floor = 0  # highest epoch seen; later entries must not regress
        for entry in log.entries[start:]:
            kind = entry.get("kind")
            try:
                epoch = int(entry["epoch"])
            except (KeyError, TypeError, ValueError):
                raise JournalError(
                    f"journal entry for shard {shard} has no valid epoch: "
                    f"{entry!r}"
                ) from None
            if epoch < floor:
                # A stale owner's write that slipped in before the fence
                # landed: position says "after takeover", epoch says
                # "before" — recovery must not resurrect it.
                self.fenced_appends += 1
                continue
            floor = epoch
            if kind == "snapshot":
                try:
                    channels = load_state(entry.get("state"))
                except FabricError as exc:
                    raise JournalError(
                        f"journal snapshot for shard {shard}: {exc}"
                    ) from None
                tail = []
            elif kind == "admit":
                channel_id = entry.get("channel")
                publisher = entry.get("publisher")
                if not isinstance(channel_id, str) or not isinstance(
                    publisher, str
                ):
                    raise JournalError(
                        f"journal admit for shard {shard} lacks a channel "
                        "or publisher"
                    )
                seq = entry.get("seq")
                if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
                    raise JournalError(
                        f"journal admit for shard {shard} has bad seq "
                        f"{seq!r}"
                    )
                try:
                    payload = bytes.fromhex(entry.get("payload", ""))
                except ValueError:
                    raise JournalError(
                        f"journal admit for shard {shard} has undecodable "
                        "payload"
                    ) from None
                ledgers = channels.setdefault(channel_id, ([], {}))[1]
                ledger = ledgers.get(publisher)
                if ledger is None:
                    ledger = ledgers[publisher] = SeqLedger()
                if ledger.admit(seq):
                    tail.append((channel_id, publisher, seq, payload))
            elif kind == "subscribe":
                channel_id = entry.get("channel")
                contact = entry.get("contact")
                if not isinstance(channel_id, str) or not isinstance(
                    contact, str
                ):
                    raise JournalError(
                        f"journal subscribe for shard {shard} lacks a "
                        "channel or contact"
                    )
                format_id = entry.get("format_id")
                if not isinstance(format_id, int) or isinstance(
                    format_id, bool
                ):
                    raise JournalError(
                        f"journal subscribe for shard {shard} has bad "
                        f"format id {format_id!r}"
                    )
                subscribers = channels.setdefault(channel_id, ([], {}))[0]
                if (contact, format_id) not in subscribers:
                    subscribers.append((contact, format_id))
            elif kind == "fence":
                continue
            else:
                raise JournalError(
                    f"unknown journal entry kind {kind!r} for shard {shard}"
                )
        return JournalRecovery(channels, tail)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _rewrite(self) -> None:
        assert self.path is not None
        if self._group is not None:
            # every buffered line's entry is in memory and rewritten below
            self._group.clear()
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for shard in sorted(self._shards):
                log = self._shards[shard]
                if log.fence_epoch:
                    handle.write(_line(
                        shard, {"kind": "fence", "epoch": log.fence_epoch}
                    ))
                for entry in log.entries:
                    handle.write(_line(shard, entry))
        os.replace(tmp, self.path)

    def _load(self, path: str) -> None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from None
        # Every write ends in a newline, so bytes after the last one are
        # a write the process died in (its group never closed, nothing
        # it covers was delivered): cut them off so the next append
        # starts a line.  An unparsable line *before* that is corruption.
        *lines, torn = data.split(b"\n")
        if torn:
            self.torn_tail += 1
            os.truncate(path, len(data) - len(torn))
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                shard = int(record.pop("shard"))
            except (ValueError, KeyError, TypeError, AttributeError):
                raise JournalError(
                    f"corrupt journal line {number} in {path}"
                ) from None
            log = self._shard(shard)
            if record.get("kind") == "fence":
                epoch = record.get("epoch")
                if isinstance(epoch, int) and epoch > log.fence_epoch:
                    log.fence_epoch = epoch
                continue
            log.entries.append(record)
            if record.get("kind") == "snapshot":
                log.since_snapshot = 0
            else:
                log.since_snapshot += 1

    def disk_size_bytes(self) -> int:
        """On-disk size of the journal file (0 for in-memory stores or
        before the first persisted append)."""
        if self.path is None:
            return 0
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def _gauge_shard(self, shard: int, log: _ShardLog) -> None:
        """Mirror the compaction-pressure gauges: entries accumulated
        behind the last snapshot (per shard) and the file size (per
        store) — the journal-lag columns ``--top`` renders."""
        if not OBS.enabled:
            return
        self._obs_since_snapshot(shard).set(log.since_snapshot)
        if self._group is None:
            self._gauge_disk()  # an open group gauges once, on close

    def _gauge_disk(self) -> None:
        if OBS.enabled and self.path is not None:
            self._obs_disk_bytes().set(self.disk_size_bytes())
