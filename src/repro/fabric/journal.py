"""Durable append-only ledger journal for crash-leave recovery.

A graceful leave moves a shard's exactly-once state in a
:data:`~repro.fabric.protocol.FABRIC_HANDOFF` snapshot — but a crashed
worker never gets to snapshot anything, and before this module existed
its successors restarted the :class:`~repro.fabric.worker.SeqLedger`\\ s
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
  state (same shape as a handoff snapshot).  Recovery starts from the
  last snapshot and replays only the entries behind it, so the re-fan-out
  tail — and the in-memory log — stay bounded.
* Every append carries the **ownership epoch** it was made under and is
  checked against the shard's *fence*: when a successor recovers a shard
  it fences the journal at the takeover epoch, so a resurrected stale
  owner that somehow still admits traffic cannot corrupt the log
  (``fabric.journal.fenced_appends`` counts the attempts).

The default store is in-memory (shared by reference between the workers
of one simulated deployment).  Passing ``path=`` makes it file-backed
(JSON lines, rewritten on compaction), which is what lets a *restarted*
worker — not just a successor — recover its own shards.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import JournalError
from repro.obs import OBS
from repro.obs.metrics import Handles

#: Appends since the last snapshot that trigger compaction (overridable
#: per store).  Large enough that a fuzzing case never compacts unless
#: the scenario asks to, small enough that long-lived shards stay cheap.
DEFAULT_COMPACT_EVERY = 256


class _ShardLog:
    """One shard's journal: ordered entries plus fencing metadata."""

    __slots__ = ("entries", "fence_epoch", "since_snapshot")

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        #: appends under epochs below this are rejected
        self.fence_epoch = 0
        #: appends since the last ``snapshot`` entry
        self.since_snapshot = 0


class JournalRecovery:
    """What :meth:`JournalStore.recover` hands a worker: the materialized
    channel state and the tail of admits to re-fan-out."""

    __slots__ = ("state", "tail")

    def __init__(
        self,
        state: Dict[str, Any],
        tail: List[Tuple[str, str, int, bytes]],
    ) -> None:
        #: ``{"channels": {cid: {"subscribers": [...], "ledgers": {...}}}}``
        #: — the handoff-snapshot shape, directly installable
        self.state = state
        #: ``(channel_id, publisher, seq, payload)`` admits since the
        #: last snapshot, in admission order
        self.tail = tail


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
        #: ``fabric.journal.<name>`` handles, made on a name's first count
        self._obs_counts: Dict[str, Handles] = {}
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

    def _admit_entry(
        self, log: _ShardLog, shard: int, entry: Dict[str, Any]
    ) -> bool:
        """Fence-check and append one entry (persisting it when
        file-backed).  Returns whether the entry was admitted."""
        epoch = entry["epoch"]
        if epoch < log.fence_epoch:
            self.fenced_appends += 1
            self._count("fenced_appends")
            return False
        log.entries.append(entry)
        self.appends += 1
        self._count("appends")
        if self.path is not None:
            self._persist(
                json.dumps({"shard": shard, **entry}, sort_keys=True) + "\n"
            )
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
        log = self._shard(shard)
        admitted = self._admit_entry(log, shard, {
            "kind": "admit",
            "epoch": epoch,
            "channel": channel_id,
            "publisher": publisher,
            "seq": seq,
            "payload": payload.hex(),
        })
        if admitted:
            log.since_snapshot += 1
            self._gauge_shard(shard, log)
        return admitted

    def append_subscribe(
        self,
        shard: int,
        epoch: int,
        channel_id: str,
        contact: str,
        format_id: int,
    ) -> bool:
        """Journal one subscriber installation."""
        log = self._shard(shard)
        admitted = self._admit_entry(log, shard, {
            "kind": "subscribe",
            "epoch": epoch,
            "channel": channel_id,
            "contact": contact,
            "format_id": format_id,
        })
        if admitted:
            log.since_snapshot += 1
            self._gauge_shard(shard, log)
        return admitted

    def snapshot(self, shard: int, epoch: int, state: Dict[str, Any]) -> bool:
        """Compaction point: record the shard's materialized channel
        state and drop every earlier entry (recovery never needs them
        again).  File-backed stores rewrite the file — that is the
        actual space reclaim."""
        log = self._shard(shard)
        if epoch < log.fence_epoch:
            self.fenced_appends += 1
            self._count("fenced_appends")
            return False
        log.entries = [{
            "kind": "snapshot",
            "epoch": epoch,
            "state": state,
        }]
        log.since_snapshot = 0
        self.compactions += 1
        self._count("compactions")
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
                self._persist(json.dumps(
                    {"shard": shard, "kind": "fence", "epoch": epoch},
                    sort_keys=True,
                ) + "\n")

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
        from repro.fabric.worker import SeqLedger

        log = self._shards.get(shard)
        if log is None or not log.entries:
            return None
        self.recoveries += 1
        self._count("recoveries")
        start = 0
        for index in range(len(log.entries) - 1, -1, -1):
            if log.entries[index].get("kind") == "snapshot":
                start = index
                break
        channels: Dict[str, Dict[str, Any]] = {}
        ledgers: Dict[str, Dict[str, SeqLedger]] = {}
        tail: List[Tuple[str, str, int, bytes]] = []
        floor = 0  # highest epoch seen; later entries must not regress

        def channel_state(channel_id: str) -> Dict[str, Any]:
            state = channels.get(channel_id)
            if state is None:
                state = channels[channel_id] = {
                    "subscribers": [], "ledgers": {},
                }
                ledgers[channel_id] = {}
            return state

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
                self._count("fenced_appends")
                continue
            floor = epoch
            if kind == "snapshot":
                state = entry.get("state")
                if not isinstance(state, dict):
                    raise JournalError(
                        f"journal snapshot for shard {shard} is not a mapping"
                    )
                channels.clear()
                ledgers.clear()
                tail = []
                for channel_id, channel in (
                    state.get("channels") or {}
                ).items():
                    if not isinstance(channel, dict):
                        raise JournalError(
                            f"journal snapshot channel {channel_id!r} is "
                            "not a mapping"
                        )
                    installed = channel_state(channel_id)
                    for contact_entry in channel.get("subscribers", ()):
                        contact, format_id = _subscriber_entry(contact_entry)
                        installed["subscribers"].append([contact, format_id])
                    for publisher, ledger_state in (
                        channel.get("ledgers") or {}
                    ).items():
                        ledgers[channel_id][publisher] = SeqLedger.from_state(
                            ledger_state
                        )
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
                channel_state(channel_id)
                ledger = ledgers[channel_id].get(publisher)
                if ledger is None:
                    ledger = ledgers[channel_id][publisher] = SeqLedger()
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
                state = channel_state(channel_id)
                format_id = entry.get("format_id")
                if not isinstance(format_id, int) or isinstance(
                    format_id, bool
                ):
                    raise JournalError(
                        f"journal subscribe for shard {shard} has bad "
                        f"format id {format_id!r}"
                    )
                pair = [contact, format_id]
                if pair not in state["subscribers"]:
                    state["subscribers"].append(pair)
            elif kind == "fence":
                continue
            else:
                raise JournalError(
                    f"unknown journal entry kind {kind!r} for shard {shard}"
                )
        for channel_id, per_publisher in ledgers.items():
            channels[channel_id]["ledgers"] = {
                publisher: ledger.to_state()
                for publisher, ledger in sorted(per_publisher.items())
            }
        return JournalRecovery({"channels": channels}, tail)

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
                    handle.write(json.dumps(
                        {"shard": shard, "kind": "fence",
                         "epoch": log.fence_epoch},
                        sort_keys=True,
                    ) + "\n")
                for entry in log.entries:
                    handle.write(json.dumps(
                        {"shard": shard, **entry}, sort_keys=True
                    ) + "\n")
        os.replace(tmp, self.path)

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from None
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                shard = int(record.pop("shard"))
            except (ValueError, KeyError, TypeError):
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

    def _count(self, name: str) -> None:
        if OBS.enabled:
            handles = self._obs_counts.get(name)
            if handles is None:
                handles = self._obs_counts[name] = Handles.counter(
                    f"fabric.journal.{name}"
                )
            handles().inc()

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


def _subscriber_entry(entry: Any) -> Tuple[str, int]:
    """Validate one journaled/snapshotted subscriber entry."""
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not isinstance(entry[0], str)
        or isinstance(entry[1], bool)
        or not isinstance(entry[1], int)
    ):
        raise JournalError(f"malformed subscriber entry {entry!r}")
    return entry[0], entry[1]
