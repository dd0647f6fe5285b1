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
of one simulated deployment).  Passing ``path=`` makes it file-backed,
which is what lets a *restarted* worker — not just a successor — recover
its own shards.  The file is a sequence of records, each a one-line JSON
header (``shard``, ``kind``, ``epoch``, the entry's fields).  An admit's
header also carries ``size``: the payload's raw bytes follow the header
line, then one ``\\n``.  A header is serialised once, when its entry is
appended, and kept beside the entry with the payload, so a compaction
writes bytes the store already holds.  The loader reads by length, not
by lines (a raw payload may contain ``\\n``).  An admit header without
``size`` — the older line that carried its payload as hex — is a
corrupt record.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.errors import FabricError, JournalError
from repro.fabric.state import Channels, dump_state, load_state
from repro.net.ledger import SeqLedger
from repro.obs.metrics import Tallies, collect, counter, gauge

#: Appends since the last snapshot that trigger compaction (overridable
#: per store).  Large enough that a fuzzing case never compacts unless
#: the scenario asks to, small enough that long-lived shards stay cheap.
DEFAULT_COMPACT_EVERY = 256


_NEWLINE = b"\n"


def _header(fields: Dict[str, Any]) -> bytes:
    """The on-disk header line of one record (ASCII: ``json.dumps``
    escapes everything else, so the line holds no raw ``\\n``)."""
    return (json.dumps(fields) + "\n").encode()


def _admit_header(log: "_ShardLog", fields: Dict[str, Any]) -> bytes:
    """``_header(fields)`` of an admit, without a ``json.dumps`` per
    record: the bytes before its ``seq`` value are kept per
    ``(epoch, channel, publisher)`` in *log* (a shard's), and its two
    integers — ``seq`` and ``size``, the last two keys of every admit's
    fields — are formatted as ``json.dumps`` writes them."""
    key = (fields["epoch"], fields["channel"], fields["publisher"])
    prefix = log.admit_prefixes.get(key)
    if prefix is None:
        head = dict(fields)
        del head["seq"], head["size"]
        prefix = log.admit_prefixes[key] = (
            json.dumps(head)[:-1] + ', "seq": ').encode()
    return prefix + b'%d, "size": %d}\n' % (fields["seq"], fields["size"])


class _Entry(NamedTuple):
    """One journaled entry, held once in the form each reader wants."""

    #: the header's fields (``kind``, ``epoch``, ...), read by recovery
    fields: Dict[str, Any]
    #: the record's serialised header line; None in an in-memory store
    header: Optional[bytes]
    #: an admit's payload (raw bytes on disk after the header), else None
    payload: Optional[bytes]

    def parts(self) -> Tuple[bytes, ...]:
        """The record's bytes on disk, in order."""
        if self.payload is None:
            return (self.header,)
        return (self.header, self.payload, _NEWLINE)


def _parse_record(
    data: bytes, start: int, body: int
) -> Optional[Tuple[_Entry, int]]:
    """The record whose header line is ``data[start:body]``, with the
    offset just past it; ``None`` when its payload is cut short.  Raises
    ``ValueError`` saying what is malformed."""
    header = data[start:body]
    fields = json.loads(header)
    if not isinstance(fields, dict):
        raise ValueError("header is not an object")
    if type(fields.get("shard")) is not int:
        raise ValueError(f"bad shard {fields.get('shard')!r}")
    kind = fields.get("kind")
    if kind == "fence" and type(fields.get("epoch")) is not int:
        raise ValueError(f"fence has bad epoch {fields.get('epoch')!r}")
    if "size" in fields:
        size = fields["size"]
        if type(size) is not int or size < 0:
            raise ValueError(f"bad payload size {size!r}")
        end = body + size
        if end >= len(data):
            return None
        if data[end:end + 1] != _NEWLINE:
            raise ValueError(f"payload is not {size} bytes")
        return _Entry(fields, header, data[body:end]), end + 1
    if kind == "admit":
        raise ValueError("admit header has no size")
    return _Entry(fields, header, None), body


class _ShardLog:
    """One shard's journal: ordered entries plus fencing metadata."""

    __slots__ = ("entries", "fence_epoch", "fence_header", "since_snapshot",
                 "admit_prefixes")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        #: appends under epochs below this are rejected
        self.fence_epoch = 0
        #: the header of the fence record a compaction writes (file only)
        self.fence_header: Optional[bytes] = None
        #: appends since the last ``snapshot`` entry
        self.since_snapshot = 0
        #: an admit header's bytes up to its ``seq`` value, by
        #: ``(epoch, channel, publisher)`` (file only; emptied by each
        #: snapshot, so it holds at most the keys appended since)
        self.admit_prefixes: Dict[Tuple[int, str, str], bytes] = {}


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


#: the tallies, and the journal lag ``--top`` renders (summed over the
#: store's shards; file size)
_COLLECTED = (
    counter("fabric.journal.appends", "appends"),
    counter("fabric.journal.compactions", "compactions"),
    gauge("fabric.journal.entries_since_snapshot", lambda store: sum(
        log.since_snapshot for log in list(store._shards.values())
    )),
    gauge("fabric.journal.disk_bytes",
          lambda store: store.path and store.disk_size_bytes()),
)


class JournalStore:
    """Append-only, epoch-fenced, per-shard ledger journal.

    Parameters
    ----------
    path:
        Optional file to persist the journal to (JSON header records,
        raw payloads; loaded on construction when it exists, rewritten
        on compaction).  Without
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
        #: record bytes buffered by an open write :meth:`group` (None
        #: outside)
        self._group: Optional[List[bytes]] = None
        self._tally = Tallies(appends=0, compactions=0)
        collect(self, self._tally, _COLLECTED)
        self.fenced_appends = 0
        self.recoveries = 0
        #: torn final records cut off at load (see :meth:`_load`)
        self.torn_tail = 0
        if path is not None and os.path.exists(path):
            self._load(path)

    appends = property(lambda self: self._tally.appends)
    compactions = property(lambda self: self._tally.compactions)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _shard(self, shard: int) -> _ShardLog:
        log = self._shards.get(shard)
        if log is None:
            log = self._shards[shard] = _ShardLog()
        return log

    def _admit_entry(
        self, shard: int, fields: Dict[str, Any], payload: Optional[bytes] = None
    ) -> bool:
        """Fence-check and append one entry (persisting it when
        file-backed).  Returns whether the entry was admitted."""
        log = self._shard(shard)
        if fields["epoch"] < log.fence_epoch:
            self.fenced_appends += 1
            return False
        header = None
        if self.path is not None:
            header = (_admit_header(log, fields) if payload is not None
                      else _header(fields))
        entry = _Entry(fields, header, payload)
        log.entries.append(entry)
        log.since_snapshot += 1
        self._tally.appends += 1
        if header is not None:
            self._persist(entry.parts())
        return True

    def _persist(self, parts: Iterable[bytes]) -> None:
        """Write one record's parts — straight to the file, or into the
        open write group's buffer."""
        if self._group is not None:
            self._group.extend(parts)
            return
        with open(self.path, "ab") as handle:
            handle.writelines(parts)

    @contextlib.contextmanager
    def group(self) -> Iterator[None]:
        """Write group: appends made inside keep their per-call fence
        check, return value and in-memory entry, but a file-backed store
        buffers their records and writes them with **one** ``open`` when
        the group closes (also when the body raises — what is in memory
        must reach the file).  The caller's write-ahead point is
        therefore the end of the ``with`` block, not each append."""
        if self._group is not None or self.path is None:
            yield  # nested, or nothing to persist
            return
        self._group = parts = []
        try:
            yield
        finally:
            self._group = None
            if parts:
                self._persist(parts)

    def append_admit(
        self,
        shard: int,
        epoch: int,
        channel_id: str,
        publisher: str,
        seq: int,
        payload: bytes,
    ) -> bool:
        """Journal one ledger admission, payload included (its raw bytes
        follow the record's header on disk).  The store keeps its own
        ``bytes`` of the payload: a view into a received frame would pin
        the whole frame for as long as the entry lives."""
        payload = bytes(payload)
        return self._admit_entry(shard, {
            "shard": shard,
            "kind": "admit",
            "epoch": epoch,
            "channel": channel_id,
            "publisher": publisher,
            "seq": seq,
            "size": len(payload),
        }, payload)

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
            "shard": shard,
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
        fields = {"shard": shard, "kind": "snapshot", "epoch": epoch,
                  "state": state}
        header = None if self.path is None else _header(fields)
        log.entries = [_Entry(fields, header, None)]
        log.since_snapshot = 0
        log.admit_prefixes = {}
        self._tally.compactions += 1
        if self.path is not None:
            self._rewrite()
        return True

    def fence(self, shard: int, epoch: int) -> None:
        """Reject any future append for *shard* under an epoch older
        than *epoch* — called by a successor at takeover, so a
        resurrected stale owner cannot write behind it."""
        log = self._shard(shard)
        if epoch > log.fence_epoch:
            log.fence_epoch = epoch
            if self.path is not None:
                log.fence_header = _header(
                    {"shard": shard, "kind": "fence", "epoch": epoch}
                )
                self._persist((log.fence_header,))

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
            if log.entries[index].fields.get("kind") == "snapshot":
                start = index
                break
        channels: Channels = {}
        tail: List[Tuple[str, str, int, bytes]] = []
        floor = 0  # highest epoch seen; later entries must not regress
        for entry, _, payload in log.entries[start:]:
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
            # every buffered record's entry is in memory and rewritten below
            self._group.clear()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.writelines(self._records())
        os.replace(tmp, self.path)

    def _records(self) -> Iterator[bytes]:
        """The file's bytes, part by part, from what the entries hold:
        a compaction serialises nothing but its own snapshot."""
        for shard in sorted(self._shards):
            log = self._shards[shard]
            if log.fence_header is not None:
                yield log.fence_header
            for entry in log.entries:
                yield from entry.parts()

    def _load(self, path: str) -> None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from None
        # Records are read by length.  A final record cut short — in its
        # header or in its payload — is a write the process died in (its
        # group never closed, nothing it covers was delivered): cut it
        # off so the next append starts a record.  A bad record *before*
        # that is corruption.
        pos = number = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            if newline < 0:
                break  # torn header
            if not data[pos:newline].strip():
                pos = newline + 1
                continue
            number += 1
            try:
                record = _parse_record(data, pos, newline + 1)
            except ValueError as exc:
                raise JournalError(
                    f"corrupt journal record {number} in {path}: {exc}"
                ) from None
            if record is None:
                break  # torn payload
            entry, pos = record
            log = self._shard(entry.fields["shard"])
            kind = entry.fields.get("kind")
            if kind == "fence":
                if entry.fields["epoch"] > log.fence_epoch:
                    log.fence_epoch = entry.fields["epoch"]
                    log.fence_header = entry.header
                continue
            log.entries.append(entry)
            if kind == "snapshot":
                log.since_snapshot = 0
            else:
                log.since_snapshot += 1
        if pos < len(data):
            self.torn_tail += 1
            os.truncate(path, pos)

    def disk_size_bytes(self) -> int:
        """On-disk size of the journal file (0 for in-memory stores or
        before the first persisted append)."""
        if self.path is None:
            return 0
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
