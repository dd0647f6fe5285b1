"""JournalStore unit tests: append/recover round trips, epoch fencing,
compaction, on-disk persistence (records read by length, older hex
lines still loaded) and corruption handling.

The journal is the crash-durability half of the fabric tentpole: a
worker appends every ledger admission and channel-state change *before*
fanning out, so a successor (or the restarted worker itself) can
recover exactly-once state for a crash-leave.  These tests exercise the
store in isolation; ``test_recovery.py`` drives it through a live
deployment.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError
from repro.fabric.journal import JournalRecovery, JournalStore


def _admit(store, shard=3, epoch=2, seq=1, channel="chan/a", pub="pub"):
    store.append_admit(shard, epoch, channel, pub, seq, b"payload-%d" % seq)


def _split(data):
    """A journal file's records as ``(header line, payload + newline)``
    byte pairs (the second empty for a record without a payload)."""
    records, pos = [], 0
    while pos < len(data):
        body = data.index(b"\n", pos) + 1
        size = json.loads(data[pos:body]).get("size")
        end = body if size is None else body + size + 1
        records.append((data[pos:body], data[body:end]))
        pos = end
    return records


class TestAppendRecover:
    def test_empty_shard_recovers_to_none(self):
        store = JournalStore()
        assert store.recover(7) is None

    def test_admissions_come_back_as_state_plus_tail(self):
        store = JournalStore()
        for seq in (1, 2, 3):
            _admit(store, seq=seq)
        recovery = store.recover(3)
        assert isinstance(recovery, JournalRecovery)
        ledgers = recovery.state["channels"]["chan/a"]["ledgers"]
        assert ledgers["pub"] == {"high": 3, "sparse": []}
        # every admission rides in the tail for re-fan-out, in order:
        # (channel_id, publisher, seq, payload)
        assert [seq for _, _, seq, _ in recovery.tail] == [1, 2, 3]
        assert [payload for _, _, _, payload in recovery.tail] == [
            b"payload-1", b"payload-2", b"payload-3",
        ]

    def test_subscribe_entries_rebuild_subscriber_lists(self):
        store = JournalStore()
        store.append_subscribe(3, 2, "chan/a", "sub-1", 1)
        _admit(store, seq=1)
        recovery = store.recover(3)
        channel = recovery.state["channels"]["chan/a"]
        assert ["sub-1", 1] in [
            list(entry) for entry in channel["subscribers"]
        ]

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_a_payload_view_is_copied_not_pinned(self, tmp_path, on_disk):
        """The worker hands over a view into the received frame; the
        journal must not depend on that buffer staying as it was."""
        store = JournalStore(
            path=str(tmp_path / "fabric.journal") if on_disk else None
        )
        frame = bytearray(b"header|payload-1")
        store.append_admit(3, 2, "chan/a", "pub", 1, memoryview(frame)[7:])
        frame[7:] = b"reused-buf"
        assert store.recover(3).tail[0][3] == b"payload-1"
        assert type(store.recover(3).tail[0][3]) is bytes

    def test_shards_are_independent(self):
        store = JournalStore()
        _admit(store, shard=1, seq=1)
        _admit(store, shard=2, seq=5)
        assert [e[2] for e in store.recover(1).tail] == [1]
        assert [e[2] for e in store.recover(2).tail] == [5]


class TestFencing:
    def test_fence_rejects_stale_epoch_appends(self):
        store = JournalStore()
        store.fence(3, epoch=5)
        _admit(store, epoch=4, seq=1)  # stale: silently fenced out
        _admit(store, epoch=5, seq=2)
        recovery = store.recover(3)
        assert [e[2] for e in recovery.tail] == [2]
        assert store.fenced_appends == 1

    def test_fence_is_monotonic(self):
        store = JournalStore()
        store.fence(3, epoch=5)
        store.fence(3, epoch=2)  # regression attempt: ignored
        assert store.fence_epoch(3) == 5

    def test_recover_skips_epoch_regressed_entries(self):
        store = JournalStore()
        _admit(store, epoch=4, seq=1)
        _admit(store, epoch=6, seq=2)
        _admit(store, epoch=5, seq=3)  # older epoch after a newer one
        recovery = store.recover(3)
        assert [e[2] for e in recovery.tail] == [1, 2]


class TestCompaction:
    def test_snapshot_replaces_entries_and_bounds_tail(self):
        store = JournalStore()
        for seq in (1, 2):
            _admit(store, seq=seq)
        state = store.recover(3).state
        store.snapshot(3, 2, state)
        _admit(store, seq=3)
        recovery = store.recover(3)
        # snapshot state survives; only post-snapshot admits in the tail
        assert recovery.state["channels"]["chan/a"]["ledgers"]["pub"] == {
            "high": 3, "sparse": [],
        }
        assert [e[2] for e in recovery.tail] == [3]

    def test_should_compact_trips_at_threshold(self):
        store = JournalStore(compact_every=4)
        for seq in range(1, 4):
            _admit(store, seq=seq)
            assert not store.should_compact(3)
        _admit(store, seq=4)
        assert store.should_compact(3)
        store.snapshot(3, 2, store.recover(3).state)
        assert not store.should_compact(3)


class TestPersistence:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        for seq in (1, 2):
            _admit(store, seq=seq)
        store.fence(3, epoch=2)
        reloaded = JournalStore(path=str(path))
        recovery = reloaded.recover(3)
        assert [e[2] for e in recovery.tail] == [1, 2]
        assert reloaded.fence_epoch(3) == 2

    def test_corrupt_journal_raises_journal_error(self, tmp_path):
        path = tmp_path / "fabric.journal"
        path.write_text("this is not jsonl {{{\n", encoding="utf-8")
        with pytest.raises(JournalError):
            JournalStore(path=str(path))

    def test_truncated_record_raises_journal_error(self, tmp_path):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        _admit(store, seq=1)
        (header, payload), = _split(path.read_bytes())
        entry = json.loads(header)
        del entry["seq"]
        path.write_bytes(json.dumps(entry).encode() + b"\n" + payload)
        reloaded = JournalStore(path=str(path))
        with pytest.raises(JournalError):
            reloaded.recover(3)

    def test_torn_final_write_is_cut_off_not_fatal(self, tmp_path):
        """A SIGKILL inside a group's write leaves a last record cut
        short.  That record was never durable; the ones before it were,
        and must still load."""
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        with store.group():
            for seq in (1, 2, 3):
                store.append_admit(3, 2, "chan/a", "pub", seq, b"x" * 30_000)
        whole = path.read_bytes()
        path.write_bytes(whole[:-20_000])
        reloaded = JournalStore(path=str(path))
        assert reloaded.torn_tail == 1
        assert [e[2] for e in reloaded.recover(3).tail] == [1, 2]
        # the file ends on a record again, so the next append starts one
        assert path.read_bytes() == b"".join(
            b"".join(record) for record in _split(whole)[:2]
        )
        _admit(reloaded, seq=4)
        again = JournalStore(path=str(path))
        assert again.torn_tail == 0
        assert [e[2] for e in again.recover(3).tail] == [1, 2, 4]

    @pytest.mark.parametrize("bad", [b"this is not jsonl {{{", b"42"])
    def test_an_unparsable_line_before_the_last_is_corruption(
        self, tmp_path, bad
    ):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        for seq in (1, 2, 3):
            _admit(store, seq=seq)
        records = _split(path.read_bytes())
        records[1] = (bad + b"\n", b"")
        # no final newline either: the torn tail does not excuse record 2
        path.write_bytes(b"".join(b"".join(r) for r in records)[:-1])
        with pytest.raises(JournalError, match="corrupt journal record 2"):
            JournalStore(path=str(path))

    def test_a_payload_is_read_by_length_not_by_line(self, tmp_path):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        payloads = [b"\n", b"a\nb\n\n", b"{\"shard\": 1}\n", b"\xff\xfe\x00"]
        for seq, payload in enumerate(payloads, 1):
            store.append_admit(3, 2, "chan/a", "pub", seq, payload)
        # raw bytes on disk, not hex: each payload appears as written
        assert all(payload in path.read_bytes() for payload in payloads)
        reloaded = JournalStore(path=str(path))
        assert reloaded.torn_tail == 0
        assert [e[3] for e in reloaded.recover(3).tail] == payloads


class TestFenceRecords:
    """A fence is what keeps a stale owner's later entries out of
    recovery, so a fence record the loader cannot read is corruption,
    never a record to skip."""

    @pytest.mark.parametrize("epoch", ['"5"', "5.5", "true", "null"])
    def test_a_fence_with_a_bad_epoch_is_a_journal_error(
        self, tmp_path, epoch
    ):
        path = tmp_path / "fabric.journal"
        path.write_bytes(
            b'{"shard": 3, "kind": "fence", "epoch": 5}\n'
            + b'{"shard": 3, "kind": "fence", "epoch": %s}\n' % epoch.encode()
        )
        with pytest.raises(JournalError, match="record 2 .*fence"):
            JournalStore(path=str(path))

    @pytest.mark.parametrize("shard", ['"3"', "3.7", "true", "null", "[3]"])
    def test_a_record_with_a_non_int_shard_is_a_journal_error(
        self, tmp_path, shard
    ):
        path = tmp_path / "fabric.journal"
        path.write_bytes(
            b'{"shard": %s, "kind": "fence", "epoch": 5}\n' % shard.encode()
            + b'{"shard": 3, "kind": "fence", "epoch": 6}\n'
        )
        with pytest.raises(JournalError, match="record 1 .*shard"):
            JournalStore(path=str(path))

    def test_a_loaded_fence_still_keeps_stale_entries_out(self, tmp_path):
        path = tmp_path / "fabric.journal"
        path.write_bytes(b'{"shard": 3, "kind": "fence", "epoch": 5}\n')
        store = JournalStore(path=str(path))
        assert store.fence_epoch(3) == 5
        _admit(store, epoch=4, seq=1)
        assert store.fenced_appends == 1
        assert JournalStore(path=str(path)).recover(3) is None


def _every_kind_journal(path):
    """A file holding every record kind and awkward payload bytes: a
    fence, a subscribe, admits with ``\\n``, ``{`` and non-UTF-8 bytes,
    a snapshot, and admits appended after the compaction."""
    store = JournalStore(path=str(path))
    store.fence(3, epoch=2)
    store.append_subscribe(3, 2, "chan/a", "sub-1", 1)
    store.append_admit(3, 2, "chan/a", "pub", 1, b"line\none\n")
    store.append_admit(5, 2, "chan/b", "pub", 1, b"{")
    store.snapshot(5, 2, store.recover(5).state)
    store.append_admit(3, 2, "chan/a", "pub", 2, b"\xff\xfe\x80\n{")
    store.append_admit(5, 2, "chan/b", "pub", 2, b"")
    return store


def _recovered(store):
    return {
        shard: (recovery.state, recovery.tail)
        for shard in (3, 5)
        for recovery in [store.recover(shard)]
        if recovery is not None
    }


class TestEveryPrefixAndRecord:
    def test_every_truncation_loads_the_complete_records(self, tmp_path):
        path = tmp_path / "fabric.journal"
        written = _every_kind_journal(path)
        data = path.read_bytes()
        records = [b"".join(record) for record in _split(data)]
        # shard 3: fence, subscribe, admit; shard 5: the snapshot that
        # replaced its admit; then the two admits appended after it
        assert len(records) == 6
        boundaries = [sum(map(len, records[:k])) for k in range(7)]
        expected = []
        for k in range(7):
            path.write_bytes(data[:boundaries[k]])
            expected.append(_recovered(JournalStore(path=str(path))))
        assert expected[-1] == _recovered(written)
        for cut in range(len(data) + 1):
            k = max(k for k, end in enumerate(boundaries) if end <= cut)
            path.write_bytes(data[:cut])
            store = JournalStore(path=str(path))
            assert store.torn_tail == (cut != boundaries[k]), cut
            assert path.read_bytes() == data[:boundaries[k]], cut
            assert _recovered(store) == expected[k], cut
            store.append_admit(3, 9, "chan/a", "pub", 99, b"\n{\xff")
            reloaded = JournalStore(path=str(path))
            assert reloaded.torn_tail == 0, cut
            assert reloaded.recover(3).tail[-1] == (
                "chan/a", "pub", 99, b"\n{\xff"
            ), cut

    @pytest.mark.parametrize("damage", [
        lambda header: b"#" + header[1:],          # not JSON
        lambda header: header[:-1] + b" ",          # newline lost
        lambda header: header[:-2] + b",\n",        # cut inside the object
        lambda header: b"[]\n",                     # not an object
        lambda header: header.replace(b'"shard": ', b'"shard": 0.5, "x": '),
    ])
    def test_a_damaged_header_before_the_last_is_a_journal_error(
        self, tmp_path, damage
    ):
        path = tmp_path / "fabric.journal"
        _every_kind_journal(path)
        records = _split(path.read_bytes())
        for index in range(len(records) - 1):
            damaged = list(records)
            header, rest = damaged[index]
            damaged[index] = (damage(header), rest)
            path.write_bytes(b"".join(b"".join(r) for r in damaged))
            with pytest.raises(JournalError, match=f"record {index + 1}"):
                JournalStore(path=str(path))


def _legacy_line(shard, entry):
    """One record as the hex JSON-lines journal wrote it."""
    return json.dumps({"shard": shard, **entry}, sort_keys=True) + "\n"


class TestHexLinesCompatibility:
    """Files written before admits carried raw payloads are refused: an
    admit header without ``size`` is a corrupt record, named."""

    def test_a_hex_journal_recovers_like_the_same_admits_written_now(
        self, tmp_path
    ):
        """Historical name: a hex journal no longer recovers; its admit
        is refused by record number."""
        legacy = tmp_path / "legacy.journal"
        legacy.write_text("".join([
            _legacy_line(3, {"kind": "fence", "epoch": 2}),
            _legacy_line(3, {"kind": "subscribe", "epoch": 2,
                             "channel": "chan/a", "contact": "sub-1",
                             "format_id": 1}),
            _legacy_line(3, {"kind": "admit", "epoch": 2,
                             "channel": "chan/a", "publisher": "pub",
                             "seq": 1, "payload": b"line\none".hex()}),
        ]), encoding="utf-8")
        with pytest.raises(JournalError, match="record 3.*has no size"):
            JournalStore(path=str(legacy))

    def test_an_undecodable_hex_payload_is_a_journal_error(self, tmp_path):
        path = tmp_path / "legacy.journal"
        path.write_text(_legacy_line(3, {
            "kind": "admit", "epoch": 2, "channel": "chan/a",
            "publisher": "pub", "seq": 1, "payload": "zz",
        }), encoding="utf-8")
        with pytest.raises(JournalError, match="record 1"):
            JournalStore(path=str(path))


class _CountedBytes(bytes):
    """A payload that counts how often it is hex-encoded."""

    hexed = 0

    def hex(self, *args):
        type(self).hexed += 1
        return super().hex(*args)


class TestPriceGuard:
    """Counts, never times: a record is serialised once, when it is
    appended; a compaction writes the bytes the store already holds."""

    @staticmethod
    def _counting_dumps(monkeypatch):
        calls = []
        real = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *a, **k: calls.append(a[0]) or real(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("live", [8, 200])
    def test_a_snapshot_serialises_only_its_own_entry(
        self, tmp_path, monkeypatch, live
    ):
        store = JournalStore(path=str(tmp_path / "fabric.journal"))
        for shard in range(4):
            store.fence(shard, epoch=2)
            store.append_subscribe(shard, 2, f"chan/{shard}", "sub-1", 1)
        for seq in range(1, live + 1):
            store.append_admit(seq % 4, 2, f"chan/{seq % 4}", "pub", seq,
                               b"\n{" * 50)
        state = store.recover(0).state
        calls = self._counting_dumps(monkeypatch)
        assert store.snapshot(0, 2, state)
        assert [call["kind"] for call in calls] == ["snapshot"]
        monkeypatch.undo()
        reloaded = JournalStore(path=store.path)
        assert reloaded.recover(0).state == state
        for shard in (1, 2, 3):
            assert reloaded.recover(shard).tail == store.recover(shard).tail

    def test_an_append_serialises_its_header_once_and_never_hexes(
        self, tmp_path, monkeypatch
    ):
        """An admit's header is serialised once per (epoch, channel,
        publisher) between snapshots — later admits of that key format
        only their ``seq`` and ``size`` — and its payload never hexed."""
        store = JournalStore(path=str(tmp_path / "fabric.journal"))
        payload = _CountedBytes(b"\x00\xff" * 150)
        calls = self._counting_dumps(monkeypatch)
        _CountedBytes.hexed = 0
        assert store.append_admit(3, 2, "chan/a", "pub", 1, payload)
        with store.group():
            assert store.append_admit(3, 2, "chan/a", "pub", 2, payload)
            assert store.append_admit(3, 2, "chan/a", "pub-2", 1, payload)
        assert [call["kind"] for call in calls] == ["admit", "admit"]
        assert _CountedBytes.hexed == 0
        monkeypatch.undo()
        tail = JournalStore(path=store.path).recover(3).tail
        assert [e[3] for e in tail] == [payload] * 3

    def test_an_admit_header_is_the_json_of_its_fields(self, tmp_path):
        """Byte for byte what ``json.dumps`` of the record's fields
        writes, over seeded values, non-ASCII and quoted names included,
        across snapshots (which empty the kept prefixes)."""
        import random

        from repro.fabric.journal import _header

        rng = random.Random(7)
        names = ["chan/a", "çanal/ü", 'q"uote', "back\\slash", "日本", "x"]
        store = JournalStore(path=str(tmp_path / "fabric.journal"))
        for n in range(600):
            shard, epoch = rng.randrange(4), rng.randrange(3, 5)
            if n % 97 == 96:
                assert store.snapshot(shard, epoch, {})
                continue
            fields = {"shard": shard, "kind": "admit", "epoch": epoch,
                      "channel": rng.choice(names),
                      "publisher": rng.choice(names),
                      "seq": rng.randrange(2 ** 64),
                      "size": rng.randrange(1, 40)}
            assert store.append_admit(
                shard, epoch, fields["channel"], fields["publisher"],
                fields["seq"], bytes(fields["size"]))
            assert store._shards[shard].entries[-1].header == _header(fields)
        for shard in range(4):
            assert JournalStore(path=store.path).recover(shard).tail == (
                store.recover(shard).tail)


class TestWriteGroup:
    """A write group buffers the records of the appends made inside it and
    writes them with one ``open``; nothing else about an append changes."""

    def test_group_writes_once_and_loads_like_event_by_event(
        self, tmp_path, monkeypatch
    ):
        one_by_one = JournalStore(path=str(tmp_path / "single.journal"))
        grouped = JournalStore(path=str(tmp_path / "grouped.journal"))
        for store in (one_by_one, grouped):
            store.append_subscribe(3, 2, "chan/a", "sub-1", 1)
        for seq in range(1, 65):
            _admit(one_by_one, seq=seq)
        opens = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open",
            lambda *a, **k: opens.append(a[0]) or real_open(*a, **k),
        )
        with grouped.group():
            for seq in range(1, 65):
                assert grouped.append_admit(
                    3, 2, "chan/a", "pub", seq, b"payload-%d" % seq
                ) is True
            # buffered: in memory at once, on disk when the group closes
            assert grouped.entry_count(3) == 65
            assert opens == []
        assert opens == [grouped.path]
        monkeypatch.undo()
        assert (tmp_path / "grouped.journal").read_bytes() == (
            tmp_path / "single.journal"
        ).read_bytes()
        loaded = [
            JournalStore(path=store.path).recover(3)
            for store in (grouped, one_by_one)
        ]
        assert loaded[0].state == loaded[1].state
        assert loaded[0].tail == loaded[1].tail
        assert len(loaded[0].tail) == 64

    def test_fenced_append_inside_a_group_writes_nothing(self, tmp_path):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        store.fence(3, epoch=5)
        before = path.read_bytes()
        with store.group():
            assert store.append_admit(3, 4, "chan/a", "pub", 1, b"x") is False
        assert path.read_bytes() == before
        assert store.fenced_appends == 1
        assert store.entry_count(3) == 0

    def test_group_flushes_what_it_holds_when_the_body_raises(self, tmp_path):
        store = JournalStore(path=str(tmp_path / "fabric.journal"))
        with pytest.raises(RuntimeError):
            with store.group():
                _admit(store, seq=1)
                raise RuntimeError("mid-run failure")
        assert [e[2] for e in JournalStore(path=store.path).recover(3).tail] == [1]

    def test_snapshot_inside_a_group_does_not_duplicate_lines(self, tmp_path):
        store = JournalStore(path=str(tmp_path / "fabric.journal"))
        with store.group():
            _admit(store, seq=1)
            store.snapshot(3, 2, {"channels": {}})
            _admit(store, seq=2)
        reloaded = JournalStore(path=store.path)
        assert reloaded.entry_count(3) == 2  # snapshot + the admit after it
        assert [e[2] for e in reloaded.recover(3).tail] == [2]


class TestCounters:
    def test_store_counts_its_lifecycle(self):
        store = JournalStore(compact_every=2)
        for seq in (1, 2):
            _admit(store, seq=seq)
        store.fence(3, epoch=5)
        _admit(store, epoch=4, seq=3)
        store.snapshot(3, 5, {"channels": {}})
        store.recover(3)
        assert store.appends == 2
        assert store.fenced_appends == 1
        assert store.compactions == 1
        assert store.recoveries == 1
