"""JournalStore unit tests: append/recover round trips, epoch fencing,
compaction, on-disk persistence and corruption handling.

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
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[-1])
        del entry["seq"]
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        reloaded = JournalStore(path=str(path))
        with pytest.raises(JournalError):
            reloaded.recover(3)


    def test_torn_final_write_is_cut_off_not_fatal(self, tmp_path):
        """A SIGKILL inside a group's write leaves a last line with no
        newline.  That line was never durable; the ones before it were,
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
        # the file ends on a line again, so the next append starts one
        assert path.read_bytes() == b"".join(whole.splitlines(True)[:2])
        _admit(reloaded, seq=4)
        again = JournalStore(path=str(path))
        assert again.torn_tail == 0
        assert [e[2] for e in again.recover(3).tail] == [1, 2, 4]

    @pytest.mark.parametrize("bad", ["this is not jsonl {{{", "42"])
    def test_an_unparsable_line_before_the_last_is_corruption(
        self, tmp_path, bad
    ):
        path = tmp_path / "fabric.journal"
        store = JournalStore(path=str(path))
        for seq in (1, 2, 3):
            _admit(store, seq=seq)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = bad
        # no final newline either: the torn tail does not excuse line 2
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(JournalError, match="corrupt journal line 2"):
            JournalStore(path=str(path))


class TestWriteGroup:
    """A write group buffers the lines of the appends made inside it and
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
        assert (tmp_path / "grouped.journal").read_text() == (
            tmp_path / "single.journal"
        ).read_text()
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
        before = path.read_text()
        with store.group():
            assert store.append_admit(3, 4, "chan/a", "pub", 1, b"x") is False
        assert path.read_text() == before
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
