"""Tests for the capture/replay message archive."""

import io

import pytest

from repro.bench.workloads import response_v1_from_v2, response_v2
from repro.echo.protocol import RESPONSE_V1, RESPONSE_V2, V2_TO_V1_TRANSFORM
from repro.errors import NoMatchError
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.pbio.registry import FormatRegistry
from repro.tools.archive import (
    ArchiveError,
    ArchiveReader,
    ArchiveWriter,
    capture,
    open_archive,
)


def build_traffic(count=3):
    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1_TRANSFORM)
    ctx = PBIOContext(registry)
    records = [response_v2(i + 1) for i in range(count)]
    wires = [ctx.encode(RESPONSE_V2, rec) for rec in records]
    return registry, records, wires


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        registry, _records, wires = build_traffic()
        path = str(tmp_path / "traffic.pbar")
        with ArchiveWriter(path, registry) as writer:
            for wire in wires:
                writer.append(wire)
        assert writer.messages_written == 3
        with ArchiveReader(path) as reader:
            assert reader.messages() == wires
            assert RESPONSE_V2 in reader.registry
            assert reader.registry.transforms_from(RESPONSE_V2)

    def test_blob_roundtrip(self):
        registry, _records, wires = build_traffic()
        blob = capture(registry, wires)
        assert open_archive(blob).messages() == wires

    def test_empty_archive(self):
        registry = FormatRegistry()
        blob = capture(registry, [])
        assert open_archive(blob).messages() == []


class TestReplay:
    def test_replay_into_old_reader_morphs(self):
        """Traffic captured from a v2.0 writer replays into a reader that
        only understands v1.0 — built from an EMPTY registry."""
        registry, records, wires = build_traffic()
        blob = capture(registry, wires)
        receiver = MorphReceiver()  # knows nothing about the archive
        got = []
        receiver.register_handler(RESPONSE_V1, got.append)
        report = open_archive(blob).replay_into(receiver)
        assert report.delivered == 3 and report.failed == 0
        for record, original in zip(got, records):
            assert records_equal(record, response_v1_from_v2(original))

    def test_replay_stop_on_error(self):
        registry, _records, wires = build_traffic(1)
        alien = IOFormat("Alien", [IOField("x", "integer")])
        registry.register(alien)
        alien_wire = PBIOContext(registry).encode(alien, {"x": 1})
        blob = capture(registry, [alien_wire] + wires)
        receiver = MorphReceiver()
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        with pytest.raises(NoMatchError):
            open_archive(blob).replay_into(receiver)
        (letter,) = receiver.dead_letters
        assert letter.stage == "no_match"

    def test_replay_collects_errors_when_not_stopping(self):
        registry, _records, wires = build_traffic(2)
        alien = IOFormat("Alien", [IOField("x", "integer")])
        registry.register(alien)
        alien_wire = PBIOContext(registry).encode(alien, {"x": 1})
        blob = capture(registry, [wires[0], alien_wire, wires[1]])
        receiver = MorphReceiver()
        receiver.register_handler(RESPONSE_V1, lambda rec: rec)
        report = open_archive(blob).replay_into(receiver, stop_on_error=False)
        assert report.delivered == 2
        assert report.failed == 1
        assert isinstance(report.errors[0], NoMatchError)
        assert [letter.stage for letter in receiver.dead_letters] == ["no_match"]

    def test_replay_judges_every_message_past_the_quarantine_threshold(self):
        """Replay quarantines nothing: three messages of a format that
        fail do not stop a fourth, good one from delivering."""
        registry = FormatRegistry()
        ctx = PBIOContext(registry)
        reading = IOFormat("Reading", [IOField("x", "integer")])
        wires = [ctx.encode(reading, {"x": x}) for x in range(4)]
        receiver = MorphReceiver(registry)

        def handler(record):
            if record["x"] < MorphReceiver.QUARANTINE_THRESHOLD:
                raise ValueError("not this one")
            return record["x"]

        receiver.register_handler(reading, handler)
        report = open_archive(capture(registry, wires)).replay_into(
            receiver, stop_on_error=False)
        assert report.failed == MorphReceiver.QUARANTINE_THRESHOLD
        assert report.delivered == 1 and report.results == [3]
        assert receiver.quarantined_formats == set()


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ArchiveError, match="magic"):
            ArchiveReader(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_truncated_header(self):
        with pytest.raises(ArchiveError, match="too short"):
            ArchiveReader(io.BytesIO(b"PB"))

    def test_truncated_snapshot(self):
        registry, _r, wires = build_traffic(1)
        blob = capture(registry, wires)
        with pytest.raises(ArchiveError, match="snapshot"):
            ArchiveReader(io.BytesIO(blob[:20]))

    def test_truncated_message(self):
        registry, _r, wires = build_traffic(1)
        blob = capture(registry, wires)
        with pytest.raises(ArchiveError, match="truncated inside a message"):
            open_archive(blob[:-5]).messages()

    def test_unsupported_version(self):
        registry = FormatRegistry()
        blob = bytearray(capture(registry, []))
        blob[4] = 99  # version u16 low byte
        with pytest.raises(ArchiveError, match="version"):
            open_archive(bytes(blob))
