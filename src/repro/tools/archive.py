"""Message archives — capture wire traffic with its meta-data; replay it
into receivers that may not exist yet.

Morphing "can address components separated in space and/or time"
(Section 1).  The space half is the format server; this is the time
half: an archive file bundles a registry snapshot (formats + ECode
transformations) with raw PBIO wire messages.  Years later, a reader
built against *any* compatible revision replays the archive — the
bundled retro-transformations bridge whatever has changed since.

Archive layout (all integers little-endian)::

    +-----------------------------------------------------------+
    | magic "PBAR" | u16 version | u32 snapshot_len | snapshot   |
    +-----------------------------------------------------------+
    | u32 len | message bytes | u32 len | message bytes | ...    |
    +-----------------------------------------------------------+
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterator, List, Optional, Union

from repro.errors import DecodeError, ReproError
from repro.morph.receiver import MorphReceiver
from repro.pbio.registry import FormatRegistry
from repro.pbio.serialization import dump_registry, load_registry

_MAGIC = b"PBAR"
_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_LENGTH = struct.Struct("<I")

PathOrFile = Union[str, "BinaryIO"]


class ArchiveError(ReproError):
    """The archive file is malformed or truncated."""


class ArchiveWriter:
    """Write an archive: registry snapshot first, then messages.

    Usable as a context manager::

        with ArchiveWriter("traffic.pbar", registry) as archive:
            archive.append(wire_bytes)
    """

    def __init__(self, target: PathOrFile, registry: FormatRegistry) -> None:
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        snapshot = dump_registry(registry, indent=0).encode("utf-8")
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, len(snapshot)))
        self._file.write(snapshot)
        self.messages_written = 0

    def append(self, wire: bytes) -> None:
        """Append one wire message."""
        self._file.write(_LENGTH.pack(len(wire)))
        self._file.write(wire)
        self.messages_written += 1

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ArchiveReader:
    """Read an archive: the revived registry plus the message stream."""

    def __init__(self, source: PathOrFile) -> None:
        if isinstance(source, str):
            self._file: BinaryIO = open(source, "rb")
            self._owns_file = True
        else:
            self._file = source
            self._owns_file = False
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ArchiveError("archive too short for its header")
        magic, version, snapshot_length = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ArchiveError(f"bad archive magic {magic!r}")
        if version != _VERSION:
            raise ArchiveError(f"unsupported archive version {version}")
        snapshot = self._file.read(snapshot_length)
        if len(snapshot) < snapshot_length:
            raise ArchiveError("archive truncated inside its registry snapshot")
        self.registry = load_registry(snapshot.decode("utf-8"))

    def __iter__(self) -> Iterator[bytes]:
        while True:
            prefix = self._file.read(_LENGTH.size)
            if not prefix:
                return
            if len(prefix) < _LENGTH.size:
                raise ArchiveError("archive truncated inside a length prefix")
            (length,) = _LENGTH.unpack(prefix)
            message = self._file.read(length)
            if len(message) < length:
                raise ArchiveError("archive truncated inside a message")
            yield message

    def messages(self) -> List[bytes]:
        """All remaining messages, materialized."""
        return list(self)

    def replay_into(
        self, receiver: MorphReceiver, stop_on_error: bool = True
    ) -> "ReplayReport":
        """Feed every archived message through *receiver*.

        The receiver's registry is first merged with the archive's
        snapshot (formats AND transformations), so morphing works even
        when the receiver was built long after the traffic was captured.

        Every message is judged on its own
        (:meth:`~MorphReceiver.process_alone`; nothing is quarantined):
        one that dead-letters counts in ``failed``, its ``last_error``
        joins ``errors`` and, with *stop_on_error*, is raised.
        """
        self.registry.replicate_to(receiver.registry)
        report = ReplayReport()
        for message in self:
            result, letter = receiver.process_alone(message)
            if letter is None:
                report.results.append(result)
                report.delivered += 1
                continue
            report.failed += 1
            report.errors.append(receiver.last_error)
            if stop_on_error:
                raise receiver.last_error
        return report

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ReplayReport:
    """Outcome of :meth:`ArchiveReader.replay_into`."""

    def __init__(self) -> None:
        self.delivered = 0
        self.failed = 0
        self.results: List[object] = []
        self.errors: List[BaseException] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplayReport(delivered={self.delivered}, failed={self.failed})"


def capture(registry: FormatRegistry, messages: "List[bytes]") -> bytes:
    """One-shot convenience: archive *messages* into a bytes blob."""
    buffer = io.BytesIO()
    writer = ArchiveWriter(buffer, registry)
    for message in messages:
        writer.append(message)
    return buffer.getvalue()


def open_archive(blob: bytes) -> ArchiveReader:
    """One-shot convenience: read an archive from a bytes blob."""
    return ArchiveReader(io.BytesIO(blob))
