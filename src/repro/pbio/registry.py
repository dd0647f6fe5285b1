"""Format registry — the out-of-band meta-data channel.

In real PBIO deployments, writers register their formats with a *format
server* and readers fetch descriptions by format id, so meta-data never
rides inline with the data (the key efficiency difference from XML the
paper leans on).  Our :class:`FormatRegistry` plays that role: endpoints
share a registry instance (or replicate entries through it), and wire
messages carry only the 8-byte fingerprint id.

The registry also stores the **transformations** a writer associates with
a format (paper Section 3.2: "the writer may also specify a set of
transformations, which can convert the message from one format to the
other") as :class:`TransformSpec` entries keyed by the source format id.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.errors import FormatError
from repro.pbio.format import IOFormat


@dataclass(frozen=True)
class TransformSpec:
    """A writer-supplied conversion: ECode that rewrites a record of
    ``source`` into a record of ``target``.

    The code is compiled lazily by the receiver, only if it ever needs the
    conversion (Spreitzer/Begel's code-bloat concern, handled by DCG)."""

    source: IOFormat
    target: IOFormat
    code: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise FormatError("a transform must change the format")


def _content_key(fmt: IOFormat) -> tuple:
    """Everything :meth:`FormatRegistry.replace` treats as *content*.

    The 64-bit fingerprint (and ``IOFormat.__eq__``) deliberately hash
    only the structural signature, so two declarations can share a wire
    id while disagreeing on the attributes morphing actually consumes:
    per-field defaults and importance weights
    (:meth:`IOFormat.content_key`), and a projection's provenance
    (parent id + epoch).  An authoritative refresh that changes only
    those must still displace the stale cached entry."""
    from repro.pbio.projection import ProjectionFormat

    provenance = (
        (fmt.parent_format_id, fmt.projection_epoch)
        if isinstance(fmt, ProjectionFormat)
        else None
    )
    return (type(fmt).__qualname__, fmt.content_key(), provenance)


class FormatRegistry:
    """Thread-safe store of formats and their associated transformations."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._by_id: Dict[int, IOFormat] = {}
        self._by_name: Dict[str, List[IOFormat]] = {}
        self._transforms: Dict[int, List[TransformSpec]] = {}

    # ------------------------------------------------------------------
    # Formats
    # ------------------------------------------------------------------

    def register(self, fmt: IOFormat) -> int:
        """Register *fmt*; returns its wire format id.  Re-registering the
        same declaration is idempotent; a *different* format with a
        colliding fingerprint raises :class:`FormatError`."""
        with self._lock:
            existing = self._by_id.get(fmt.format_id)
            if existing is not None:
                if existing is not fmt and existing != fmt:
                    raise FormatError(
                        f"format id collision between {existing!r} and {fmt!r}"
                    )
                return fmt.format_id
            self._by_id[fmt.format_id] = fmt
            self._by_name.setdefault(fmt.name, []).append(fmt)
            return fmt.format_id

    def replace(self, fmt: IOFormat) -> bool:
        """Force-register *fmt*, displacing whatever different content is
        cached under its id and dropping every transform that referenced
        the displaced entry (they were compiled against the old field
        set).  Returns ``True`` when an existing, different entry was
        displaced; plain registration and idempotent re-registration
        return ``False``.

        This is the authoritative-refresh path: when the format server
        ships a description that disagrees with a cached entry — e.g. a
        re-registered derived projection — the fresh meta-data wins."""
        with self._lock:
            existing = self._by_id.get(fmt.format_id)
            if existing is not None and _content_key(existing) == _content_key(fmt):
                return False
            displaced = existing is not None
            if displaced:
                self.unregister(existing)
            self._by_id[fmt.format_id] = fmt
            self._by_name.setdefault(fmt.name, []).append(fmt)
            return displaced

    def unregister(self, fmt: IOFormat) -> bool:
        """Remove *fmt* and every transform touching it (as source or
        target).  Returns ``True`` if the format was registered.  Models a
        writer retiring a revision mid-stream: receivers holding cached
        conversion routes to it must cope with the meta-data vanishing."""
        with self._lock:
            if fmt.format_id not in self._by_id:
                return False
            del self._by_id[fmt.format_id]
            revisions = self._by_name.get(fmt.name)
            if revisions is not None:
                revisions[:] = [f for f in revisions if f.format_id != fmt.format_id]
                if not revisions:
                    del self._by_name[fmt.name]
            self._transforms.pop(fmt.format_id, None)
            for source_id in list(self._transforms):
                specs = self._transforms[source_id]
                specs[:] = [
                    s for s in specs if s.target.format_id != fmt.format_id
                ]
                if not specs:
                    del self._transforms[source_id]
            return True

    def lookup_id(self, format_id: int) -> Optional[IOFormat]:
        with self._lock:
            return self._by_id.get(format_id)

    def lookup_name(self, name: str) -> List[IOFormat]:
        """All registered formats carrying *name* (every revision)."""
        with self._lock:
            return list(self._by_name.get(name, ()))

    def formats(self) -> List[IOFormat]:
        with self._lock:
            return list(self._by_id.values())

    def __contains__(self, fmt: IOFormat) -> bool:
        with self._lock:
            return fmt.format_id in self._by_id

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def register_transform(self, spec: TransformSpec) -> None:
        """Attach *spec* to its source format's meta-data.  Both endpoint
        formats are registered as a side effect."""
        with self._lock:
            self.register(spec.source)
            self.register(spec.target)
            specs = self._transforms.setdefault(spec.source.format_id, [])
            if spec not in specs:
                specs.append(spec)

    def add_transform(
        self,
        source: IOFormat,
        target: IOFormat,
        code: str,
        description: str = "",
    ) -> TransformSpec:
        """Convenience wrapper building and registering a TransformSpec."""
        spec = TransformSpec(source=source, target=target, code=code,
                             description=description)
        self.register_transform(spec)
        return spec

    def transforms_from(self, fmt: IOFormat) -> List[TransformSpec]:
        """Transformations whose source is *fmt* (one retro-xform hop)."""
        with self._lock:
            return list(self._transforms.get(fmt.format_id, ()))

    def transform_closure(self, fmt: IOFormat) -> List[List[TransformSpec]]:
        """All acyclic transformation *chains* starting at *fmt*.

        Figure 1 of the paper chains retro-transformations across schema
        revisions (Rev 2.0 -> Rev 1.0 -> Rev 0.0); the closure enumerates
        every reachable target with the spec sequence that reaches it,
        shortest chains first."""
        with self._lock:
            chains: List[List[TransformSpec]] = []
            frontier: List[List[TransformSpec]] = [
                [spec] for spec in self._transforms.get(fmt.format_id, ())
            ]
            visited = {fmt.format_id}
            while frontier:
                next_frontier: List[List[TransformSpec]] = []
                for chain in frontier:
                    tail = chain[-1].target
                    if tail.format_id in visited:
                        continue
                    visited.add(tail.format_id)
                    chains.append(chain)
                    for spec in self._transforms.get(tail.format_id, ()):
                        next_frontier.append(chain + [spec])
                frontier = next_frontier
            return chains

    # ------------------------------------------------------------------
    # Replication (simulating the out-of-band format server protocol)
    # ------------------------------------------------------------------

    def replicate_to(self, other: "FormatRegistry") -> None:
        """Push every format and transform into *other* — the out-of-band
        meta-data exchange between a writer's and a reader's context."""
        with self._lock:
            formats = list(self._by_id.values())
            transforms = [s for specs in self._transforms.values() for s in specs]
        for fmt in formats:
            other.register(fmt)
        for spec in transforms:
            other.register_transform(spec)
