"""SeqLedger — the one exactly-once admission ledger.

Every receiver that must act on each sequence number of a stream
exactly once — the fabric worker per ``(channel, publisher)``, the
fabric client per delivered stream, the telemetry collector per
``(process, boot)`` — keeps one of these.  Pure Python, no imports
beyond :mod:`repro.errors`, so any layer may hold one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.errors import FabricError


class SeqLedger:
    """Exactly-once admission for one stream of sequence numbers.

    ``high`` is the highest *contiguous* sequence admitted (all of
    ``1..high`` seen); ``sparse`` holds admitted numbers beyond the gap.
    The pair serializes to a couple of integers for most workloads,
    which is what keeps handoff state small.
    """

    __slots__ = ("high", "sparse")

    def __init__(self, high: int = 0, sparse: Optional[Set[int]] = None) -> None:
        self.high = high
        self.sparse: Set[int] = set(sparse or ())

    def admit(self, seq: int) -> bool:
        """True exactly once per sequence number."""
        if seq <= self.high or seq in self.sparse:
            return False
        if seq == self.high + 1:
            self.high = seq
            if self.sparse:
                self._close_gap()
        else:
            self.sparse.add(seq)
        return True

    def merge(self, other: "SeqLedger") -> None:
        """Admit everything *other* admitted.  Costs O(|sparse|): the
        high-water marks are compared, never counted up to — they come
        off the network and the disk."""
        if other.high > self.high:
            self.high = other.high
        self.sparse = {
            seq for seq in self.sparse | other.sparse if seq > self.high
        }
        self._close_gap()

    def _close_gap(self) -> None:
        while self.high + 1 in self.sparse:
            self.high += 1
            self.sparse.discard(self.high)

    @property
    def admitted(self) -> int:
        return self.high + len(self.sparse)

    def to_state(self) -> Dict[str, Any]:
        return {"high": self.high, "sparse": sorted(self.sparse)}

    @classmethod
    def from_state(cls, state: Any) -> "SeqLedger":
        """Rebuild a ledger from :meth:`to_state` output.

        Handoff snapshots and journal recoveries both funnel through
        here, so the input is network- or disk-derived: validate it and
        raise a clean :class:`FabricError` instead of letting a
        ``KeyError``/``TypeError`` escape or silently admitting bogus
        sequence numbers."""
        if not isinstance(state, dict):
            raise FabricError(
                f"ledger state must be a mapping, got {type(state).__name__}"
            )
        high = state.get("high", 0)
        if isinstance(high, bool) or not isinstance(high, int) or high < 0:
            raise FabricError(f"ledger state has invalid high mark {high!r}")
        sparse = state.get("sparse", ())
        if not isinstance(sparse, (list, tuple, set, frozenset)):
            raise FabricError(
                "ledger state sparse set must be a sequence, got "
                f"{type(sparse).__name__}"
            )
        cleaned: Set[int] = set()
        for seq in sparse:
            if isinstance(seq, bool) or not isinstance(seq, int) or seq <= 0:
                raise FabricError(
                    f"ledger state has invalid sparse entry {seq!r}"
                )
            if seq <= high:
                raise FabricError(
                    f"ledger state sparse entry {seq} is below high mark "
                    f"{high}"
                )
            cleaned.add(seq)
        return cls(high, cleaned)
