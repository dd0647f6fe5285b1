"""MaxMatch — the best-matching format pair between two format sets.

``MaxMatch(F1, F2)`` returns the pair ``(f1, f2)`` with ``f1 ∈ F1``,
``f2 ∈ F2`` such that:

i.   ``diff(f1, f2) <= DIFF_THRESHOLD``,
ii.  ``Mr(f1, f2) <= MISMATCH_THRESHOLD``,
iii. among the surviving pairs, least ``Mr``, then least ``diff(f1, f2)``;
     remaining ties break deterministically on enumeration order (the
     paper breaks them arbitrarily).

Setting ``DIFF_THRESHOLD`` to zero admits only pairs whose incoming
format is fully understood (everything in ``f1`` lands somewhere in
``f2``); setting both thresholds to zero admits only perfect matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.morph.diff import diff, mismatch_ratio_of
from repro.pbio.format import IOFormat

#: Default thresholds.  The paper leaves the constants system-specific;
#: these defaults admit the evolution scenarios in its examples (ECho
#: v2.0 -> v1.0 has Mr = 6/10) while rejecting grossly incompatible pairs.
DEFAULT_DIFF_THRESHOLD = 16
DEFAULT_MISMATCH_THRESHOLD = 0.75


@dataclass(frozen=True)
class MatchResult:
    """One scored candidate pair."""

    f1: IOFormat
    f2: IOFormat
    diff_forward: float  # diff(f1, f2)
    diff_reverse: float  # diff(f2, f1)
    mismatch: float  # Mr(f1, f2)

    @property
    def is_perfect(self) -> bool:
        return self.diff_forward == 0 and self.diff_reverse == 0

    def sort_key(self) -> tuple:
        return (self.mismatch, self.diff_forward)


def score_pair(f1: IOFormat, f2: IOFormat) -> MatchResult:
    """Compute the full score of one candidate pair."""
    reverse = diff(f2, f1)
    return MatchResult(
        f1=f1,
        f2=f2,
        diff_forward=diff(f1, f2),
        diff_reverse=reverse,
        mismatch=mismatch_ratio_of(reverse, f2),
    )


def max_match(
    candidates: "Iterable[IOFormat] | IOFormat",
    targets: Sequence[IOFormat],
    diff_threshold: float = DEFAULT_DIFF_THRESHOLD,
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD,
) -> Optional[MatchResult]:
    """``MaxMatch(F1, F2)`` over *candidates* x *targets*.

    Accepts a single format for *candidates* as a convenience (Algorithm 2
    line 11 calls ``MaxMatch(fm, Fr)``).  Returns ``None`` when no pair
    satisfies both thresholds.  ``diff`` and ``Mr`` weigh each field by
    its ``importance`` (:func:`repro.morph.diff.diff`), so the diff
    threshold bounds importance mass and the mismatch threshold its
    share; at the default importance of 1.0 they are Algorithm 1's field
    counts.
    """
    if isinstance(candidates, IOFormat):
        candidates = (candidates,)
    best: Optional[MatchResult] = None
    for f1 in candidates:
        for f2 in targets:
            result = score_pair(f1, f2)
            if result.diff_forward > diff_threshold:
                continue
            if result.mismatch > mismatch_threshold:
                continue
            if best is None or result.sort_key() < best.sort_key():
                best = result
            if best is not None and best.is_perfect:
                # nothing can beat (Mr=0, diff=0); keep the first perfect
                # pair in enumeration order (deterministic tie-break)
                return best
    return best
