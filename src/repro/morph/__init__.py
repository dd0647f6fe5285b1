"""Message Morphing — the paper's primary contribution.

Combines PBIO meta-data with ECode dynamic code generation so receivers
can accept message formats they were never written to understand:

* :func:`diff` / :func:`mismatch_ratio` — Algorithm 1 and the Mr metric,
* :func:`max_match` — the MaxMatch format-pair selection,
* :class:`Transformation` / :class:`TransformChain` — compiled
  writer-supplied conversions (retro-transformation chains, Figure 1),
* :func:`coerce_record` — imperfect match reconciliation (default fill
  + field drop),
* :class:`MorphReceiver` — the Algorithm 2 receiver-side pipeline with
  per-format route caching.
"""

from repro.morph.compat import coerce_record
from repro.morph.diff import (
    diff,
    is_perfect_match,
    mismatch_ratio,
    weighted_diff,
    weighted_mismatch_ratio,
)
from repro.morph.maxmatch import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_MISMATCH_THRESHOLD,
    MatchResult,
    max_match,
    perfect_matches,
    score_pair,
)
from repro.morph.dynamic import ECodeHandler
from repro.morph.receiver import DeadLetter, MorphReceiver, ReceiverStats
from repro.morph.transform import (
    TransformChain,
    Transformation,
    build_chain,
    growable_record,
)

__all__ = [
    "DEFAULT_DIFF_THRESHOLD",
    "DEFAULT_MISMATCH_THRESHOLD",
    "DeadLetter",
    "ECodeHandler",
    "MatchResult",
    "MorphReceiver",
    "ReceiverStats",
    "TransformChain",
    "Transformation",
    "build_chain",
    "coerce_record",
    "diff",
    "growable_record",
    "is_perfect_match",
    "max_match",
    "mismatch_ratio",
    "perfect_matches",
    "score_pair",
    "weighted_diff",
    "weighted_mismatch_ratio",
]
