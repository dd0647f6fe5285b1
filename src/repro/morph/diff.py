"""Algorithm 1 — the recursive format ``diff`` and the Mismatch Ratio.

``diff(f1, f2)`` is the total number of *basic* fields present in ``f1``
but absent from ``f2``:

* a basic field of ``f1`` counts 1 when ``f2`` has no basic field of the
  same name and type,
* a complex field of ``f1`` recurses into the same-named complex field of
  ``f2`` when one exists, and otherwise contributes its whole weight
  ``W_f``.

``(f1, f2)`` is a **perfect matching pair** iff
``diff(f1, f2) == diff(f2, f1) == 0``.

The **Mismatch Ratio** normalizes the reverse diff by the target's
weight::

    Mr(f1, f2) = diff(f2, f1) / W_{f2}

so a pair missing 4 fields out of 100 scores far better than a pair
missing 2 fields out of 2 (the paper's motivating example for the
metric).
"""

from __future__ import annotations

from functools import lru_cache

from repro.pbio.format import IOFormat


def diff(f1: IOFormat, f2: IOFormat) -> int:
    """Number of basic fields in *f1* that are not present in *f2*."""
    return _diff_cached(f1, f2)


@lru_cache(maxsize=4096)
def _diff_cached(f1: IOFormat, f2: IOFormat) -> int:
    total = 0
    for field in f1.fields:
        if field.is_basic:
            other = f2.get_field(field.name)
            if other is None or not field.matches(other):
                total += 1
        else:
            assert field.subformat is not None
            other = f2.get_field(field.name)
            if (
                other is None
                or not other.is_complex
                or other.is_array != field.is_array
            ):
                total += field.subformat.weight
            else:
                assert other.subformat is not None
                total += _diff_cached(field.subformat, other.subformat)
    return total


def mismatch_ratio(f1: IOFormat, f2: IOFormat) -> float:
    """``Mr(f1, f2) = diff(f2, f1) / W_{f2}``.

    The ratio of fields the *receiver's* format ``f2`` expects but the
    incoming ``f1`` cannot supply — i.e. how much of ``f2`` would have to
    be filled with defaults."""
    weight = f2.weight
    if weight == 0:  # cannot happen: IOFormat requires >= 1 field
        return 0.0
    return diff(f2, f1) / weight


def is_perfect_match(f1: IOFormat, f2: IOFormat) -> bool:
    """True iff ``(f1, f2)`` is a perfect matching pair."""
    return diff(f1, f2) == 0 and diff(f2, f1) == 0


# ---------------------------------------------------------------------------
# Importance-weighted variant (the paper's future-work MaxMatch refinement)
# ---------------------------------------------------------------------------


def weighted_diff(f1: IOFormat, f2: IOFormat) -> float:
    """Like :func:`diff`, but each missing basic field contributes its
    ``importance`` instead of 1, and a missing complex field contributes
    its importance times its subtree's weighted weight.

    With all importances at their default 1.0 this coincides with
    :func:`diff` exactly (tested as an invariant)."""
    return _weighted_diff_cached(f1, f2)


@lru_cache(maxsize=4096)
def _weighted_diff_cached(f1: IOFormat, f2: IOFormat) -> float:
    total = 0.0
    for field in f1.fields:
        if field.is_basic:
            other = f2.get_field(field.name)
            if other is None or not field.matches(other):
                total += field.importance
        else:
            assert field.subformat is not None
            other = f2.get_field(field.name)
            if (
                other is None
                or not other.is_complex
                or other.is_array != field.is_array
            ):
                total += field.importance * field.subformat.weighted_weight
            else:
                assert other.subformat is not None
                total += field.importance * _weighted_diff_cached(
                    field.subformat, other.subformat
                )
    return total


def weighted_mismatch_ratio(f1: IOFormat, f2: IOFormat) -> float:
    """``Mr`` over importance mass: the share of *f2*'s weighted weight
    that *f1* cannot supply."""
    weight = f2.weighted_weight
    if weight == 0.0:
        return 0.0
    return weighted_diff(f2, f1) / weight
