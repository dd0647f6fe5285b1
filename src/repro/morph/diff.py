"""Algorithm 1 — the recursive format ``diff`` and the Mismatch Ratio.

``diff(f1, f2)`` is the *importance mass* of the basic fields present in
``f1`` but absent from ``f2``:

* a basic field of ``f1`` contributes its ``importance`` when ``f2`` has
  no basic field of the same name and type,
* a complex field of ``f1`` recurses into the same-named complex field of
  ``f2`` when one exists, and otherwise contributes its whole weight
  ``W_f``; either way the complex field's own ``importance`` scales what
  its subtree contributes.

Every importance defaults to 1.0, and then ``diff`` is the paper's count
of missing basic fields exactly.  Weighting fields "based on some
measure of importance" is the paper's future-work refinement: one
critical field can outvote ten cosmetic ones.

``(f1, f2)`` is a **perfect matching pair** iff
``diff(f1, f2) == diff(f2, f1) == 0``.

The **Mismatch Ratio** normalizes the reverse diff by the target's
weight::

    Mr(f1, f2) = diff(f2, f1) / W_{f2}

so a pair missing 4 fields out of 100 scores far better than a pair
missing 2 fields out of 2 (the paper's motivating example for the
metric).

Nothing is memoised across calls: importance is not part of a format's
identity (``IOFormat.__eq__`` / ``__hash__``), so a memo keyed on the
formats would hand one declaration another's score, and keying on
``IOFormat.content_key()`` costs more than the walk it would save.
Planning runs once per format, and ``W_f`` is kept on the format.
"""

from __future__ import annotations

from repro.pbio.format import IOFormat


def diff(f1: IOFormat, f2: IOFormat) -> float:
    """Importance mass of the basic fields in *f1* not present in *f2*."""
    total = 0.0
    for field in f1.fields:
        other = f2.get_field(field.name)
        if field.is_basic:
            if other is None or not field.matches(other):
                total += field.importance
        else:
            assert field.subformat is not None
            if (
                other is None
                or not other.is_complex
                or other.is_array != field.is_array
            ):
                total += field.importance * field.subformat.weight
            else:
                assert other.subformat is not None
                total += field.importance * diff(field.subformat, other.subformat)
    return total


def mismatch_ratio(f1: IOFormat, f2: IOFormat) -> float:
    """``Mr(f1, f2) = diff(f2, f1) / W_{f2}``.

    The share of the *receiver's* format ``f2`` that the incoming ``f1``
    cannot supply — i.e. how much of ``f2`` would have to be filled with
    defaults."""
    return mismatch_ratio_of(diff(f2, f1), f2)


def mismatch_ratio_of(reverse: float, f2: IOFormat) -> float:
    """``Mr`` from an already computed reverse ``diff(f2, f1)``, for a
    scorer that needs both and walks the pair once."""
    weight = f2.weight
    # a format whose every field has importance 0 misses nothing that counts
    return reverse / weight if weight else 0.0


def is_perfect_match(f1: IOFormat, f2: IOFormat) -> bool:
    """True iff ``(f1, f2)`` is a perfect matching pair."""
    return diff(f1, f2) == 0 and diff(f2, f1) == 0
