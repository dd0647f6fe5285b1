"""Imperfect-match reconciliation (Algorithm 2, lines 25-28).

When MaxMatch picks a pair that is *not* perfect, the receiver must still
deliver a record of the format its handler expects:

    "Put in the default values for the missing fields.
     Remove fields in f1 that are not in f2."

:func:`coerce_record` implements that reconciliation structurally —
copying same-named same-typed fields (recursing through complex fields
and arrays), dropping everything else, and filling the rest of the target
from field defaults (XML-style name-based mapping with default values,
Section 2 of the paper).  The staged receiver runs it; a fused route
(:mod:`repro.morph.fusion`) compiles the same mapping into its routine.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.types import coerce_value


def coerce_record(src_fmt: IOFormat, dst_fmt: IOFormat, rec: Mapping[str, Any]) -> Record:
    """Reshape *rec* (a record of *src_fmt*) into a record of *dst_fmt*.

    Fields of *dst_fmt* with a same-named, same-typed counterpart in
    *src_fmt* are copied (recursively); everything else gets the target
    field's default.  Fields of *src_fmt* with no counterpart are dropped.
    Count fields of variable arrays are re-synchronized with the actual
    element counts afterwards, so the result always validates.
    """
    out = Record()
    for field in dst_fmt.fields:
        src_field = src_fmt.get_field(field.name)
        if src_field is not None and field.matches(src_field) and field.name in rec:
            out[field.name] = _coerce_field(src_field, field, rec[field.name])
        else:
            out[field.name] = field.default_instance()
    # re-synchronize variable-array count fields
    for field in dst_fmt.fields:
        spec = field.array
        if spec is not None and spec.length_field is not None:
            out[spec.length_field] = len(out[field.name])
    return out


def _coerce_field(src_field: IOField, dst_field: IOField, value: Any) -> Any:
    if dst_field.is_array:
        if not isinstance(value, list):
            return dst_field.default_instance()
        elements = [_coerce_element(src_field, dst_field, item) for item in value]
        spec = dst_field.array
        assert spec is not None
        if spec.fixed_length is not None:
            if len(elements) > spec.fixed_length:
                elements = elements[: spec.fixed_length]
            while len(elements) < spec.fixed_length:
                elements.append(_element_default(dst_field))
        return elements
    return _coerce_element(src_field, dst_field, value)


def _coerce_element(src_field: IOField, dst_field: IOField, value: Any) -> Any:
    if dst_field.is_complex:
        assert dst_field.subformat is not None and src_field.subformat is not None
        if not isinstance(value, Mapping):
            return dst_field.subformat.default_record()
        return coerce_record(src_field.subformat, dst_field.subformat, value)
    try:
        return coerce_value(dst_field.kind, value)
    except Exception:
        return _element_default(dst_field)


def _element_default(field: IOField) -> Any:
    if field.is_complex:
        assert field.subformat is not None
        return field.subformat.default_record()
    from repro.pbio.types import default_value

    return default_value(field.kind)


def reconcile_field_stats(src_fmt: IOFormat, dst_fmt: IOFormat) -> "tuple[int, int]":
    """``(dropped, defaulted)`` top-level field counts for the
    ``src_fmt -> dst_fmt`` reconciliation: how many incoming fields have
    no landing spot (removed) and how many target fields get filled from
    defaults (missing).  Computed once per route and recorded per morph
    by the observability layer."""
    dropped = 0
    for field in src_fmt.fields:
        counterpart = dst_fmt.get_field(field.name)
        if counterpart is None or not counterpart.matches(field):
            dropped += 1
    defaulted = 0
    for field in dst_fmt.fields:
        counterpart = src_fmt.get_field(field.name)
        if counterpart is None or not field.matches(counterpart):
            defaulted += 1
    return dropped, defaulted

