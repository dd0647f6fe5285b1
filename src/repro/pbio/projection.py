"""Derived projection formats — subscriber interest push-down.

The morphing layer's whole-route fusion (``repro.morph.fusion``) proves,
per subscriber, which top-level fields of a wire format its handler can
ever observe.  That backward liveness set normally only saves *decode*
work; the sender still encodes and ships every byte.  This module makes
the liveness set a first-class wire artifact: a **projection format** — a
real :class:`~repro.pbio.format.IOFormat` carrying only the live fields
of a *parent* format, plus provenance back to the parent — that the
format-server fleet derives per (source format x subscriber group) and
senders encode to directly.

Design points:

* A projection keeps the parent's **name** and field declarations, so the
  morphing machinery (MaxMatch, transform closures, fused routes) treats
  it as just another evolved revision of the message — nothing downstream
  needs a special case to *decode* one.
* The version tag is derived from the parent's version plus the
  negotiation **epoch** (``"1.0+p3"``), so every renegotiated projection
  gets a distinct content-addressed format id.  Old epochs are never
  unregistered; in-flight frames stay decodable across a narrowing.
* Count fields of included variable arrays are auto-included: an
  :class:`IOFormat` cannot declare a counted array without its counter,
  and the counter must precede the array — both guaranteed here because
  the projection preserves the parent's field order.
* Structural identity (``signature``/``format_id``) deliberately ignores
  provenance: two endpoints deriving the same projection independently
  agree on the wire id without negotiation, exactly like plain formats.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.errors import FormatError
from repro.pbio.format import IOFormat
from repro.pbio.record import Record


class ProjectionFormat(IOFormat):
    """An :class:`IOFormat` that is a field-subset *projection* of a
    parent format, carrying provenance back to it.

    Parameters beyond the base class:

    parent_format_id:
        The 64-bit wire id of the format this projection was derived
        from.  Receivers use it to route projected messages through the
        parent's (already planned) morph route.
    projection_epoch:
        Monotonic negotiation epoch.  Bumped by the format server on
        every interest-set change, so each negotiated field set yields a
        distinct version tag and therefore a distinct format id.
    """

    __slots__ = ("parent_format_id", "projection_epoch")

    def __init__(
        self,
        name: str,
        fields: Any,
        version: Optional[str],
        parent_format_id: int,
        projection_epoch: int = 0,
    ) -> None:
        super().__init__(name, fields, version=version)
        self.parent_format_id = parent_format_id
        self.projection_epoch = projection_epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ver = f" v{self.version}" if self.version else ""
        return (
            f"ProjectionFormat({self.name!r}{ver}, {len(self.fields)} fields, "
            f"parent {self.parent_format_id:#x}, epoch {self.projection_epoch})"
        )


def projection_version(parent: IOFormat, epoch: int) -> str:
    """The version tag a projection of *parent* carries at *epoch*."""
    return f"{parent.version or '0'}+p{epoch}"


def project_format(
    parent: IOFormat, live: Iterable[str], epoch: int = 0
) -> ProjectionFormat:
    """Derive the projection of *parent* onto the field names *live*.

    Keeps the parent's declared field order; auto-includes the count
    field of every included variable array.  Raises
    :class:`~repro.errors.FormatError` for names the parent does not
    declare or a selection that keeps no fields at all.
    """
    wanted = set(live)
    declared = {field.name for field in parent.fields}
    unknown = wanted - declared
    if unknown:
        raise FormatError(
            f"cannot project {parent.name!r}: unknown fields "
            f"{sorted(unknown)!r}"
        )
    include = set(wanted)
    for field in parent.fields:
        spec = field.array
        if field.name in wanted and spec is not None and spec.length_field:
            include.add(spec.length_field)
    fields = [field for field in parent.fields if field.name in include]
    if not fields:
        raise FormatError(
            f"projection of {parent.name!r} keeps no fields"
        )
    return ProjectionFormat(
        parent.name,
        fields,
        version=projection_version(parent, epoch),
        parent_format_id=parent.format_id,
        projection_epoch=epoch,
    )


def project_record(
    projection: IOFormat, rec: Mapping[str, Any]
) -> Record:
    """Restrict a full-format record to the projection's fields.

    The sender's hot path never calls this — the projection's generated
    encoder reads only its own fields straight out of the full record —
    but the differential oracle needs the explicit morph-then-project
    reference path.
    """
    out = Record()
    for field in projection.fields:
        out[field.name] = rec[field.name]
    return out


def widen_record(
    src_fmt: IOFormat, dst_fmt: IOFormat, rec: Mapping[str, Any]
) -> Record:
    """Re-inflate a projected record of *src_fmt* to the full *dst_fmt*.

    Fields present in *rec* are copied verbatim (a projection's field
    declarations are identical to the parent's, so no coercion is
    needed); missing fields get the parent's defaults.  Unlike
    :func:`repro.morph.compat.coerce_record` this never re-synchronizes
    variable-array count fields: a live count whose (dead) array was
    projected away must keep its transmitted value, or projected and
    full-format deliveries would diverge.
    """
    out = Record()
    for field in dst_fmt.fields:
        if field.name in rec:
            out[field.name] = rec[field.name]
        else:
            out[field.name] = field.default_instance()
    return out


def projection_ratio(projection: IOFormat, parent: IOFormat) -> float:
    """Negotiated-field ratio ``len(projection)/len(parent)``."""
    return len(projection.fields) / max(1, len(parent.fields))
