"""IOFormat — a named PBIO record format (the message meta-data).

A format is the out-of-band schema a writer registers before sending
records: an ordered list of :class:`~repro.pbio.field.IOField`.  The
*base format* (paper terminology) is the top-level format describing an
entire message record; nested complex fields carry their own
:class:`IOFormat` as ``subformat``.

The module also implements the paper's **weight** metric ``W_f`` — the
total number of basic fields in a format, counting basic fields inside
complex fields recursively, each weighed by its ``importance`` — which
normalizes the Mismatch Ratio.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FormatError
from repro.pbio.field import IOField
from repro.pbio.record import Record
from repro.pbio.types import TypeKind, coerce_value


class IOFormat:
    """An ordered collection of fields with a wire name and a version tag.

    Parameters
    ----------
    name:
        Format name.  Morphing only considers formats *of the same name*
        as candidates for matching (Algorithm 2 line 4), so evolved
        revisions of one message keep one name.
    fields:
        Ordered :class:`IOField` sequence; names must be unique.
    version:
        Optional human-readable revision tag ("1.0", "2.0", ...).  Not part
        of the structural fingerprint semantics but carried in it so two
        structurally identical revisions get distinct wire ids.
    """

    __slots__ = ("name", "fields", "version", "_by_name", "_weight",
                 "_format_id", "_min_wire_size")

    def __init__(
        self,
        name: str,
        fields: Sequence[IOField],
        version: Optional[str] = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise FormatError(f"format name must be a non-empty string, got {name!r}")
        fields = list(fields)
        if not fields:
            raise FormatError(f"format {name!r} must declare at least one field")
        by_name: Dict[str, IOField] = {}
        #: declared positions by name: comparing fields themselves would
        #: walk their signatures
        position: Dict[str, int] = {}
        for index, field in enumerate(fields):
            if field.name in by_name:
                raise FormatError(f"duplicate field {field.name!r} in format {name!r}")
            by_name[field.name] = field
            position[field.name] = index
        for field in fields:
            spec = field.array
            if spec is not None and spec.length_field is not None:
                counter = by_name.get(spec.length_field)
                if counter is None:
                    raise FormatError(
                        f"field {field.name!r} counts on missing field "
                        f"{spec.length_field!r} in format {name!r}"
                    )
                if counter.kind not in (TypeKind.INTEGER, TypeKind.UNSIGNED):
                    raise FormatError(
                        f"count field {spec.length_field!r} must be an integer kind"
                    )
                if position[counter.name] >= position[field.name]:
                    raise FormatError(
                        f"count field {spec.length_field!r} must precede array "
                        f"{field.name!r} in format {name!r}"
                    )
        weight = 0.0
        for field in fields:
            if field.is_basic:
                weight += field.importance
            else:
                assert field.subformat is not None
                weight += field.importance * field.subformat.weight
        if not math.isfinite(weight):
            # an overflowed mass would score every pair NaN or 0
            raise FormatError(
                f"format {name!r} importance mass is not finite: {weight!r}"
            )
        self.name = name
        self.fields = tuple(fields)
        self.version = version
        self._by_name = by_name
        self._weight = weight
        self._format_id: Optional[int] = None
        self._min_wire_size: Optional[int] = None

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[IOField]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, field_name: str) -> bool:
        return field_name in self._by_name

    def field(self, name: str) -> IOField:
        """Return the field named *name*, raising :class:`FormatError` if
        the format has no such field."""
        try:
            return self._by_name[name]
        except KeyError:
            raise FormatError(f"format {self.name!r} has no field {name!r}") from None

    def get_field(self, name: str) -> Optional[IOField]:
        return self._by_name.get(name)

    def field_names(self) -> List[str]:
        return [field.name for field in self.fields]

    def basic_fields(self) -> Iterator[IOField]:
        """Top-level basic fields, in declared order."""
        return (field for field in self.fields if field.is_basic)

    def complex_fields(self) -> Iterator[IOField]:
        return (field for field in self.fields if field.is_complex)

    def basic_field_paths(self) -> Iterator[Tuple[str, ...]]:
        """Dotted paths of every basic field, recursing through complex
        fields — the units the ``diff`` algorithm counts."""
        for field in self.fields:
            if field.is_basic:
                yield (field.name,)
            else:
                assert field.subformat is not None
                for sub_path in field.subformat.basic_field_paths():
                    yield (field.name,) + sub_path

    # ------------------------------------------------------------------
    # Weight (paper Section 3.2)
    # ------------------------------------------------------------------

    @property
    def weight(self) -> float:
        """``W_f``: the importance mass of the basic fields, recursing
        into complex fields — a basic field counts its ``importance``, a
        complex field's importance scales its whole subtree.  At the
        default importance of 1.0 this is the paper's count of basic
        fields.  Array-ness does not multiply weight — weight is a schema
        property, not a data property."""
        return self._weight

    @property
    def min_wire_size(self) -> int:
        """Fewest payload bytes any record of this format can occupy on
        the wire (variable arrays may be empty, so they contribute only
        through their count fields).  Decoders use it to bound corrupt
        element counts against the remaining buffer."""
        if self._min_wire_size is None:
            total = 0
            for field in self.fields:
                per = field.min_wire_size()
                if field.is_array:
                    spec = field.array
                    assert spec is not None
                    total += per * (spec.fixed_length or 0)
                else:
                    total += per
            self._min_wire_size = total
        return self._min_wire_size

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------

    def signature(self) -> tuple:
        """Hashable structural description (includes version tag)."""
        return (
            self.name,
            self.version,
            tuple(field.signature() for field in self.fields),
        )

    @property
    def format_id(self) -> int:
        """A stable 64-bit fingerprint of the format, used as the wire
        format id.  Identical declarations on writer and reader sides
        produce identical ids without negotiation — the out-of-band
        format-server handshake of PBIO."""
        if self._format_id is None:
            digest = hashlib.sha256(repr(self.signature()).encode("utf-8")).digest()
            self._format_id = int.from_bytes(digest[:8], "big")
        return self._format_id

    def content_key(self) -> tuple:
        """The signature plus what it deliberately leaves out and
        morphing consumes: every field's declared default and importance,
        at every depth.  Two declarations can share a wire id and differ
        here, so what is built from a format's *content* — a default
        record, a compiled transform — is remembered under this key, not
        under ``format_id``.  Defaults enter by ``repr`` (``1``, ``1.0``
        and ``True`` fill differently; any default is hashable so)."""
        return (self.signature(), self._declared_extras())

    def _declared_extras(self) -> tuple:
        return tuple(
            (
                repr(field._default),
                field.importance,
                field.subformat._declared_extras()
                if field.subformat is not None else None,
            )
            for field in self.fields
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IOFormat):
            return NotImplemented
        if self.format_id != other.format_id:
            return False
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        # formats are dict keys and set members on every planning path:
        # the memoised fingerprint of the signature, not the signature
        # rebuilt (≈ 2 KB a format to keep)
        return self.format_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ver = f" v{self.version}" if self.version else ""
        return f"IOFormat({self.name!r}{ver}, {len(self.fields)} fields)"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def default_record(self) -> Record:
        """A record of this format with every field at its default."""
        rec = Record()
        for field in self.fields:
            rec[field.name] = field.default_instance()
        return rec

    def make_record(self, **values: Any) -> Record:
        """Build a record with defaults overridden by *values*; unknown
        names raise :class:`FormatError`."""
        rec = self.default_record()
        for key, value in values.items():
            if key not in self._by_name:
                raise FormatError(f"format {self.name!r} has no field {key!r}")
            rec[key] = value
        return rec

    def validate_record(self, rec: Mapping[str, Any], _path: str = "") -> None:
        """Check a record structurally conforms to this format.

        Verifies field presence, scalar coercibility, array shapes and the
        consistency of variable arrays with their count fields.  Raises
        :class:`FormatError` on the first violation.
        """
        prefix = f"{_path}." if _path else ""
        for field in self.fields:
            if field.name not in rec:
                raise FormatError(f"record missing field {prefix}{field.name}")
            value = rec[field.name]
            if field.is_array:
                if not isinstance(value, list):
                    raise FormatError(
                        f"field {prefix}{field.name} must be a list, got "
                        f"{type(value).__name__}"
                    )
                spec = field.array
                assert spec is not None
                if spec.fixed_length is not None and len(value) != spec.fixed_length:
                    raise FormatError(
                        f"field {prefix}{field.name} must have exactly "
                        f"{spec.fixed_length} elements, got {len(value)}"
                    )
                if spec.length_field is not None:
                    declared = rec.get(spec.length_field)
                    if declared != len(value):
                        raise FormatError(
                            f"field {prefix}{field.name} has {len(value)} elements "
                            f"but {spec.length_field} == {declared!r}"
                        )
                elements: Iterable[Any] = value
            else:
                elements = (value,)
            for element in elements:
                if field.is_complex:
                    assert field.subformat is not None
                    if not isinstance(element, Mapping):
                        raise FormatError(
                            f"field {prefix}{field.name} must hold records, got "
                            f"{type(element).__name__}"
                        )
                    field.subformat.validate_record(element, f"{prefix}{field.name}")
                else:
                    try:
                        coerce_value(field.kind, element)
                    except (TypeError, ValueError, FormatError) as exc:
                        raise FormatError(
                            f"field {prefix}{field.name} has bad value "
                            f"{element!r}: {exc}"
                        ) from None

    def describe(self, indent: int = 0) -> str:
        """Human-readable multi-line description of the format tree."""
        pad = "  " * indent
        lines = [f"{pad}format {self.name}" + (f" v{self.version}" if self.version else "")]
        for field in self.fields:
            arr = ""
            if field.array is not None:
                arr = (
                    f"[{field.array.fixed_length}]"
                    if field.array.fixed_length is not None
                    else f"[count={field.array.length_field}]"
                )
            if field.is_complex:
                assert field.subformat is not None
                lines.append(f"{pad}  {field.name}{arr}:")
                lines.append(field.subformat.describe(indent + 2))
            else:
                lines.append(f"{pad}  {field.name}{arr}: {field.kind.value}:{field.size}")
        return "\n".join(lines)
