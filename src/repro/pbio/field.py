"""IOField — one field of a PBIO record format.

Mirrors the paper's ``IOField`` declaration (Figure 2)::

    IOField Msg_field[] = {
        {"load", integer, sizeof(int), IOOffset(MsgP, load)},
        ...
    };

We drop the C struct offset (Python records are name-addressed) and add two
features present in real PBIO but elided in the figure: nested complex
fields and arrays.  Variable-length arrays take their element count from a
sibling integer field, exactly like PBIO var-arrays (the ECho member list
is ``member_list`` counted by ``member_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import FormatError
from repro.pbio.types import TypeKind, default_value, validate_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.pbio.format import IOFormat


@dataclass(frozen=True)
class ArraySpec:
    """Array-ness of a field.

    Exactly one of ``fixed_length`` / ``length_field`` is set:

    * ``fixed_length=n``  — a static array of *n* elements,
    * ``length_field=s``  — a variable array whose element count is carried
      by the integer field named *s* in the same record.
    """

    fixed_length: Optional[int] = None
    length_field: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.fixed_length is None) == (self.length_field is None):
            raise FormatError(
                "ArraySpec requires exactly one of fixed_length/length_field"
            )
        if self.fixed_length is not None and self.fixed_length < 0:
            raise FormatError("fixed array length must be >= 0")

    @property
    def is_variable(self) -> bool:
        return self.length_field is not None


class IOField:
    """One named, typed field of an :class:`~repro.pbio.format.IOFormat`.

    Parameters
    ----------
    name:
        Wire name of the field.  Morphing matches fields by this name
        (XML-style name-based type mapping, Section 2 of the paper).
    kind:
        A :class:`TypeKind` or its string value (``"integer"``...).
    size:
        Scalar wire size in bytes; 0/None selects the kind's default.
    subformat:
        For ``COMPLEX`` fields, the nested :class:`IOFormat`.
    array:
        Optional :class:`ArraySpec` making this field an array of its base
        type.
    default:
        Value morphing fills in when this field is missing from an incoming
        message; falls back to the kind's zero value.
    importance:
        Relative weight of this field in MaxMatch's ``diff``, weight and
        Mismatch Ratio (the paper's future-work extension: "the ability
        to weight different fields and sub-fields based on some measure
        of importance"): a finite number >= 0.  Defaults to 1.0, and at
        1.0 everywhere the scores are Algorithm 1's field counts; a field
        a deployment cannot live without gets a high value, an optional
        annotation a low one.  Importance is matching policy, not wire
        structure, so it does not participate in format fingerprints or
        equality.  ``diff(f1, f2)`` weighs by ``f1``'s importances, so a
        writer's declaration (served with its format) bounds MaxMatch's
        forward diff, and the reader's own bounds the Mismatch Ratio.
    """

    __slots__ = ("name", "kind", "size", "subformat", "array", "_default",
                 "importance")

    def __init__(
        self,
        name: str,
        kind: "TypeKind | str",
        size: int = 0,
        subformat: "Optional[IOFormat]" = None,
        array: Optional[ArraySpec] = None,
        default: Any = None,
        importance: float = 1.0,
    ) -> None:
        if not name or not isinstance(name, str):
            raise FormatError(f"field name must be a non-empty string, got {name!r}")
        if isinstance(kind, str):
            try:
                kind = TypeKind(kind)
            except ValueError:
                raise FormatError(f"unknown field kind {kind!r}") from None
        self.name = name
        self.kind = kind
        if kind is TypeKind.COMPLEX:
            if subformat is None:
                raise FormatError(f"complex field {name!r} requires a subformat")
            self.size = 0
        else:
            if subformat is not None:
                raise FormatError(f"basic field {name!r} cannot have a subformat")
            self.size = validate_size(kind, size)
        self.subformat = subformat
        self.array = array
        self._default = default
        if (
            not isinstance(importance, Real)
            or isinstance(importance, bool)
            or not 0 <= importance < math.inf
        ):
            raise FormatError(
                f"field {name!r} importance must be a finite number >= 0, "
                f"got {importance!r}"
            )
        self.importance = float(importance)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_basic(self) -> bool:
        return self.kind.is_basic

    @property
    def is_complex(self) -> bool:
        return self.kind is TypeKind.COMPLEX

    @property
    def is_array(self) -> bool:
        return self.array is not None

    def default_instance(self) -> Any:
        """A fresh default value for this field (used for morphing fill)."""
        if self.is_array:
            if self.array is not None and self.array.fixed_length is not None:
                return [self._element_default() for _ in range(self.array.fixed_length)]
            return []
        return self._element_default()

    def element_default(self) -> Any:
        """A fresh default for one *element* of this field (for arrays,
        the per-entry default rather than the whole-array default)."""
        return self._element_default()

    def min_wire_size(self) -> int:
        """Fewest payload bytes one *element* of this field can occupy.

        Strings cost at least their 4-byte length prefix; complex elements
        cost their subformat's minimum.  Decoders use this to reject
        corrupt variable-array counts before looping (a count field
        claiming more elements than the remaining bytes could possibly
        hold is malformed, not merely truncated)."""
        if self.is_complex:
            assert self.subformat is not None
            return self.subformat.min_wire_size
        if self.kind is TypeKind.STRING:
            return 4
        return self.size

    def _element_default(self) -> Any:
        if self._default is not None and not self.is_complex:
            return self._default
        if self.is_complex:
            assert self.subformat is not None
            return self.subformat.default_record()
        return default_value(self.kind)

    # ------------------------------------------------------------------
    # Structural identity (used for format fingerprints and field matching)
    # ------------------------------------------------------------------

    def signature(self) -> tuple:
        """A hashable structural description, recursing into subformats."""
        sub = self.subformat.signature() if self.subformat is not None else None
        arr = (
            (self.array.fixed_length, self.array.length_field)
            if self.array is not None
            else None
        )
        return (self.name, self.kind.value, self.size, arr, sub)

    def matches(self, other: "IOField") -> bool:
        """Name-and-kind match used by the ``diff`` algorithm.

        The paper matches fields by *name and type*; sizes may differ
        between old and new formats (e.g. a widened integer) without
        breaking the match, and array-ness must agree.
        """
        return (
            self.name == other.name
            and self.kind is other.kind
            and self.is_array == other.is_array
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arr = ""
        if self.array is not None:
            arr = (
                f"[{self.array.fixed_length}]"
                if self.array.fixed_length is not None
                else f"[{self.array.length_field}]"
            )
        if self.is_complex:
            assert self.subformat is not None
            return f"IOField({self.name!r}, {self.subformat.name}{arr})"
        return f"IOField({self.name!r}, {self.kind.value}:{self.size}{arr})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOField):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())
