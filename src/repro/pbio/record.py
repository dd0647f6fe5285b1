"""Record — the in-memory representation of a PBIO message.

The C implementation hands applications raw structs; our Python analogue is
a dict subclass with attribute access, so application code (and generated
ECode) can write either ``rec["member_count"]`` or ``rec.member_count`` —
the latter keeps transformation snippets looking like the paper's Figure 5
(``old.member_count = new.member_count``).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping


_SCALAR_TYPES = (int, float, str, bool, bytes, type(None))


class Record(dict):
    """A dict with attribute-style access to its keys.

    Unknown attribute reads raise :class:`AttributeError` (so ``hasattr``
    works); attribute writes create keys.  Nested mappings passed to the
    constructor are converted to :class:`Record` recursively so that
    ``rec.member_list[0].info`` works on plain-dict input.

    .. caution:: Attribute access is a convenience layered over ``dict``:
       a field whose name collides with a dict method (``items``,
       ``keys``, ``get``, ...) resolves to the method, not the field.
       Use subscripting (``rec["items"]``) for such names — generated
       ECode and all library internals always do.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        for key, value in list(self.items()):
            # scalars are what most records hold: no conversion to ask for
            if value.__class__ not in _SCALAR_TYPES:
                dict.__setitem__(self, key, _convert(value))

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self[name] = value

    def __delattr__(self, name: str) -> None:
        try:
            del self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setitem__(self, key: str, value: Any) -> None:
        # fast path: scalar writes dominate generated transform code
        if value.__class__ in _SCALAR_TYPES:
            super().__setitem__(key, value)
        else:
            super().__setitem__(key, _convert(value))

    def copy(self) -> "Record":
        return Record(self)

    def deepcopy(self) -> "Record":
        """A structural deep copy (records and lists; scalars shared)."""
        return Record({key: _deepcopy(value) for key, value in self.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Record({inner})"


def _convert(value: Any) -> Any:
    """Convert nested plain mappings/sequences into Record/list.

    List *subclasses* (notably the ECode runtime's auto-growing
    ``AutoList``) pass through untouched — they manage their own element
    conversion and must keep their type."""
    if isinstance(value, Record):
        return value
    if isinstance(value, Mapping):
        return Record(value)
    if type(value) is list or type(value) is tuple:
        return [_convert(item) for item in value]
    return value


def _deepcopy(value: Any) -> Any:
    if isinstance(value, Record):
        return value.deepcopy()
    if isinstance(value, list):
        return [_deepcopy(item) for item in value]
    return value


def records_equal(a: Any, b: Any) -> bool:
    """Structural equality that tolerates Record-vs-dict differences and
    int/float identity (4-byte float round-trips compare approximately)."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a.keys()) != set(b.keys()):
            return False
        return all(records_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(records_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        try:
            af, bf = float(a), float(b)
        except (TypeError, ValueError):
            return False
        if af == bf:
            return True
        if math.isnan(af) and math.isnan(bf):
            # Two NaN payloads decoded from the same bytes are the same
            # value for structural purposes.
            return True
        scale = max(abs(af), abs(bf), 1.0)
        return abs(af - bf) / scale < 1e-6
    return bool(a == b)


def make_record(values: "Mapping[str, Any] | Iterable[tuple]" = (), **kwargs: Any) -> Record:
    """Convenience constructor: ``make_record(cpu=1, memory=2)``."""
    rec = Record(values)
    for key, value in kwargs.items():
        rec[key] = value
    return rec
