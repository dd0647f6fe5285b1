"""Meta-data serialization.

Message morphing "can address components separated in space and/or
time" (Section 1): the out-of-band meta-data — formats and their
transformations — must be able to outlive a process, travel over a wire,
or sit in a file next to archived messages.  This module round-trips
formats, transform specs, and whole registries through plain
JSON-compatible dictionaries.

The encoding is self-describing and versioned, so a registry snapshot
written today can be re-hydrated by a later release.

Rebuilding is interned: :func:`format_from_dict` and
:func:`transform_from_dict` hand every caller in the process the object
already built from the same content, so every resolver, format server
and receiver holds one :class:`IOFormat` / :class:`TransformSpec` per
distinct declaration, however often it is fetched.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, List

from repro.errors import FormatError
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.projection import ProjectionFormat
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.types import TypeKind

SCHEMA_VERSION = 1

#: The process-wide intern table of rebuilt meta-data, keyed by kind and
#: the description's whole canonical JSON text (a wire id would leave out
#: the defaults and importances a declaration also carries).  FIFO at
#: :data:`DECLARATION_CACHE_MAX`; what outlives eviction is rebuilt, as a
#: distinct but equal object, on its next fetch.
_declarations: "dict[tuple, Any]" = {}
DECLARATION_CACHE_MAX = 1024
_declarations_lock = threading.Lock()


def _interned(kind: str, data: Any, build: Callable[[Any], Any]) -> Any:
    """``build(data)``, or the object already built from the same
    content.  A description that does not build (``FormatError``) is
    never remembered; one JSON cannot render is built unshared."""
    try:
        key = (kind, json.dumps(data, sort_keys=True))
    except (TypeError, ValueError):
        return build(data)
    with _declarations_lock:
        built = _declarations.get(key)
    if built is not None:
        return built
    built = build(data)
    with _declarations_lock:
        # a thread that built the same content first wins: one object
        first = _declarations.get(key)
        if first is not None:
            return first
        while len(_declarations) >= DECLARATION_CACHE_MAX:
            _declarations.pop(next(iter(_declarations)))
        _declarations[key] = built
    return built


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------


def format_to_dict(fmt: IOFormat) -> Dict[str, Any]:
    """A JSON-compatible description of *fmt* (recursing into nested
    complex subformats).  Projection formats carry their provenance in an
    optional ``projection`` key, so a derived format survives the trip
    through the format server without losing its parent link."""
    out: Dict[str, Any] = {
        "name": fmt.name,
        "version": fmt.version,
        "fields": [_field_to_dict(field) for field in fmt.fields],
    }
    if isinstance(fmt, ProjectionFormat):
        out["projection"] = {
            "parent_format_id": fmt.parent_format_id,
            "epoch": fmt.projection_epoch,
        }
    return out


def _field_to_dict(field: IOField) -> Dict[str, Any]:
    out: Dict[str, Any] = {"name": field.name, "kind": field.kind.value}
    if field.is_basic and field.size:
        out["size"] = field.size
    if field.subformat is not None:
        out["subformat"] = format_to_dict(field.subformat)
    if field.array is not None:
        if field.array.fixed_length is not None:
            out["array"] = {"fixed_length": field.array.fixed_length}
        else:
            out["array"] = {"length_field": field.array.length_field}
    if field.importance != 1.0:
        out["importance"] = field.importance
    if field._default is not None:
        out["default"] = field._default
    return out


def format_from_dict(data: Dict[str, Any]) -> IOFormat:
    """Rebuild an :class:`IOFormat` from :func:`format_to_dict` output —
    the process's one instance for that content (see :func:`_interned`).

    Raises :class:`FormatError` on malformed input."""
    return _interned("format", data, _build_format)


def _build_format(data: Dict[str, Any]) -> IOFormat:
    try:
        name = data["name"]
        field_dicts = data["fields"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed format description: {exc!r}") from None
    fields = [_field_from_dict(fd) for fd in field_dicts]
    provenance = data.get("projection")
    if provenance is not None:
        try:
            parent_id = int(provenance["parent_format_id"])
            epoch = int(provenance.get("epoch", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"malformed projection provenance: {exc!r}"
            ) from None
        return ProjectionFormat(
            name,
            fields,
            version=data.get("version"),
            parent_format_id=parent_id,
            projection_epoch=epoch,
        )
    return IOFormat(name, fields, version=data.get("version"))


def _field_from_dict(data: Dict[str, Any]) -> IOField:
    try:
        name = data["name"]
        kind = TypeKind(data["kind"])
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"malformed field description: {exc!r}") from None
    subformat = None
    if "subformat" in data:
        subformat = _build_format(data["subformat"])
    array = None
    if "array" in data:
        spec = data["array"]
        if "fixed_length" in spec:
            array = ArraySpec(fixed_length=spec["fixed_length"])
        else:
            array = ArraySpec(length_field=spec.get("length_field"))
    return IOField(
        name,
        kind,
        size=data.get("size", 0),
        subformat=subformat,
        array=array,
        default=data.get("default"),
        importance=data.get("importance", 1.0),
    )


# ---------------------------------------------------------------------------
# Transform specs
# ---------------------------------------------------------------------------


def transform_to_dict(spec: TransformSpec) -> Dict[str, Any]:
    return {
        "source": format_to_dict(spec.source),
        "target": format_to_dict(spec.target),
        "code": spec.code,
        "description": spec.description,
    }


def transform_from_dict(data: Dict[str, Any]) -> TransformSpec:
    """Rebuild a :class:`TransformSpec` from :func:`transform_to_dict`
    output — the process's one instance for that content, its formats
    the ones :func:`format_from_dict` gives for theirs."""
    return _interned("transform", data, _build_transform)


def _build_transform(data: Dict[str, Any]) -> TransformSpec:
    try:
        return TransformSpec(
            source=format_from_dict(data["source"]),
            target=format_from_dict(data["target"]),
            code=data["code"],
            description=data.get("description", ""),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed transform description: {exc!r}") from None


# ---------------------------------------------------------------------------
# Whole registries
# ---------------------------------------------------------------------------


def registry_to_dict(registry: FormatRegistry) -> Dict[str, Any]:
    """Snapshot every format and transformation in *registry*."""
    formats = registry.formats()
    transforms: List[TransformSpec] = []
    for fmt in formats:
        transforms.extend(registry.transforms_from(fmt))
    return {
        "schema_version": SCHEMA_VERSION,
        "formats": [format_to_dict(fmt) for fmt in formats],
        "transforms": [transform_to_dict(spec) for spec in transforms],
    }


def registry_from_dict(data: Dict[str, Any]) -> FormatRegistry:
    """Re-hydrate a :func:`registry_to_dict` snapshot."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported meta-data schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    registry = FormatRegistry()
    for fmt_dict in data.get("formats", ()):
        registry.register(format_from_dict(fmt_dict))
    for spec_dict in data.get("transforms", ()):
        registry.register_transform(transform_from_dict(spec_dict))
    return registry


def dump_registry(registry: FormatRegistry, indent: int = 2) -> str:
    """Serialize *registry* to a JSON string."""
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


def load_registry(text: str) -> FormatRegistry:
    """Parse a :func:`dump_registry` string back into a registry."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"registry snapshot is not valid JSON: {exc}") from None
    return registry_from_dict(data)
