"""Dynamic code generation of specialized PBIO encode/decode routines.

This is the Python analogue of PBIO's dynamic binary code generation
(Section 1 and [12] of the paper): for a format, the library *generates
source code* for a conversion routine specialized to that exact format,
compiles it, and caches the resulting callable.  All subsequent messages
of the format run the specialized routine.  (``PBIOContext`` asks for one
on a format's second use: the first runs the interpretive coder.)

Key specializations performed (mirroring what PBIO's DCG buys over a
field-walking interpreter):

* consecutive fixed-width scalar fields are fused into a single
  ``struct`` pack/unpack call with a precompiled ``Struct`` object,
* the format tree is fully inlined — no per-field dispatch, no recursion,
* records are built through a trusted constructor that skips conversion.

The generated source for any format can be inspected via
:func:`decoder_source` / :func:`encoder_source`, which is also how the
test suite audits the generated code.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DecodeError, EncodeError
from repro.obs.tracectx import TraceContext, encode_block
from repro.pbio.decode import ZERO_SIZE_ELEMENT_CAP
from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    HEADER_SIZE,
    ORDER_PREFIX,
    pack_header,
    unpack_header,
)
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, trusted_record
from repro.pbio.types import STRUCT_CODES, TypeKind

DecoderFn = Callable[[bytes], Record]
EncoderFn = Callable[[Any], bytes]


class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self._counter = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _scalar_runs(fields: Tuple[IOField, ...]) -> List[List[IOField]]:
    """Group the top-level fields into runs of fuse-able scalars and
    singleton non-fusable fields, preserving order.

    A field is fuse-able when it is a non-array basic scalar with a fixed
    struct code (everything except strings and chars; chars decode to str
    so they stay singletons)."""
    runs: List[List[IOField]] = []
    current: List[IOField] = []
    for field in fields:
        fusable = (
            field.is_basic
            and not field.is_array
            and field.kind not in (TypeKind.STRING, TypeKind.CHAR)
        )
        if fusable:
            current.append(field)
        else:
            if current:
                runs.append(current)
                current = []
            runs.append([field])
    if current:
        runs.append(current)
    return runs


def _struct_for_run(
    run: List[IOField], structs: "_StructTable"
) -> Tuple[int, int]:
    """Register a precompiled Struct for a scalar run; returns its index in
    *structs* and its packed size."""
    codes = "".join(STRUCT_CODES[(f.kind, f.size)] for f in run)
    packer = struct.Struct(structs.order + codes)
    structs.append(packer)
    return len(structs) - 1, packer.size


class _StructTable(list):
    """The per-routine table of precompiled Structs, tagged with the
    byte-order prefix its entries were built with."""

    def __init__(self, order: str) -> None:
        super().__init__()
        self.order = order


# ---------------------------------------------------------------------------
# Decoder generation
# ---------------------------------------------------------------------------


def _gen_decode_format(
    em: _Emitter,
    fmt: IOFormat,
    structs: "_StructTable",
    data: str,
    end: str,
    out_var: str,
    live: Optional[Set[str]] = None,
) -> None:
    """Emit code decoding one record of *fmt* into dict var *out_var*.

    Uses the running local ``off`` as the cursor.  Field values land in
    fresh locals, then a single dict literal builds the record.

    When *live* is given (whole-route fusion), only those top-level
    fields are materialized in the record.  Dead fields still advance the
    cursor and keep every validation the full decode performs — count
    guards, bounds checks, UTF-8 decoding of strings — so hostile wires
    produce byte-for-byte the same accept/reject outcome; fixed-width
    dead fields are *skipped arithmetically* instead of unpacked, which
    is where the win comes from.  Variable-array count fields are always
    unpacked (the skip arithmetic needs them) but stay out of the record
    unless live themselves.
    """
    value_vars: Dict[str, str] = {}
    count_fields = {
        f.array.length_field
        for f in fmt.fields
        if f.array is not None and f.array.length_field
    }

    def _needed(f: IOField) -> bool:
        return live is None or f.name in live or f.name in count_fields

    for run in _scalar_runs(fmt.fields):
        field = run[0]
        if len(run) > 1 or (
            field.is_basic
            and not field.is_array
            and field.kind not in (TypeKind.STRING, TypeKind.CHAR)
        ):
            if live is not None and not any(_needed(f) for f in run):
                codes = "".join(STRUCT_CODES[(f.kind, f.size)] for f in run)
                size = struct.calcsize(structs.order + codes)
                _gen_skip_bytes(em, str(size), data, end,
                                f"truncated message in format {fmt.name}")
                continue
            idx, size = _struct_for_run(run, structs)
            targets = [em.fresh("v") for _ in run]
            for f, var in zip(run, targets):
                value_vars[f.name] = var
            lhs = ", ".join(targets)
            if len(targets) == 1:
                lhs += ","
            em.emit(f"{lhs} = _S[{idx}].unpack_from({data}, off)")
            em.emit(f"off += {size}")
            continue
        dead = live is not None and not _needed(field)
        var = em.fresh("v")
        if not dead:
            value_vars[field.name] = var
        if field.is_array:
            if dead and _arith_skippable(field):
                _gen_skip_array(em, field, structs, data, end, value_vars)
            else:
                _gen_decode_array(em, field, structs, data, end, var, value_vars)
        elif dead and field.kind is TypeKind.CHAR:
            _gen_skip_bytes(em, "1", data, end,
                            f"truncated char field {field.name}")
        else:
            # dead strings are still UTF-8-decoded (into a throwaway) and
            # dead complex fields still walked: their validation is part
            # of the accept/reject contract.
            _gen_decode_single(em, field, structs, data, end, var)
    items = ", ".join(
        f"{f.name!r}: {value_vars[f.name]}"
        for f in fmt.fields
        if f.name in value_vars and (live is None or f.name in live)
    )
    em.emit(f"{out_var} = _mk({{{items}}})")


def _arith_skippable(field: IOField) -> bool:
    """Arrays whose elements have a fixed wire width and need no
    validation beyond a bounds check."""
    return field.is_basic and field.kind is not TypeKind.STRING


def _element_width(field: IOField, structs: "_StructTable") -> int:
    if field.kind is TypeKind.CHAR:
        return 1
    return struct.calcsize(structs.order + STRUCT_CODES[(field.kind, field.size)])


def _gen_skip_bytes(
    em: _Emitter, size_expr: str, data: str, end: str, message: str
) -> None:
    """Advance the cursor over dead fixed-width bytes.

    The guard checks both the claimed payload end *and* the real buffer
    length: the full decoder's ``unpack_from`` raises on short buffers
    even when the header over-claims, and the skip must reject the exact
    same wires."""
    em.emit(f"if off + {size_expr} > {end} or off + {size_expr} > len({data}):")
    em.indent += 1
    em.emit(f"raise _DecodeError({message!r})")
    em.indent -= 1
    em.emit(f"off += {size_expr}")


def _gen_skip_array(
    em: _Emitter,
    field: IOField,
    structs: "_StructTable",
    data: str,
    end: str,
    value_vars: Dict[str, str],
) -> None:
    """Skip a dead array of fixed-width elements: same count guard as the
    decoding path, then one cursor bump instead of a per-element loop."""
    spec = field.array
    assert spec is not None
    width = _element_width(field, structs)
    if spec.fixed_length is not None:
        _gen_skip_bytes(em, str(spec.fixed_length * width), data, end,
                        f"truncated array field {field.name}")
        return
    count_expr = value_vars.get(spec.length_field)
    if count_expr is None:  # count field precedes array per IOFormat check
        raise DecodeError(
            f"array {field.name!r} count field decoded after the array"
        )
    per_element = field.min_wire_size()
    if per_element:
        budget = f"({end} - off) // {per_element}"
    else:  # pragma: no cover - fixed-width elements are never zero-size
        budget = str(ZERO_SIZE_ELEMENT_CAP)
    em.emit(f"if {count_expr} < 0 or {count_expr} > {budget}:")
    em.indent += 1
    em.emit(
        f"raise _DecodeError('bad element count %r for {field.name}'"
        f" % ({count_expr},))"
    )
    em.indent -= 1
    # the count guard bounds the elements against the claimed end; the
    # real buffer may still be shorter than the header claims
    em.emit(f"if off + {count_expr} * {width} > len({data}):")
    em.indent += 1
    em.emit(f"raise _DecodeError('truncated array field {field.name}')")
    em.indent -= 1
    em.emit(f"off += {count_expr} * {width}")


def _gen_decode_array(
    em: _Emitter,
    field: IOField,
    structs: List[struct.Struct],
    data: str,
    end: str,
    var: str,
    value_vars: Dict[str, str],
) -> None:
    spec = field.array
    assert spec is not None
    if spec.fixed_length is not None:
        count_expr = str(spec.fixed_length)
    else:
        count_var = value_vars.get(spec.length_field)
        if count_var is None:  # count field precedes array per IOFormat check
            raise DecodeError(
                f"array {field.name!r} count field decoded after the array"
            )
        count_expr = count_var
        # Mirror the generic decoder's corrupt-count guard: the count must
        # be non-negative and must fit the remaining payload bytes given
        # the element's minimum wire footprint.
        per_element = field.min_wire_size()
        if per_element:
            budget = f"({end} - off) // {per_element}"
        else:
            budget = str(ZERO_SIZE_ELEMENT_CAP)
        em.emit(f"if {count_expr} < 0 or {count_expr} > {budget}:")
        em.indent += 1
        em.emit(
            f"raise _DecodeError('bad element count %r for {field.name}'"
            f" % ({count_expr},))"
        )
        em.indent -= 1
    em.emit(f"{var} = []")
    append = em.fresh("app")
    em.emit(f"{append} = {var}.append")
    loop = em.fresh("i")
    em.emit(f"for {loop} in range({count_expr}):")
    em.indent += 1
    element = em.fresh("e")
    _gen_decode_single(em, field, structs, data, end, element)
    em.emit(f"{append}({element})")
    em.indent -= 1


def _gen_decode_single(
    em: _Emitter,
    field: IOField,
    structs: List[struct.Struct],
    data: str,
    end: str,
    var: str,
) -> None:
    kind = field.kind
    if kind is TypeKind.COMPLEX:
        assert field.subformat is not None
        _gen_decode_format(em, field.subformat, structs, data, end, var)
        return
    if kind is TypeKind.STRING:
        length = em.fresh("n")
        em.emit(f"({length},) = _U32.unpack_from({data}, off)")
        em.emit("off += 4")
        em.emit(f"if off + {length} > {end}:")
        em.indent += 1
        em.emit(f"raise _DecodeError('truncated string field {field.name}')")
        em.indent -= 1
        # str(buf, 'utf-8') instead of buf.decode so the generated code
        # accepts memoryview slices (the zero-copy batch path) as well as
        # bytes; both raise UnicodeDecodeError on invalid input
        em.emit(f"{var} = str({data}[off:off + {length}], 'utf-8')")
        em.emit(f"off += {length}")
        return
    if kind is TypeKind.CHAR:
        em.emit(f"if off >= {end}:")
        em.indent += 1
        em.emit(f"raise _DecodeError('truncated char field {field.name}')")
        em.indent -= 1
        em.emit(f"{var} = chr({data}[off])")
        em.emit("off += 1")
        return
    # lone scalar (inside an array loop)
    idx, size = _struct_for_run([field], structs)
    em.emit(f"({var},) = _S[{idx}].unpack_from({data}, off)")
    em.emit(f"off += {size}")


def decoder_source(
    fmt: IOFormat,
    order: str = "<",
    live: Optional[Set[str]] = None,
) -> Tuple[str, List[struct.Struct]]:
    """Generate the Python source of a specialized decoder for *fmt*.

    Returns ``(source, structs)`` where *structs* is the table of
    precompiled Struct objects the source references as ``_S[i]``.
    *order* is the payload byte order the routine is specialized for.
    *live*, when given, restricts the materialized top-level fields (see
    :func:`_gen_decode_format`); the full-record decoders used outside
    route fusion always pass ``None``.
    """
    structs = _StructTable(order)
    em = _Emitter()
    em.emit(f"def _decode(data, off, end):")
    em.indent += 1
    em.emit(f'"""Specialized decoder for format {fmt.name!r} '
            f"(id {fmt.format_id:#x}).\"\"\"")
    _gen_decode_format(em, fmt, structs, "data", "end", "_result", live=live)
    em.emit("return _result, off")
    return em.source(), structs


def make_payload_decoder(
    fmt: IOFormat, order: str = "<"
) -> Callable[[bytes, int, int], Tuple[Record, int]]:
    """Compile and return ``decode(data, off, end) -> (record, new_off)``
    specialized for payloads in *order*."""
    source, structs = decoder_source(fmt, order)
    namespace: Dict[str, Any] = {
        "_S": structs,
        "_U32": struct.Struct(order + "I"),
        "_mk": trusted_record,
        "_DecodeError": DecodeError,
    }
    code = compile(source, f"<pbio-decoder:{fmt.name}:{order}>", "exec")
    exec(code, namespace)
    return namespace["_decode"]


def make_decoder(fmt: IOFormat) -> DecoderFn:
    """Compile a full-message decoder: checks the header, verifies the
    format id, decodes the payload with the specialized routine.

    The little-endian payload decoder is generated eagerly; a big-endian
    variant is generated lazily on first sight of the header flag
    (receiver-makes-right: the conversion cost lands on the reader, and
    only when orders actually differ)."""
    payload_decoders = {"<": make_payload_decoder(fmt, "<")}
    expected_id = fmt.format_id

    def decode(data: bytes) -> Record:
        header = unpack_header(data)
        if header.format_id != expected_id:
            raise DecodeError(
                f"message format id {header.format_id:#x} does not match "
                f"decoder for {fmt.name!r} ({expected_id:#x})"
            )
        order = ">" if header.flags & FLAG_BIG_ENDIAN else "<"
        payload_decoder = payload_decoders.get(order)
        if payload_decoder is None:
            payload_decoder = make_payload_decoder(fmt, order)
            payload_decoders[order] = payload_decoder
        start = header.body_offset
        end = start + header.payload_length
        try:
            record, off = payload_decoder(data, start, end)
        except struct.error as exc:
            raise DecodeError(f"truncated message for {fmt.name!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DecodeError(
                f"invalid UTF-8 in string field of {fmt.name!r}: {exc}"
            ) from None
        except (IndexError, KeyError, MemoryError, OverflowError) as exc:
            raise DecodeError(
                f"corrupt message for {fmt.name!r}: {exc!r}"
            ) from None
        if off != end:
            raise DecodeError(
                f"{end - off} trailing bytes after decoding format {fmt.name!r}"
            )
        return record

    decode.__name__ = f"decode_{fmt.name}"
    return decode


# ---------------------------------------------------------------------------
# Encoder generation
# ---------------------------------------------------------------------------


def _gen_encode_format(
    em: _Emitter,
    fmt: IOFormat,
    structs: List[struct.Struct],
    rec: str,
) -> None:
    for run in _scalar_runs(fmt.fields):
        field = run[0]
        if len(run) > 1 or (
            field.is_basic
            and not field.is_array
            and field.kind not in (TypeKind.STRING, TypeKind.CHAR)
        ):
            idx, _size = _struct_for_run(run, structs)
            args = ", ".join(_coerced_load(rec, f) for f in run)
            em.emit(f"_ext(_S[{idx}].pack({args}))")
            continue
        if field.is_array:
            _gen_encode_array(em, field, structs, rec)
        else:
            _gen_encode_single(em, field, structs, f"{rec}[{field.name!r}]")


def _coerced_load(rec: str, field: IOField) -> str:
    expr = f"{rec}[{field.name!r}]"
    if field.kind is TypeKind.BOOLEAN:
        return f"bool({expr})"
    if field.kind is TypeKind.FLOAT:
        return expr
    return expr


def _gen_encode_array(
    em: _Emitter, field: IOField, structs: List[struct.Struct], rec: str
) -> None:
    spec = field.array
    assert spec is not None
    lst = em.fresh("lst")
    em.emit(f"{lst} = {rec}[{field.name!r}]")
    if spec.fixed_length is not None:
        em.emit(f"if len({lst}) != {spec.fixed_length}:")
        em.indent += 1
        em.emit(
            f"raise _EncodeError('fixed array {field.name} needs "
            f"{spec.fixed_length} elements, got %d' % len({lst}))"
        )
        em.indent -= 1
    else:
        em.emit(f"if len({lst}) != {rec}[{spec.length_field!r}]:")
        em.indent += 1
        em.emit(
            f"raise _EncodeError('variable array {field.name} length does "
            f"not match count field {spec.length_field}')"
        )
        em.indent -= 1
    element = em.fresh("el")
    em.emit(f"for {element} in {lst}:")
    em.indent += 1
    _gen_encode_single(em, field, structs, element)
    em.indent -= 1


def _gen_encode_single(
    em: _Emitter, field: IOField, structs: List[struct.Struct], expr: str
) -> None:
    kind = field.kind
    if kind is TypeKind.COMPLEX:
        assert field.subformat is not None
        sub = em.fresh("sub")
        em.emit(f"{sub} = {expr}")
        _gen_encode_format(em, field.subformat, structs, sub)
        return
    if kind is TypeKind.STRING:
        raw = em.fresh("b")
        em.emit(f"{raw} = {expr}.encode('utf-8')")
        em.emit(f"_ext(_U32.pack(len({raw})))")
        em.emit(f"_ext({raw})")
        return
    if kind is TypeKind.CHAR:
        raw = em.fresh("c")
        em.emit(f"{raw} = {expr}.encode('latin-1')")
        em.emit(f"if len({raw}) != 1:")
        em.indent += 1
        em.emit(f"raise _EncodeError('char field {field.name} needs 1 character')")
        em.indent -= 1
        em.emit(f"_ext({raw})")
        return
    idx, _size = _struct_for_run([field], structs)
    if kind is TypeKind.BOOLEAN:
        em.emit(f"_ext(_S[{idx}].pack(bool({expr})))")
    else:
        em.emit(f"_ext(_S[{idx}].pack({expr}))")


def encoder_source(fmt: IOFormat, order: str = "<") -> Tuple[str, List[struct.Struct]]:
    """Generate the Python source of a specialized payload encoder."""
    structs = _StructTable(order)
    em = _Emitter()
    em.emit("def _encode(rec):")
    em.indent += 1
    em.emit(f'"""Specialized encoder for format {fmt.name!r} '
            f"(id {fmt.format_id:#x}).\"\"\"")
    em.emit("buf = bytearray()")
    em.emit("_ext = buf.extend")
    _gen_encode_format(em, fmt, structs, "rec")
    em.emit("return buf")
    return em.source(), structs


def make_payload_encoder(fmt: IOFormat, order: str = "<") -> Callable[[Any], bytearray]:
    source, structs = encoder_source(fmt, order)
    namespace: Dict[str, Any] = {
        "_S": structs,
        "_U32": struct.Struct(order + "I"),
        "_EncodeError": EncodeError,
    }
    code = compile(source, f"<pbio-encoder:{fmt.name}:{order}>", "exec")
    exec(code, namespace)
    return namespace["_encode"]


def make_encoder(fmt: IOFormat, byte_order: str = "little") -> EncoderFn:
    """Compile a full-message encoder (header + payload) for *fmt*,
    writing payload scalars in the writer's *byte_order*."""
    try:
        order = ORDER_PREFIX[byte_order]
    except KeyError:
        raise EncodeError(f"unknown byte order {byte_order!r}") from None
    payload_encoder = make_payload_encoder(fmt, order)
    format_id = fmt.format_id
    flags = FLAG_BIG_ENDIAN if byte_order == "big" else 0

    def encode(rec: Any) -> bytes:
        try:
            payload = payload_encoder(rec)
        except struct.error as exc:
            raise EncodeError(f"cannot encode record of {fmt.name!r}: {exc}") from None
        except (KeyError, TypeError) as exc:
            raise EncodeError(
                f"record does not conform to format {fmt.name!r}: {exc!r}"
            ) from None
        except AttributeError as exc:
            raise EncodeError(
                f"bad field value for format {fmt.name!r}: {exc}"
            ) from None
        return pack_header(format_id, len(payload), flags=flags) + bytes(payload)

    encode.__name__ = f"encode_{fmt.name}"
    return encode


# ---------------------------------------------------------------------------
# Vectorized batch encoder generation
# ---------------------------------------------------------------------------

#: Offset of the little-endian u32 payload-length word inside a packed
#: PBIO header (the last field of ``repro.pbio.buffer.HEADER``).
_PAYLOAD_LEN_OFFSET = struct.calcsize("<IBBHQ")

BatchEncoderFn = Callable[..., bytes]


def batch_encoder_source(
    fmts: Sequence[IOFormat], order: str = "<"
) -> Tuple[str, List[struct.Struct]]:
    """Generate the source of a vectorized BATCH1 frame encoder.

    The routine takes ``(rows, trace_block)`` where every *row* is a
    sequence holding one record per format in *fmts*, and packs all K
    rows straight into one BATCH1 frame held in a **single** buffer: no
    per-message ``bytes`` objects, no per-message header re-packing.
    Each segment's u32 length prefix and each contained message's header
    length word start as placeholders and are patched in place once the
    segment's fields have landed, so variable-width fields (strings,
    arrays) need no pre-measuring pass.
    """
    structs = _StructTable(order)
    em = _Emitter()
    em.emit("def _encode_batch(rows, trace_block):")
    em.indent += 1
    names = "+".join(f.name for f in fmts)
    em.emit(f'"""Vectorized BATCH1 encoder for {names!r} rows."""')
    em.emit("count = len(rows)")
    em.emit("buf = bytearray()")
    em.emit("_ext = buf.extend")
    em.emit("if trace_block is None:")
    em.indent += 1
    em.emit("_ext(_BH.pack(_BMAGIC, _BVER, 0, count))")
    em.indent -= 1
    em.emit("else:")
    em.indent += 1
    em.emit("_ext(_BH.pack(_BMAGIC, _BVER, _BTRACE, count))")
    em.emit("_ext(trace_block)")
    em.indent -= 1
    rec_vars = [f"_r{i}" for i in range(len(fmts))]
    em.emit("for _row in rows:")
    em.indent += 1
    lhs = ", ".join(rec_vars)
    if len(rec_vars) == 1:
        lhs += ","
    em.emit(f"{lhs} = _row")
    em.emit("_seg = len(buf)")
    em.emit("_ext(_ZERO4)")
    for index, fmt in enumerate(fmts):
        em.emit("_m = len(buf)")
        em.emit(f"_ext(_H{index})")
        _gen_encode_format(em, fmt, structs, rec_vars[index])
        em.emit(
            f"_PL.pack_into(buf, _m + {_PAYLOAD_LEN_OFFSET}, "
            f"len(buf) - _m - {HEADER_SIZE})"
        )
    em.emit("_SL.pack_into(buf, _seg, len(buf) - _seg - 4)")
    em.indent -= 1
    em.emit("return bytes(buf)")
    return em.source(), structs


def make_batch_encoder(
    fmts: Sequence[IOFormat], byte_order: str = "little"
) -> BatchEncoderFn:
    """Compile ``encode_batch(rows, ctx=None) -> bytes``: one call packs
    K same-shape rows into a complete BATCH1 frame.

    Each row supplies one record per format in *fmts* (the echo layer
    uses ``(envelope, payload)`` pairs); a row's messages are
    concatenated into a single batch segment, exactly the shape
    :func:`repro.net.batch.pack_batch` produces from pre-encoded wires.
    Frames are byte-identical to the compose-then-pack path, and the
    ``net.batch.packed_*`` counters advance identically."""
    try:
        order = ORDER_PREFIX[byte_order]
    except KeyError:
        raise EncodeError(f"unknown byte order {byte_order!r}") from None
    fmts = tuple(fmts)
    if not fmts:
        raise EncodeError("batch encoder needs at least one format")
    # net.batch never imports pbio, but keep the dependency lazy anyway:
    # codegen stays importable from the lowest layers.
    from repro.net.batch import (
        BATCH_FLAG_TRACE,
        BATCH_HEADER,
        BATCH_MAGIC,
        BATCH_VERSION,
        record_batch_packed,
    )

    source, structs = batch_encoder_source(fmts, order)
    flags = FLAG_BIG_ENDIAN if byte_order == "big" else 0
    namespace: Dict[str, Any] = {
        "_S": structs,
        "_U32": struct.Struct(order + "I"),
        "_EncodeError": EncodeError,
        "_BH": BATCH_HEADER,
        "_BMAGIC": BATCH_MAGIC,
        "_BVER": BATCH_VERSION,
        "_BTRACE": BATCH_FLAG_TRACE,
        "_ZERO4": b"\x00\x00\x00\x00",
        "_PL": struct.Struct("<I"),
        "_SL": struct.Struct(">I"),
    }
    for index, fmt in enumerate(fmts):
        namespace[f"_H{index}"] = pack_header(fmt.format_id, 0, flags=flags)
    label = "+".join(f.name for f in fmts)
    code = compile(source, f"<pbio-batch-encoder:{label}:{order}>", "exec")
    exec(code, namespace)
    raw = namespace["_encode_batch"]

    def encode_batch(
        rows: Sequence[Sequence[Any]], ctx: Optional[TraceContext] = None
    ) -> bytes:
        if not rows:
            # parity with pack_batch: an empty frame is invalid wire
            raise DecodeError("cannot pack an empty BATCH1 frame")
        trace_block = encode_block(ctx) if ctx is not None else None
        try:
            frame = raw(rows, trace_block)
        except struct.error as exc:
            raise EncodeError(
                f"cannot encode batch of {label!r}: {exc}"
            ) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise EncodeError(
                f"batch row does not conform to ({label}): {exc!r}"
            ) from None
        except AttributeError as exc:
            raise EncodeError(
                f"bad field value in batch of {label!r}: {exc}"
            ) from None
        record_batch_packed(len(rows))
        return frame

    encode_batch.__name__ = f"encode_batch_{label}"
    return encode_batch
