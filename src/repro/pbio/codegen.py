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
* the runs cross array-element boundaries: an element's trailing scalars
  and the next element's leading fixed-width field (a string's length,
  or a scalar run) are one ``Struct`` call, so an array of
  ``[string, scalars]`` records costs one call per element each way,
* the format tree is fully inlined — no per-field dispatch, no recursion,
* records are built frame-free: ``dict.__new__(Record)`` and one
  ``dict.update`` from a literal, two C calls and no conversion, and
  strings decode from ``bytes`` (a decoder copies a non-``bytes`` message
  once, on entry).

The generated source for any format can be inspected via
:func:`decoder_source` / :func:`encoder_source`, which is also how the
test suite audits the generated code.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DecodeError, EncodeError
from repro.pbio.decode import ZERO_SIZE_ELEMENT_CAP
from repro.pbio.buffer import (
    FLAG_BIG_ENDIAN,
    ORDER_PREFIX,
    pack_header,
    unpack_header,
)
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
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


def _fusable(field: IOField) -> bool:
    """A non-array basic scalar with a fixed struct code: everything
    except strings and chars (chars decode to str, so they stay
    singletons)."""
    return (
        field.is_basic
        and not field.is_array
        and field.kind not in (TypeKind.STRING, TypeKind.CHAR)
    )


def _scalar_runs(fields: Tuple[IOField, ...]) -> List[List[IOField]]:
    """Group the top-level fields into runs of fuse-able scalars and
    singleton non-fusable fields, preserving order."""
    runs: List[List[IOField]] = []
    current: List[IOField] = []
    for field in fields:
        if _fusable(field):
            current.append(field)
        else:
            if current:
                runs.append(current)
                current = []
            runs.append([field])
    if current:
        runs.append(current)
    return runs


def _run_codes(run: List[IOField]) -> str:
    return "".join(STRUCT_CODES[(f.kind, f.size)] for f in run)


def _struct_for(codes: str, structs: "_StructTable") -> Tuple[int, int]:
    """Register a precompiled Struct for *codes*; returns its index in
    *structs* and its packed size."""
    packer = struct.Struct(structs.order + codes)
    structs.append(packer)
    return len(structs) - 1, packer.size


def _head_codes(fmt: IOFormat) -> Optional[str]:
    """The struct codes of the leading fixed-width read of a record of
    *fmt* — its first string's u32 length, or its first scalar run —
    when the record before it in an array can carry that read in its own
    trailing scalar run; ``None`` when *fmt* does not end in a scalar run
    or is one run (the carry would merge nothing)."""
    runs = _scalar_runs(fmt.fields)
    if len(runs) < 2 or not _fusable(runs[-1][0]):
        return None
    first = runs[0][0]
    if _fusable(first):
        return _run_codes(runs[0])
    if first.kind is TypeKind.STRING and not first.is_array:
        return "I"
    return None


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
    held: Optional[List[str]] = None,
    carry: bool = False,
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

    *held* and *carry* serve an array element (see
    :func:`_gen_decode_array`): *held* names the locals the record's
    leading fixed-width read (:func:`_head_codes`) already landed in, so
    it is not read again; *carry* appends the next element's leading read
    to the trailing scalar run's ``unpack_from``, into the same locals.
    """
    value_vars: Dict[str, str] = {}
    count_fields = {
        f.array.length_field
        for f in fmt.fields
        if f.array is not None and f.array.length_field
    }

    def _needed(f: IOField) -> bool:
        return live is None or f.name in live or f.name in count_fields

    runs = _scalar_runs(fmt.fields)
    for position, run in enumerate(runs):
        field = run[0]
        if held is not None and position == 0:
            targets = [em.fresh("v") for _ in run]
            for f, var in zip(run, targets):
                value_vars[f.name] = var
            if _fusable(field):
                # the carry overwrites *held* before this record is built
                em.emit(f"{', '.join(targets)} = {', '.join(held)}")
            else:
                _gen_string_body(em, field, data, end, held[0], targets[0])
            continue
        if _fusable(field):
            if live is not None and not any(_needed(f) for f in run):
                size = struct.calcsize(structs.order + _run_codes(run))
                _gen_skip_bytes(em, str(size), data, end,
                                f"truncated message in format {fmt.name}")
                continue
            targets = [em.fresh("v") for _ in run]
            for f, var in zip(run, targets):
                value_vars[f.name] = var
            codes = _run_codes(run)
            if carry and position == len(runs) - 1:
                assert held is not None
                codes += _head_codes(fmt) or ""
                targets += held
            _gen_unpack(em, codes, targets, structs, data)
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
    em.emit(f"{out_var} = _new(_R)")
    em.emit(f"_upd({out_var}, {{{items}}})")


def _gen_unpack(
    em: _Emitter,
    codes: str,
    targets: List[str],
    structs: "_StructTable",
    data: str,
) -> None:
    """One ``unpack_from`` of *codes* at the cursor into *targets*."""
    idx, size = _struct_for(codes, structs)
    lhs = ", ".join(targets)
    if len(targets) == 1:
        lhs += ","
    em.emit(f"{lhs} = _S[{idx}].unpack_from({data}, off)")
    em.emit(f"off += {size}")


def _gen_decode_message(
    em: _Emitter,
    fmt: IOFormat,
    structs: "_StructTable",
    out_var: str,
    live: Optional[Set[str]] = None,
) -> None:
    """Emit the decode of the record of *fmt* that the message ``data``
    carries between ``off`` and ``end`` into *out_var*: the one entry to
    :func:`_gen_decode_format`, for :func:`decoder_source` and the fused
    route's decode fragment alike.

    Its prologue turns a non-``bytes`` message (a ``memoryview`` slice of
    a receive buffer, a ``bytearray``) into ``bytes``, so each string is
    a ``bytes.decode`` rather than a ``str`` of a view.  Every caller
    hands over one message — ``PBIOContext.decode_as`` one wire, a
    receiver one segment or the payload slice after an envelope — never
    a whole frame, so the copy is O(message).  The names the emitted
    code uses are :func:`decode_namespace`'s."""
    em.emit("if data.__class__ is not _bytes:")
    em.indent += 1
    em.emit("data = _bytes(data)")
    em.indent -= 1
    _gen_decode_format(em, fmt, structs, "data", "end", out_var, live=live)


def decode_namespace(structs: "_StructTable") -> Dict[str, Any]:
    """The globals :func:`_gen_decode_message`'s code runs against."""
    return {
        "_S": structs,
        "_U32": struct.Struct(structs.order + "I"),
        "_bytes": bytes,
        "_new": dict.__new__,
        "_upd": dict.update,
        "_R": Record,
        "_DecodeError": DecodeError,
    }


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
    sub = field.subformat
    codes = _head_codes(sub) if sub is not None else None
    if codes is None or spec.fixed_length == 0:
        loop = em.fresh("i")
        em.emit(f"for {loop} in range({count_expr}):")
        em.indent += 1
        element = em.fresh("e")
        _gen_decode_single(em, field, structs, data, end, element)
        em.emit(f"{append}({element})")
        em.indent -= 1
        return
    # A struct run across element boundaries: each element's trailing
    # scalars and the next element's leading read are one unpack_from.
    # The first element's lead is read on its own, after the count guard
    # and only for a non-empty array; the last element's tail reads
    # nothing past itself.
    assert sub is not None
    held = [em.fresh("h") for _ in codes]
    guarded = spec.fixed_length is None
    if guarded:
        em.emit(f"if {count_expr}:")
        em.indent += 1
    _gen_unpack(em, codes, held, structs, data)

    def element(carry: bool) -> None:
        out = em.fresh("e")
        _gen_decode_format(em, sub, structs, data, end, out,
                           held=held, carry=carry)
        em.emit(f"{append}({out})")

    loop = em.fresh("i")
    em.emit(f"for {loop} in range({count_expr} - 1):")
    em.indent += 1
    element(carry=True)
    em.indent -= 1
    element(carry=False)
    if guarded:
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
        _gen_string_body(em, field, data, end, length, var)
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
    _gen_unpack(em, _run_codes([field]), [var], structs, data)


def _gen_string_body(
    em: _Emitter, field: IOField, data: str, end: str, length: str, var: str
) -> None:
    """A string's bytes, once its u32 *length* is read."""
    em.emit(f"if off + {length} > {end}:")
    em.indent += 1
    em.emit(f"raise _DecodeError('truncated string field {field.name}')")
    em.indent -= 1
    em.emit(f"{var} = {data}[off:off + {length}].decode()")
    em.emit(f"off += {length}")


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
    _gen_decode_message(em, fmt, structs, "_result", live=live)
    em.emit("return _result, off")
    return em.source(), structs


def make_payload_decoder(
    fmt: IOFormat, order: str = "<"
) -> Callable[[bytes, int, int], Tuple[Record, int]]:
    """Compile and return ``decode(data, off, end) -> (record, new_off)``
    specialized for payloads in *order*."""
    source, structs = decoder_source(fmt, order)
    namespace = decode_namespace(structs)
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
    held: Optional[str] = None,
    carry: Optional[str] = None,
) -> None:
    """Emit code appending record *rec* of *fmt* to ``buf``.

    *held* and *carry* serve an array element (see
    :func:`_gen_encode_array`): given *held*, the record's leading
    fixed-width write (:func:`_head_codes`) is already made, and *held*
    names the local holding its leading string's bytes; *carry* names the
    next element, whose leading write joins the trailing scalar run's
    ``pack``."""
    runs = _scalar_runs(fmt.fields)
    for position, run in enumerate(runs):
        field = run[0]
        if held is not None and position == 0:
            if not _fusable(field):
                em.emit(f"_ext({held})")
            continue
        if _fusable(field):
            codes = _run_codes(run)
            args = [_coerced_load(rec, f) for f in run]
            if carry is not None and position == len(runs) - 1:
                assert held is not None
                next_codes, next_args = _gen_encode_head(em, fmt, carry, held)
                codes += next_codes
                args += next_args
            idx, _size = _struct_for(codes, structs)
            em.emit(f"_ext(_S[{idx}].pack({', '.join(args)}))")
            continue
        if field.is_array:
            _gen_encode_array(em, field, structs, rec)
        else:
            _gen_encode_single(em, field, structs, f"{rec}[{field.name!r}]")


def _gen_encode_head(
    em: _Emitter, fmt: IOFormat, rec: str, held: str
) -> Tuple[str, List[str]]:
    """The struct codes and ``pack`` arguments of record *rec*'s leading
    fixed-width write; a leading string is encoded into *held* first."""
    run = _scalar_runs(fmt.fields)[0]
    if _fusable(run[0]):
        return _run_codes(run), [_coerced_load(rec, f) for f in run]
    em.emit(f"{held} = {rec}[{run[0].name!r}].encode('utf-8')")
    return "I", [f"len({held})"]


def _coerced_load(rec: str, field: IOField) -> str:
    expr = f"{rec}[{field.name!r}]"
    if field.kind is TypeKind.BOOLEAN:
        return f"bool({expr})"
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
    sub = field.subformat
    if sub is None or _head_codes(sub) is None or spec.fixed_length == 0:
        element = em.fresh("el")
        em.emit(f"for {element} in {lst}:")
        em.indent += 1
        _gen_encode_single(em, field, structs, element)
        em.indent -= 1
        return
    # the struct run across element boundaries, as the decoder reads it
    # (_gen_decode_array): the first element's lead on its own, each
    # element's tail with the next one's lead, the last tail alone
    guarded = spec.fixed_length is None
    if guarded:
        em.emit(f"if {lst}:")
        em.indent += 1
    it, cur, nxt, held = (em.fresh(p) for p in ("it", "cur", "nx", "b"))
    em.emit(f"{it} = iter({lst})")
    em.emit(f"{cur} = next({it})")
    codes, args = _gen_encode_head(em, sub, cur, held)
    idx, _size = _struct_for(codes, structs)
    em.emit(f"_ext(_S[{idx}].pack({', '.join(args)}))")
    em.emit(f"for {nxt} in {it}:")
    em.indent += 1
    _gen_encode_format(em, sub, structs, cur, held=held, carry=nxt)
    em.emit(f"{cur} = {nxt}")
    em.indent -= 1
    _gen_encode_format(em, sub, structs, cur, held=held)
    if guarded:
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
    idx, _size = _struct_for(_run_codes([field]), structs)
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
        except (AttributeError, UnicodeEncodeError, OverflowError) as exc:
            raise EncodeError(
                f"bad field value for format {fmt.name!r}: {exc}"
            ) from None
        return pack_header(format_id, len(payload), flags=flags) + bytes(payload)

    encode.__name__ = f"encode_{fmt.name}"
    return encode
