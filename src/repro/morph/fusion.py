"""Whole-route fusion — one generated function per cached route.

The staged receiver pipeline decodes a full :class:`Record`, walks the
:class:`TransformChain` one compiled step at a time (materializing and
freezing an intermediate record per hop), then runs reconciliation as yet
another pass.  This module extends the paper's dynamic-code-generation
idea from single conversions to the *complete* retro-transformation
chain: the decode fragment, every transform body and the reconcile
logic are emitted into a single specialized Python function and
compiled once — planned and compiled when the route carries its second
message of a byte order (the receiver keeps that mark on the route), or
planned earlier when the route's liveness set is asked for.

What fusion buys over the staged path:

* no per-step dispatch — the chain is straight-line code, and no
  per-step obs/error plumbing runs (every hop's output is frozen, as on
  the staged path: specialised by format that is a ``list()`` per array
  field, and the next hop then reads plain lists),
* **dead-field elimination**: a backward liveness pass over the chain
  (:func:`repro.ecode.analyze.fields_used`) determines which top-level
  wire fields anything downstream actually reads, dead stores inside
  transforms feeding only dropped fields are pruned
  (:func:`repro.ecode.analyze.prune_dead_stores`), and the decode
  fragment skips dead fixed-width fields arithmetically instead of
  unpacking them (`live=` support in :mod:`repro.pbio.codegen`).

At the fabric owner nobody reads a record: each subscriber group wants
its format's bytes.  There a route goes **wire to wire**
(:class:`WireRoute`): the decode fragment holds the elements of an array
of records as rows (tuples in declared field order), the inlined chain
reads a row's field by position and appends each element it builds as a
row, and the target format's encoder is the tail, reading those rows —
no :class:`Record` is built.  One routine is generated per process for
each content key (source format content, each step's code, target format
content and byte order), whichever route asks for it.

The staged path remains both the ablation baseline and the runtime
fallback: :func:`plan_fusion` returns ``None`` whenever a route uses a
feature fusion does not support (interpreter procedures, ``return``
inside a transform, parameter shadowing), and a compile failure
downgrades the route to staged execution instead of failing the
receiver.  Error *classes* and counter effects match the
staged path exactly — the ``fusion`` differential oracle in
:mod:`repro.check` holds the two paths to that contract.
"""

from __future__ import annotations

import struct
import threading
from functools import partial
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple,
)

from repro.ecode import analyze
from repro.ecode.codegen import (
    ECODE_ESCAPES, NotRows, generate_inline, runtime_namespace,
)
from repro.errors import ECodeError, TransformError
from repro.morph.compat import _coerce_field
from repro.morph.transform import Transformation, ecode_shapes, rows_format
from repro.obs.metrics import Tallies, collect, counter
from repro.pbio.buffer import ProjectionCut
from repro.pbio.codegen import (
    _Emitter,
    _gen_decode_message,
    _gen_encode_message,
    _StructTable,
    byte_order_prefix,
    decode_namespace,
    encode_namespace,
)
from repro.pbio.format import IOFormat


def _make_fail(label: str) -> Callable[[BaseException], None]:
    def _fail(exc: BaseException) -> None:
        raise TransformError(
            f"fused route {label} failed at runtime in its chain stage: {exc!r}"
        ) from exc

    return _fail


#: fused routes compiled in this process (routes compile on any thread)
_TALLY = Tallies(compiles=0)
_TALLY_LOCK = threading.Lock()
collect(None, _TALLY, (counter("morph.fusion.compiles", "compiles"),))

#: what a step's consumer reads of its output: top-level field names, or
#: None when it sees the whole record
Live = Optional[FrozenSet[str]]


class _StepFacts(NamedTuple):
    """A step's program as one consumer needs it (see :func:`_facts`)."""

    program: "analyze.ast.Program"  # stores nothing downstream reads pruned
    declared: FrozenSet[str]  # the locals it declares
    reads: Live  # the fields of ``new`` it touches


def _facts(step: Transformation, live: Live) -> _StepFacts:
    """The analyses of *step* under *live*, made once per shared step
    (:meth:`Transformation.fact`) however many routes contain it."""

    def analyse() -> _StepFacts:
        program = step.procedure.program
        if live is not None:
            program = analyze.prune_dead_stores(
                program,
                "old",
                live,
                "new",
                {f.name for f in step.source.fields},
                {f.name for f in step.target.fields},
            )
        reads = analyze.fields_used(program, "new")
        return _StepFacts(
            program,
            frozenset(analyze.declared_names(program)),
            None if reads is None else frozenset(reads),
        )

    return step.fact(("facts", live), analyse)


def _inlinable(step: Transformation) -> bool:
    """Whether *step* can be spliced into a larger function at all."""
    if not step.use_codegen:  # interpreter procedure: no AST-to-inline
        return False
    return step.fact(
        "inlinable",
        lambda: not analyze.has_return(step.procedure.program)
        # shadowed parameters defeat the rename map
        and not {"new", "old"} & _facts(step, None).declared,
    )


def _inlined(
    step: Transformation, live: Live, k: int, indent: int, rows: bool = False,
) -> Optional[List[str]]:
    """*step*'s body as the *k*-th of a fused chain: ``_r{k}`` in,
    ``_r{k+1}`` out, its locals prefixed so steps cannot collide; with
    *rows*, over rows — ``None`` when the program needs its records
    (:class:`~repro.ecode.codegen.NotRows`)."""

    def generate() -> Optional[List[str]]:
        facts = _facts(step, live)
        rename = {"new": f"_r{k}", "old": f"_r{k + 1}"}
        for local in facts.declared:
            rename[local] = f"_s{k}_{local}"
        try:
            return generate_inline(
                facts.program, rename, indent,
                ecode_shapes(step.spec, rows), rows,
            )
        except NotRows:
            return None

    return step.fact(("inlined", live, k, indent, rows), generate)


class _Routine:
    """A generated function per payload byte order (receiver-makes-right:
    most receivers only ever see their native order), compiled when
    first asked for — the receiver asks on a route's *second* message of
    the order, as the first runs the staged path, which costs a fraction
    of a ``compile()`` and is all a format sent once ever needs.  A
    compile failure is remembered as ``None``: the staged path for good.
    A subclass's ``_emit(order)`` writes the function :attr:`NAME`."""

    __slots__ = ("label", "_fns", "_lock")
    NAME = ""

    def __init__(self, label: str) -> None:
        self.label = label
        self._fns: Dict[str, Optional[Callable]] = {}
        self._lock = threading.Lock()

    def fn_for(self, order: str) -> Optional[Callable]:
        """The routine for payloads in *order* (``"<"``/``">"``),
        compiled now if nobody asked for that order before; ``None`` if
        it failed to."""
        try:
            return self._fns[order]
        except KeyError:
            pass
        with self._lock:
            if order not in self._fns:
                self._fns[order] = self._compile(order)
            return self._fns[order]

    def _compile(self, order: str) -> Optional[Callable]:
        """Compile the routine for payloads in *order* (counted in the
        compile tally); ``None`` when it fails."""
        try:
            source, namespace = self._emit(order)
            kind = self.NAME.strip("_").replace("_", "-")
            exec(compile(source, f"<{kind}:{self.label}:{order}>", "exec"),
                 namespace)
            fn = namespace[self.NAME]
        except Exception:
            return None
        with _TALLY_LOCK:
            _TALLY.compiles += 1
        return fn


class FusedRoute(_Routine):
    """The compiled form of one receiver route: its routine, called as
    ``fn(data, body offset, end)``, returns ``(record, consumed
    offset)`` — the offset lets batch receivers walk successive records
    through one shared buffer."""

    __slots__ = ("wire_format", "wire_live", "_steps", "_walker_coercion")
    NAME = "_fused_route"

    def __init__(
        self,
        wire_format: IOFormat,
        wire_live: Live,
        label: str,
        steps: List[Tuple[Transformation, Live]],
        walker_coercion: Optional[Tuple[IOFormat, IOFormat]],
    ) -> None:
        super().__init__(label)
        self.wire_format = wire_format
        self.wire_live = wire_live
        self._steps = steps
        self._walker_coercion = walker_coercion

    def source(self, order: str = "<") -> str:
        """The generated Python source for *order* (audited by tests):
        emitted again on request — emission is deterministic — so that a
        route does not hold its text for life."""
        return self._emit(order)[0]

    def _emit(self, order: str) -> Tuple[str, Dict[str, Any]]:
        em = _Emitter()
        structs = _StructTable(order)
        namespace = _namespace(structs)

        em.emit("def _fused_route(data, off, end):")
        em.indent += 1
        em.emit(f'"""Fused route for {self.label} (payload order {order!r})."""')
        _emit_decode(em, self.wire_format, structs, self.wire_live, False)
        result = _emit_chain(em, namespace, self.label, self._steps, False)

        # -- structural reconcile (total: no try region needed) --------
        if self._walker_coercion is not None:
            result = self._emit_walker(em, namespace, result)

        # consumed length rides along so batch receivers decoding
        # successive records from one shared buffer can advance a cursor
        em.emit(f"return {result}, off")
        return em.source(), namespace

    def _emit_walker(
        self, em: _Emitter, namespace: Dict[str, Any], rec: str
    ) -> str:
        """Inline :func:`repro.morph.compat.coerce_record` for this
        route's fixed ``(src, dst)`` pair: per-field copy/default
        decisions are taken at compile time, the per-value coercions stay
        the exact same (total) helpers the walker uses."""
        src_fmt, dst_fmt = self._walker_coercion  # type: ignore[misc]
        em.emit("_out = _R()")
        for i, field in enumerate(dst_fmt.fields):
            default = f"_df{i}"
            namespace[default] = field.default_instance
            src_field = src_fmt.get_field(field.name)
            if src_field is not None and field.matches(src_field):
                copier = f"_cp{i}"
                namespace[copier] = partial(_coerce_field, src_field, field)
                em.emit(
                    f"_out[{field.name!r}] = {copier}({rec}[{field.name!r}])"
                    f" if {field.name!r} in {rec} else {default}()"
                )
            else:
                em.emit(f"_out[{field.name!r}] = {default}()")
        for field in dst_fmt.fields:
            spec = field.array
            if spec is not None and spec.length_field is not None:
                em.emit(
                    f"_out[{spec.length_field!r}] = len(_out[{field.name!r}])"
                )
        return "_out"


def _emit_decode(
    em: _Emitter, fmt: IOFormat, structs: _StructTable, live: Live, rows: bool,
) -> None:
    """The decode fragment into ``_r0`` (dead fields skipped), its
    failures mapped to :class:`DecodeError`."""
    em.emit("try:")
    em.indent += 1
    _gen_decode_message(em, fmt, structs, "_r0", live=live, rows=rows)
    em.emit("if off != end:")
    em.indent += 1
    em.emit(
        "raise _DecodeError('%d trailing bytes after decoding format "
        f"{fmt.name}' % (end - off,))"
    )
    em.indent -= 2
    em.emit("except _struct_error as exc:")
    em.indent += 1
    em.emit(
        f"raise _DecodeError('truncated message for {fmt.name}:"
        " %s' % (exc,)) from None"
    )
    em.indent -= 1
    em.emit("except UnicodeDecodeError as exc:")
    em.indent += 1
    em.emit(
        "raise _DecodeError('invalid UTF-8 in string field of "
        f"{fmt.name}: %s' % (exc,)) from None"
    )
    em.indent -= 1
    em.emit("except (IndexError, KeyError, MemoryError, OverflowError) as exc:")
    em.indent += 1
    em.emit(
        f"raise _DecodeError('corrupt message for {fmt.name}:"
        " %r' % (exc,)) from None"
    )
    em.indent -= 1


def _emit_chain(
    em: _Emitter, namespace: Dict[str, Any], label: str,
    steps: List[Tuple[Transformation, Live]], rows: bool,
) -> str:
    """Inline the transform chain inside one try region whose failures
    all surface as :class:`TransformError`, like a staged step's; the
    name of its result.  A step's output is its growable record
    (frozen after the step), or over *rows* a plain ``dict`` of the
    target's defaults with an empty list per array."""
    if not steps:
        return "_r0"
    namespace["_chain_fail"] = _make_fail(label)
    em.emit("try:")
    em.indent += 1
    for k, (step, live) in enumerate(steps):
        out = f"_r{k + 1}"
        if rows:
            scalars, fresh = step.target.template
            namespace[f"_tpl{k}"] = scalars
            lists = "".join(f", {field.name!r}: []" for field in fresh)
            em.emit(f"{out} = {{**_tpl{k}{lists}}}")
        else:
            namespace[f"_gr{k}"] = step.new_output
            em.emit(f"{out} = _gr{k}()")
        em.lines.extend(_inlined(step, live, k, em.indent, rows))
        if step.freeze is not None and not rows:
            namespace[f"_frz{k}"] = step.freeze
            em.emit(f"_frz{k}({out})")
    em.indent -= 1
    em.emit("except _ECodeError as exc:")
    em.indent += 1
    em.emit("_chain_fail(exc)")
    em.indent -= 1
    em.emit("except _ecode_escapes as exc:")
    em.indent += 1
    em.emit("_chain_fail(exc)")
    em.indent -= 1
    return f"_r{len(steps)}"


def _namespace(structs: _StructTable) -> Dict[str, Any]:
    """The globals of a routine that decodes a payload in *structs*'
    order and runs a chain."""
    namespace = runtime_namespace()
    namespace.update(decode_namespace(structs))
    namespace.update({
        "_struct_error": struct.error,
        "_ECodeError": ECodeError,
        "_ecode_escapes": ECODE_ESCAPES,
    })
    return namespace


class WireRoute(_Routine):
    """One routine from a payload of :attr:`source` to a message of
    :attr:`target`: the decode fragment holding rows, the chain over
    rows, the target's encoder as its tail.  With no target it is the
    payload's check (a decode that keeps nothing and returns ``None``);
    with no step and the source as target, a re-encode in
    :attr:`byte_order`.  Its routine, called as ``fn(data, body offset,
    end)``, returns the target's wire (``None`` for a check).

    There is one per content key per process (:func:`wire_route`),
    whichever route asks for it.  Errors are the staged path's classes:
    a payload it cannot read is a :class:`DecodeError`, a step that
    fails a :class:`TransformError`, an output the target cannot hold an
    :class:`EncodeError`."""

    __slots__ = ("source", "target", "byte_order", "_steps", "_live")
    NAME = "_wire_route"

    def __init__(
        self, source: IOFormat, steps: List[Tuple[Transformation, Live]],
        live: Live, target: Optional[IOFormat], byte_order: str,
    ) -> None:
        super().__init__(
            f"{source.name}.v{source.version}->"
            + ("check" if target is None
               else f"{target.name}.v{target.version}"))
        self.source = source
        self.target = target
        self.byte_order = byte_order
        self._steps = steps
        self._live = live

    def source_text(self, order: str = "<") -> str:
        """The generated Python source for *order* (``source`` names
        the payload's format here)."""
        return self._emit(order)[0]

    def _emit(self, order: str) -> Tuple[str, Dict[str, Any]]:
        em = _Emitter()
        structs = _StructTable(order)
        namespace = _namespace(structs)
        em.emit("def _wire_route(data, off, end):")
        em.indent += 1
        em.emit(f'"""Wire route {self.label} (payload order {order!r})."""')
        _emit_decode(em, self.source, structs, self._live, True)
        result = _emit_chain(em, namespace, self.label, self._steps, True)
        if self.target is None:
            em.emit("return None")
        else:
            tail = _StructTable(byte_order_prefix(self.byte_order), "_T")
            _gen_encode_message(em, self.target, tail, result, rows=True)
            namespace.update(encode_namespace(self.target, tail))
        return em.source(), namespace


#: the process's wire routes, by content key (FIFO at
#: :data:`WIRE_ROUTE_CACHE_MAX`; an evicted key is made again when
#: next asked for)
_wire_routes: Dict[tuple, Optional[WireRoute]] = {}
WIRE_ROUTE_CACHE_MAX = 256
_wire_lock = threading.Lock()
_MISSING: Any = object()


def wire_route(
    source: IOFormat, steps: List[Transformation],
    target: Optional[IOFormat], byte_order: str,
) -> Optional[WireRoute]:
    """The process's one :class:`WireRoute` for its content key — source
    format content, each step's code, target format content with byte
    order — or ``None`` when the route cannot take rows: an interpreter
    procedure or a step fusion cannot inline, a format along it whose
    records are not rows (:func:`~repro.morph.transform.rows_format`),
    or a program that writes a row, reads back an array it fills or
    uses a row whole (:class:`~repro.ecode.codegen.NotRows`)."""
    formats = [source] + [step.target for step in steps]
    if not all(_inlinable(step) for step in steps) or not all(
            rows_format(fmt) for fmt in formats):
        return None
    key = (
        source.content_key(),
        tuple((step.spec.code, step.target.content_key()) for step in steps),
        None if target is None else target.content_key(),
        byte_order,
    )
    with _wire_lock:
        found = _wire_routes.get(key, _MISSING)
    if found is not _MISSING:
        return found
    live_after: Live = None if target is not None else frozenset()
    planned: List[Tuple[Transformation, Live]] = []
    for step in reversed(steps):
        planned.append((step, live_after))
        live_after = _facts(step, live_after).reads
    planned.reverse()
    made: Optional[WireRoute] = None
    if all(_inlined(step, live, k, 2, True) is not None
           for k, (step, live) in enumerate(planned)):
        made = WireRoute(source, planned, live_after, target, byte_order)
    with _wire_lock:
        while len(_wire_routes) >= WIRE_ROUTE_CACHE_MAX:
            _wire_routes.pop(next(iter(_wire_routes)))
        return _wire_routes.setdefault(key, made)


class WirePlan(NamedTuple):
    """How a route makes its handler format's wire of an event
    (:func:`plan_wire`): by its routines, or — with none, or on a
    route's first message — decoding, applying the steps and encoding
    (staged)."""

    #: the payload's format, the steps from it and the wire's format
    source: IOFormat
    steps: Tuple[Transformation, ...]
    target: IOFormat
    #: payload to target in one routine (``None``: staged)
    full: Optional[WireRoute]
    #: with no step: the payload's check, for a payload that is already
    #: the target's wire
    check: Optional[WireRoute]
    #: the last step on bytes, when it is a wire projection after other
    #: steps: its wire can be cut from its source format's wire
    cut: Optional[ProjectionCut]
    #: how that source format's wire is made
    prefix: Optional["WirePlan"]


def plan_wire(
    source: IOFormat, steps: List[Transformation], byte_order: str,
    rows: bool,
) -> WirePlan:
    """The wire plan of a route from payloads of *source* through
    *steps* (no reconcile), encoding in *byte_order*.  It has no
    routines when *rows* is false (a receiver that does not fuse) or
    the route cannot take rows (:func:`wire_route`)."""
    target = steps[-1].target if steps else source
    full = wire_route(source, steps, target, byte_order) if rows else None
    check = (wire_route(source, [], None, byte_order)
             if full is not None and not steps else None)
    cut = steps[-1].projection if len(steps) > 1 else None
    prefix = (plan_wire(source, steps[:-1], byte_order, rows)
              if cut is not None else None)
    return WirePlan(source, tuple(steps), target, full, check, cut, prefix)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_fusion(route: Any) -> Optional[FusedRoute]:
    """Build the fusion plan for a planned ``_Route``, or ``None`` when
    the route must stay staged.

    Runs the backward liveness pass here, over analyses each step keeps
    (:func:`_facts`: AST work done once per shared step, not per route);
    source emission and ``compile()`` happen per byte order, when
    :meth:`FusedRoute.fn_for` is first asked for it.
    """
    if route.is_reject or route.handler_format is None:
        return None
    transforms: List[Transformation] = (
        list(route.chain.steps) if route.chain is not None else []
    )
    walker_coercion = route.coercion
    if not transforms and walker_coercion is None:
        return None  # plain decode + dispatch: nothing to fuse
    if not all(_inlinable(step) for step in transforms):
        return None

    # backward liveness: what does each stage's consumer actually read?
    if walker_coercion is not None:
        src_fmt, dst_fmt = walker_coercion
        live_after: Live = frozenset(
            f.name
            for f in dst_fmt.fields
            if (sf := src_fmt.get_field(f.name)) is not None and f.matches(sf)
        )
    else:
        live_after = None  # the handler sees the record: everything live

    steps: List[Tuple[Transformation, Live]] = []
    for step in reversed(transforms):
        steps.append((step, live_after))
        live_after = _facts(step, live_after).reads
    steps.reverse()

    wire_live = live_after
    if wire_live is not None and wire_live >= {
        f.name for f in route.wire_format.fields
    }:
        wire_live = None  # everything live: use the plain full decode
    label = (
        f"{route.wire_format.name}.v{route.wire_format.version}"
        f"->{route.handler_format.name}.v{route.handler_format.version}"
    )
    return FusedRoute(
        wire_format=route.wire_format,
        wire_live=wire_live,
        label=label,
        steps=steps,
        walker_coercion=walker_coercion,
    )
