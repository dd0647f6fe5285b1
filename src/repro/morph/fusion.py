"""Whole-route fusion — one generated function per cached route.

The staged receiver pipeline decodes a full :class:`Record`, walks the
:class:`TransformChain` one compiled step at a time (materializing and
freezing an intermediate record per hop), then runs reconciliation as yet
another pass.  This module extends the paper's dynamic-code-generation
idea from single conversions to the *complete* retro-transformation
chain: the decode fragment, every transform body and the reconcile
logic are emitted into a single specialized Python function and
compiled once — planned with the route, compiled when the route carries
its second message of a byte order.

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

The staged path remains both the ablation baseline and the runtime
fallback: :func:`plan_fusion` returns ``None`` whenever a route uses a
feature fusion does not support (interpreter procedures, ``return``
inside a transform, output validation, parameter shadowing), and a
compile failure downgrades the route to staged execution instead of
failing the receiver.  Error *classes* and counter effects match the
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
from repro.ecode.codegen import ECODE_ESCAPES, generate_inline, runtime_namespace
from repro.errors import DecodeError, ECodeError, TransformError
from repro.morph.compat import _coerce_field
from repro.morph.transform import Transformation, ecode_shapes
from repro.pbio.codegen import _Emitter, _gen_decode_format, _StructTable
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, trusted_record


def _make_fail(label: str) -> Callable[[BaseException], None]:
    def _fail(exc: BaseException) -> None:
        raise TransformError(
            f"fused route {label} failed at runtime in its chain stage: {exc!r}"
        ) from exc

    return _fail


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
    if step.validate_output:
        return False
    return step.fact(
        "inlinable",
        lambda: not analyze.has_return(step.procedure.program)
        # shadowed parameters defeat the rename map
        and not {"new", "old"} & _facts(step, None).declared,
    )


def _inlined(step: Transformation, live: Live, k: int, indent: int) -> List[str]:
    """*step*'s body as the *k*-th of a fused chain: ``_r{k}`` in,
    ``_r{k+1}`` out, its locals prefixed so steps cannot collide."""

    def generate() -> List[str]:
        facts = _facts(step, live)
        rename = {"new": f"_r{k}", "old": f"_r{k + 1}"}
        for local in facts.declared:
            rename[local] = f"_s{k}_{local}"
        return generate_inline(
            facts.program, rename, indent, ecode_shapes(step.spec)
        )

    return step.fact(("inlined", live, k, indent), generate)


#: what ``FusedRoute._fns`` holds for a byte order the route has carried
#: one message of: the next one compiles
_SEEN_ONCE: Any = object()

#: a fused routine: ``(data, body offset, end) -> (record, consumed offset)``
FusedFn = Callable[[bytes, int, int], Tuple[Record, int]]


class FusedRoute:
    """The compiled form of one receiver route.

    Function objects are generated lazily per byte order
    (receiver-makes-right: most receivers only ever see their native
    order), on the order's *second* message: the first runs the staged
    path, which costs a fraction of a ``compile()`` and is all a format
    sent once ever needs.  A compile failure marks the order as fallen
    back — the receiver keeps using the staged path for it.
    """

    __slots__ = (
        "wire_format",
        "wire_live",
        "label",
        "_steps",
        "_walker_coercion",
        "_fns",
        "_lock",
    )

    def __init__(
        self,
        wire_format: IOFormat,
        wire_live: Live,
        label: str,
        steps: List[Tuple[Transformation, Live]],
        walker_coercion: Optional[Tuple[IOFormat, IOFormat]],
    ) -> None:
        self.wire_format = wire_format
        self.wire_live = wire_live
        self.label = label
        self._steps = steps
        self._walker_coercion = walker_coercion
        #: per byte order: the compiled routine, ``None`` when the compile
        #: failed, or ``_SEEN_ONCE``
        self._fns: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def fn_for(self, order: str) -> Optional[FusedFn]:
        """The fused routine for payloads in *order* (``"<"``/``">"``),
        compiled on the order's second message; ``None`` — run the staged
        path — on its first, and for good when compilation failed.  The
        routine returns ``(record, consumed_offset)`` — the offset lets
        batch receivers walk successive records through one shared
        buffer."""
        try:
            fn = self._fns[order]
        except KeyError:
            self._fns.setdefault(order, _SEEN_ONCE)
            return None
        if fn is _SEEN_ONCE:
            with self._lock:
                if self._fns[order] is _SEEN_ONCE:
                    self._fns[order] = self._compile(order)
                fn = self._fns[order]
        return fn

    def source(self, order: str = "<") -> str:
        """The generated Python source for *order* (audited by tests):
        emitted again on request — emission is deterministic — so that a
        route does not hold its text for life."""
        return self._emit(order)[0]

    # ------------------------------------------------------------------

    def _compile(self, order: str) -> Optional[FusedFn]:
        from repro.obs import OBS

        try:
            source, namespace = self._emit(order)
            code = compile(source, f"<fused-route:{self.label}:{order}>", "exec")
            exec(code, namespace)
            fn = namespace["_fused_route"]
        except Exception:
            return None
        if OBS.enabled:
            OBS.metrics.counter("morph.fusion.compiles").inc()
        return fn

    def _emit(self, order: str) -> Tuple[str, Dict[str, Any]]:
        em = _Emitter()
        structs = _StructTable(order)
        namespace = runtime_namespace()
        namespace.update({
            "_S": structs,
            "_U32": struct.Struct(order + "I"),
            "_mk": trusted_record,
            "_DecodeError": DecodeError,
            "_struct_error": struct.error,
            "_ECodeError": ECodeError,
            "_ecode_escapes": ECODE_ESCAPES,
            "_Record": Record,
        })

        em.emit("def _fused_route(data, off, end):")
        em.indent += 1
        em.emit(f'"""Fused route for {self.label} (payload order {order!r})."""')

        # -- decode (dead fields skipped) ------------------------------
        em.emit("try:")
        em.indent += 1
        _gen_decode_format(
            em, self.wire_format, structs, "data", "end", "_r0",
            live=self.wire_live,
        )
        em.emit("if off != end:")
        em.indent += 1
        em.emit(
            "raise _DecodeError('%d trailing bytes after decoding format "
            f"{self.wire_format.name}' % (end - off,))"
        )
        em.indent -= 2
        em.emit("except _struct_error as exc:")
        em.indent += 1
        em.emit(
            f"raise _DecodeError('truncated message for {self.wire_format.name}:"
            " %s' % (exc,)) from None"
        )
        em.indent -= 1
        em.emit("except UnicodeDecodeError as exc:")
        em.indent += 1
        em.emit(
            "raise _DecodeError('invalid UTF-8 in string field of "
            f"{self.wire_format.name}: %s' % (exc,)) from None"
        )
        em.indent -= 1
        em.emit("except (IndexError, KeyError, MemoryError, OverflowError) as exc:")
        em.indent += 1
        em.emit(
            f"raise _DecodeError('corrupt message for {self.wire_format.name}:"
            " %r' % (exc,)) from None"
        )
        em.indent -= 1

        # -- inlined transform chain -----------------------------------
        result = "_r0"
        if self._steps:
            result = self._emit_steps(em, namespace)

        # -- structural reconcile (total: no try region needed) --------
        if self._walker_coercion is not None:
            result = self._emit_walker(em, namespace, result)

        # consumed length rides along so batch receivers decoding
        # successive records from one shared buffer can advance a cursor
        em.emit(f"return {result}, off")
        return em.source(), namespace

    def _emit_steps(self, em: _Emitter, namespace: Dict[str, Any]) -> str:
        """Inline the transform chain inside one try region whose
        failures all surface as :class:`TransformError`, like a staged
        step's."""
        namespace["_chain_fail"] = _make_fail(self.label)
        em.emit("try:")
        em.indent += 1
        for k, (step, live) in enumerate(self._steps):
            out = f"_r{k + 1}"
            namespace[f"_gr{k}"] = step.new_output
            em.emit(f"{out} = _gr{k}()")
            em.lines.extend(_inlined(step, live, k, em.indent))
            if step.freeze is not None:
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
        return f"_r{len(self._steps)}"

    def _emit_walker(
        self, em: _Emitter, namespace: Dict[str, Any], rec: str
    ) -> str:
        """Inline :func:`repro.morph.compat.coerce_record` for this
        route's fixed ``(src, dst)`` pair: per-field copy/default
        decisions are taken at compile time, the per-value coercions stay
        the exact same (total) helpers the walker uses."""
        src_fmt, dst_fmt = self._walker_coercion  # type: ignore[misc]
        em.emit("_out = _Record()")
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


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_fusion(route: Any) -> Optional[FusedRoute]:
    """Build the fusion plan for a freshly planned ``_Route``, or ``None``
    when the route must stay staged.

    Runs the backward liveness pass here, over analyses each step keeps
    (:func:`_facts`: AST work done once per shared step, not per route);
    source emission and ``compile()`` happen lazily per byte order, on
    its second message, in :meth:`FusedRoute.fn_for`.
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
