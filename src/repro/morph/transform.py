"""Compiled message transformations.

A :class:`~repro.pbio.registry.TransformSpec` carries ECode source; this
module turns it into an executable :class:`Transformation` by compiling
the ECode (dynamic code generation) and wiring up a *growable* output
record of the target format — ECode transforms assign into variable
arrays without explicit allocation (paper Figure 5 writes
``old.src_list[src_count].info = ...``), which
:class:`~repro.ecode.runtime.AutoList` supports by growing on demand —
and the typed back-end, told how an output array grows
(:class:`~repro.ecode.codegen.Grows`), grows inline.

Chains of transformations (Figure 1's retro-transformation ladder
Rev 2.0 → Rev 1.0 → Rev 0.0) compose into a single
:class:`TransformChain` applied per message.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ecode.codegen import SCALAR, Grows, Shape, compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeError, TransformError
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import TransformSpec

#: per format *content* (``IOFormat.content_key()`` — a wire id leaves out
#: the declared defaults a default record is made of): (factory of
#: growable default records, freeze — or None when a record of the format
#: holds no array at any depth)
_RecordEntry = Tuple[Callable[[], Record], Optional[Callable[[Record], None]]]
_record_factories: "dict[tuple, _RecordEntry]" = {}

#: Bound on the factory memo: long-running servers with churning formats
#: (``FormatRegistry.unregister`` + re-register) must not accumulate one
#: closure per format forever.  Eviction is FIFO; what needs an entry to
#: outlive eviction (a :class:`Transformation`) holds its own reference.
RECORD_FACTORY_CACHE_MAX = 1024

#: The process-wide memo :func:`build_chain` draws every step from: one
#: compiled :class:`Transformation` per distinct spec, keyed by all the
#: compiled object depends on, shared by every receiver, route and
#: subscriber group.  FIFO like the factory memo; an evicted spec
#: compiles again when next planned.
_transformations: "dict[tuple, Transformation]" = {}
TRANSFORMATION_CACHE_MAX = 256
#: bound on what one step remembers for fusion (a few entries per
#: distinct set of fields some consumer reads of its output)
STEP_FACTS_MAX = 64

#: guards both memos and the fusion facts of the steps they share
#: (re-entrant: a factory is built from its subformats' factories)
_memo_lock = threading.RLock()


def growable_record(fmt: IOFormat) -> Record:
    """A default record of *fmt* whose arrays auto-grow on indexed writes.

    Complex array elements produced by growth are themselves growable, so
    nested variable arrays work.  Factories are memoized per format: a
    flat subformat (scalars only) gets a shallow-copy prototype factory,
    which keeps per-element cost near a dict copy on the morph hot path.
    """
    return _record_factory(fmt)()


def _record_factory(fmt: IOFormat) -> Callable[[], Record]:
    return _record_entry(fmt)[0]


def _record_entry(fmt: IOFormat) -> _RecordEntry:
    """The memoised ``(factory, freeze)`` of *fmt* (see
    :data:`_RecordEntry`, :func:`_freezer`).  Builds the format's content
    key: for plan time and construction, not for a per-message path."""
    key = fmt.content_key()
    with _memo_lock:
        entry = _record_factories.get(key)
        if entry is not None:
            return entry
        while len(_record_factories) >= RECORD_FACTORY_CACHE_MAX:
            _record_factories.pop(next(iter(_record_factories)))
        prototype = _prototype(fmt)
        if prototype is not None:

            def factory() -> Record:
                rec = Record.__new__(Record)
                dict.update(rec, prototype)
                return rec

        else:
            builders = [(f.name, _field_builder(f)) for f in fmt.fields]

            def factory() -> Record:
                rec = Record.__new__(Record)
                dict.update(rec, {name: build() for name, build in builders})
                return rec

        entry = _record_factories[key] = (factory, _freezer(fmt))
        from repro.obs import OBS

        if OBS.enabled:
            OBS.metrics.gauge("morph.transform.record_factory_cache_size").set(
                len(_record_factories)
            )
        return entry


def _prototype(fmt: IOFormat) -> Optional[Dict[str, Any]]:
    """What a default record of a flat *fmt* (scalars only) holds, or
    ``None`` for any other format."""
    if all(f.is_basic and not f.is_array for f in fmt.fields):
        return {f.name: f.default_instance() for f in fmt.fields}
    return None


def _field_builder(field: IOField) -> Callable[[], Any]:
    if field.is_array:
        element_factory = _element_factory(field)
        spec = field.array
        assert spec is not None
        fixed = spec.fixed_length
        if fixed is not None:
            return lambda: AutoList(
                element_factory, [element_factory() for _ in range(fixed)]
            )
        return lambda: AutoList(element_factory)
    if field.is_complex:
        assert field.subformat is not None
        return _record_factory(field.subformat)
    value = field.default_instance()  # scalars are immutable: share one
    return lambda: value


def _element_factory(field: IOField) -> Callable[[], Any]:
    if field.is_complex:
        assert field.subformat is not None
        return _record_factory(field.subformat)
    value = field.element_default()  # scalar: immutable, share one
    return lambda: value


def _freezer(fmt: IOFormat) -> Optional[Callable[[Record], None]]:
    """What turns a transform's output of *fmt* back into plain lists
    (the growth closures should not outlive the morph), specialised by
    the format: it looks only where the format has arrays — at a flat
    record's array fields that is one ``list(v)`` each, and never a call
    per element — and leaves alone whatever does not fit the format.
    ``None`` when *fmt* has no array at any depth."""
    #: (field, is an array, freeze of the subrecord(s) or None)
    plan = []
    for field in fmt.fields:
        inner = _record_entry(field.subformat)[1] if field.is_complex else None
        if field.is_array or inner is not None:
            plan.append((field.name, field.is_array, inner))
    if not plan:
        return None

    def freeze(rec: Record) -> None:
        for name, is_array, inner in plan:
            value = rec.get(name)
            if not is_array:
                if isinstance(value, dict):
                    inner(value)
                continue
            if inner is not None and isinstance(value, list):
                for element in value:
                    if isinstance(element, dict):
                        inner(element)
            if value.__class__ is AutoList:
                dict.__setitem__(rec, name, list(value))

    return freeze


def _shape(fmt: IOFormat, output: bool = False) -> Dict[str, Shape]:
    """*fmt* as the ECode compiler wants to hear of it; an *output*
    record's (:func:`growable_record`'s) arrays of flat records say how
    they grow."""
    shape: Dict[str, Shape] = {}
    for field in fmt.fields:
        inner = _shape(field.subformat) if field.is_complex else SCALAR
        prototype = (
            _prototype(field.subformat)
            if output and field.is_array and field.is_complex else None
        )
        if prototype is not None:
            shape[field.name] = Grows(
                inner, prototype, empty=field.array.fixed_length is None
            )
        else:
            shape[field.name] = [inner] if field.is_array else inner
    return shape


def ecode_shapes(spec: TransformSpec) -> Dict[str, Shape]:
    """The shapes of a transform's ``(new, old)`` parameters."""
    return {"new": _shape(spec.source), "old": _shape(spec.target, True)}


class Transformation:
    """One compiled format-to-format conversion.

    :func:`build_chain` hands every caller in the process the same
    instance for the same spec; one constructed directly is private to
    its caller.

    Parameters
    ----------
    spec:
        The writer-supplied :class:`TransformSpec`.
    use_codegen:
        True (default) compiles the ECode to Python bytecode; False runs
        the AST interpreter — the ablation knob mirroring the paper's
        DCG-vs-interpretation distinction.

    The output is not re-checked against the target format: as in the
    paper, a transform writes straight into the reader's struct.  A
    record the target cannot hold is refused when it is next encoded
    (:class:`~repro.errors.EncodeError`); a caller that wants the check
    earlier calls ``target.validate_record``.
    """

    __slots__ = ("spec", "procedure", "use_codegen",
                 "new_output", "freeze", "_facts")

    def __init__(self, spec: TransformSpec, use_codegen: bool = True) -> None:
        self.spec = spec
        self.use_codegen = use_codegen
        name = f"{spec.source.name}_to_{spec.target.name}"
        try:
            if use_codegen:
                self.procedure = compile_procedure(
                    spec.code, ("new", "old"), name, shapes=ecode_shapes(spec)
                )
            else:
                self.procedure = interpret_procedure(spec.code, ("new", "old"), name)
        except ECodeError as exc:
            raise TransformError(
                f"transform {spec.source.name} -> {spec.target.name} failed to "
                f"compile: {exc}"
            ) from exc
        #: the target's ``(factory, freeze)``, resolved once: no lookup
        #: per message, and fused routes inline these same two
        self.new_output, self.freeze = _record_entry(spec.target)
        self._facts: Dict[Any, Any] = {}

    def fact(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()``, once per *key* for as long as this step lives:
        where whole-route fusion keeps what it derives from the step's
        program (:mod:`repro.morph.fusion` names the keys), so a shared
        step is analysed once per process, and forgotten with it."""
        with _memo_lock:
            try:
                return self._facts[key]
            except KeyError:
                pass
            while len(self._facts) >= STEP_FACTS_MAX:
                self._facts.pop(next(iter(self._facts)))
            value = self._facts[key] = compute()
            return value

    @property
    def source(self) -> IOFormat:
        return self.spec.source

    @property
    def target(self) -> IOFormat:
        return self.spec.target

    def apply(self, record: Record) -> Record:
        """Run the transform: build a growable target record, execute the
        ECode with ``(new=record, old=output)`` and freeze it."""
        output = self.new_output()
        try:
            self.procedure(record, output)
        except ECodeError as exc:
            raise TransformError(
                f"transform {self.spec.source.name} -> {self.spec.target.name} "
                f"failed at runtime: {exc}"
            ) from exc
        if self.freeze is not None:
            self.freeze(output)
        return output

    def __call__(self, record: Record) -> Record:
        return self.apply(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "compiled" if self.use_codegen else "interpreted"
        return (
            f"Transformation({self.spec.source.name} v{self.spec.source.version} "
            f"-> {self.spec.target.name} v{self.spec.target.version}, {mode})"
        )


class TransformChain:
    """A sequence of transformations applied back to back.

    ``chain.source`` is the first hop's source, ``chain.target`` the last
    hop's target; hops must be contiguous."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Transformation]) -> None:
        steps = list(steps)
        if not steps:
            raise TransformError("a transform chain needs at least one step")
        for earlier, later in zip(steps, steps[1:]):
            if earlier.target != later.source:
                raise TransformError(
                    f"chain is not contiguous: {earlier.target.name} "
                    f"v{earlier.target.version} != {later.source.name} "
                    f"v{later.source.version}"
                )
        self.steps = steps

    @property
    def source(self) -> IOFormat:
        return self.steps[0].source

    @property
    def target(self) -> IOFormat:
        return self.steps[-1].target

    def apply(self, record: Record) -> Record:
        for step in self.steps:
            record = step.apply(record)
        return record

    def __call__(self, record: Record) -> Record:
        return self.apply(record)

    def __len__(self) -> int:
        return len(self.steps)


def build_chain(
    specs: Sequence[TransformSpec], use_codegen: bool = True
) -> TransformChain:
    """Compile a spec sequence (as returned by
    :meth:`FormatRegistry.transform_closure`) into a TransformChain.

    Each step is the process's one :class:`Transformation` for its spec
    (:data:`_transformations`), compiled on first request.  A spec that
    does not compile raises :class:`TransformError` and is not
    remembered: every plan that meets it fails, and counts, itself."""
    steps = []
    for spec in specs:
        # everything the compiled object depends on: the formats by
        # content (their ids leave out the defaults an output is made of)
        key = (spec.code, spec.source.content_key(), spec.target.content_key(),
               use_codegen)
        with _memo_lock:
            step = _transformations.get(key)
            if step is None:
                step = Transformation(spec, use_codegen)
                while len(_transformations) >= TRANSFORMATION_CACHE_MAX:
                    _transformations.pop(next(iter(_transformations)))
                _transformations[key] = step
        steps.append(step)
    return TransformChain(steps)
