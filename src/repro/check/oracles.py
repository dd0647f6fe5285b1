"""Differential and fault-injection oracles.

Each oracle runs one randomized case and returns the findings it made
(empty list = the case upheld every invariant).  A finding carries a
ready-to-persist corpus entry so the runner can save it for replay.
"""

from __future__ import annotations

import copy
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.check import gen
from repro.check.corpus import entry_for_wire
from repro.check.mutate import mutate
from repro.ecode import compile_procedure, interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeError, EncodeError, ReproError
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import Transformation
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.metrics import Registry
from repro.pbio import codegen
from repro.pbio.buffer import FLAG_BIG_ENDIAN, unpack_header
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.serialization import format_to_dict


@dataclass
class Finding:
    """One invariant violation, with everything needed to reproduce it."""

    oracle: str
    detail: str
    entry: Optional[Dict[str, Any]] = None


@contextmanager
def _observed(**enable_options: Any) -> Iterator[Registry]:
    """Run a scenario with ``repro.obs`` on over a registry and a span
    recorder of its own, then hand the caller back the obs state it came
    with — every field, the sampling rate and its count included."""
    state = obs.OBS
    prior = [getattr(state, name) for name in state.__slots__]
    registry = Registry()
    state.tracer = obs.NullRecorder()  # enable() replaces it with a fresh one
    obs.enable(registry=registry, **enable_options)
    try:
        yield registry
    finally:
        was = dict(zip(state.__slots__, prior))
        registry.hand_over(was["metrics"] if was["enabled"] else None)
        for name, value in was.items():
            setattr(state, name, value)


def make_network(
    transport: str, net_seed: int, loss_rate: float, jitter: float
) -> Any:
    """Build the fault-injected fabric for a chaos scenario on the
    requested transport: ``"sim"`` (deterministic virtual clock) or
    ``"socket"`` (real UDP loopback, loss/jitter still injected in user
    space from the same seed).  Both honor the same node/timer contract,
    so the scenarios themselves do not branch."""
    link = LinkSpec(loss_rate=loss_rate, jitter=jitter)
    if transport == "sim":
        return Network(seed=net_seed, default_link=link)
    if transport == "socket":
        from repro.net.socket import SocketNetwork

        return SocketNetwork(seed=net_seed, default_link=link)
    raise ReproError(
        f"unknown transport {transport!r}; expected 'sim' or 'socket'"
    )


def _outcome(fn: Callable[[], Any]) -> "tuple[str, Any]":
    """Classify a decode attempt: ``("ok", record)``, ``("clean", exc)``
    for a ReproError, or ``("dirty", exc)`` for anything else — the
    contract violation the mutation oracle exists to catch."""
    try:
        return "ok", fn()
    except ReproError as exc:
        return "clean", exc
    except Exception as exc:  # noqa: BLE001 - the whole point
        return "dirty", exc


# ---------------------------------------------------------------------------
# Oracle 1: encode/decode round-trip, generic vs DCG-specialized
# ---------------------------------------------------------------------------


def check_roundtrip(rng: random.Random) -> List[Finding]:
    fmt = gen.random_format(rng)
    rec = gen.random_record(rng, fmt)
    order = rng.choice(["little", "big"])
    findings: List[Finding] = []

    wire = encode_record(fmt, rec, byte_order=order)
    wire_spec = codegen.make_encoder(fmt, byte_order=order)(rec)
    if wire != wire_spec:
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"generic and specialized encoders disagree for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "encoder byte divergence", wire,
                fmt_dict=format_to_dict(fmt),
                expectation="encoders_agree",
                wire_spec_hex=wire_spec.hex(),
            ),
        ))

    decoded_generic = decode_record(fmt, wire)
    decoded_spec = codegen.make_decoder(fmt)(wire)
    if not records_equal(decoded_generic, rec):
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"generic decode(encode(rec)) != rec for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "generic round-trip loss", wire,
                fmt_dict=format_to_dict(fmt), expectation="roundtrip_identity",
            ),
        ))
    if not records_equal(decoded_spec, decoded_generic):
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"specialized decode diverges from generic for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "decoder divergence", wire,
                fmt_dict=format_to_dict(fmt), expectation="decoders_agree",
            ),
        ))
    flat = _flat_part(fmt)
    if flat is not None:
        findings.extend(_check_value_roundtrip(flat, rec, order))
    return findings


def _flat_part(fmt: IOFormat) -> Optional[IOFormat]:
    """*fmt* when it is flat (:func:`~repro.pbio.codegen.is_flat`), else
    the flat format of its top-level basic non-array fields, or ``None``
    when it has none: what the value coders are checked on."""
    if codegen.is_flat(fmt):
        return fmt
    fields = [f for f in fmt.fields if f.is_basic and not f.is_array]
    if not fields:
        return None
    return IOFormat(f"{fmt.name}Flat", fields, version=fmt.version)


def _check_value_roundtrip(flat: IOFormat, rec: Any, order: str) -> List[Finding]:
    """The value coders against the interpretive ones on *rec*'s values:
    the same bytes, the same values back."""
    findings: List[Finding] = []
    names = flat.field_names()
    values = tuple(rec[name] for name in names)
    wire = encode_record(flat, dict(zip(names, values)), byte_order=order)
    kind, wire_values = _outcome(
        lambda: codegen.make_value_encoder(flat, byte_order=order)(values))
    if kind != "ok" or wire_values != wire:
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"value and generic encoders disagree for {flat.name!r}"
                   + ("" if kind == "ok" else f": {wire_values!r}"),
            entry=entry_for_wire(
                "roundtrip", "value encoder byte divergence", wire,
                fmt_dict=format_to_dict(flat), expectation="encoders_agree",
                wire_spec_hex=wire_values.hex() if kind == "ok" else "",
            ),
        ))
    kind, decoded = _outcome(lambda: codegen.make_value_decoder(flat)(wire))
    if kind != "ok" or not records_equal(
            dict(zip(names, decoded)), decode_record(flat, wire)):
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"value decode diverges from generic for {flat.name!r}",
            entry=entry_for_wire(
                "roundtrip", "value decoder divergence", wire,
                fmt_dict=format_to_dict(flat), expectation="decoders_agree",
            ),
        ))
    return findings


# ---------------------------------------------------------------------------
# Oracle 2: hostile-buffer mutation
# ---------------------------------------------------------------------------


def check_wire_hostility(
    fmt, wire: bytes, mutation: str = "direct"
) -> List[Finding]:
    """The core mutation invariant, shared with corpus replay: decoding
    *wire* against *fmt* must end cleanly on every path — interpretive,
    generated and, for a flat format, the value decoder — and each must
    agree with the interpretive one on accept vs reject (and on the
    record when accepting)."""
    findings: List[Finding] = []
    generic_kind, generic_val = _outcome(lambda: decode_record(fmt, wire))
    spec_kind, spec_val = _outcome(lambda: codegen.make_decoder(fmt)(wire))
    paths = [("generic", generic_kind, generic_val),
             ("specialized", spec_kind, spec_val)]
    if codegen.is_flat(fmt):
        # a flat format's value decoder: the same outcome, as values
        kind, val = _outcome(lambda: codegen.make_value_decoder(fmt)(wire))
        if kind == "ok":
            val = dict(zip(fmt.field_names(), val))
        paths.append(("value", kind, val))

    for path, kind, val in paths:
        if kind == "dirty":
            findings.append(Finding(
                oracle="mutation",
                detail=(
                    f"{path} decode of {mutation}-mutated {fmt.name!r} leaked "
                    f"{type(val).__name__}: {val!r}"
                ),
                entry=entry_for_wire(
                    "mutation", f"{path} leaked {type(val).__name__}", wire,
                    fmt_dict=format_to_dict(fmt), mutation=mutation,
                ),
            ))
    for path, kind, val in paths[1:]:
        if "dirty" in (generic_kind, kind):
            continue
        if kind != generic_kind:
            findings.append(Finding(
                oracle="mutation",
                detail=(
                    f"decode paths disagree on {mutation}-mutated {fmt.name!r}: "
                    f"generic={generic_kind} {path}={kind}"
                ),
                entry=entry_for_wire(
                    "mutation", "accept/reject divergence", wire,
                    fmt_dict=format_to_dict(fmt), mutation=mutation,
                    expectation="decoders_agree_on_reject",
                ),
            ))
        elif kind == "ok" and not records_equal(generic_val, val):
            findings.append(Finding(
                oracle="mutation",
                detail=f"decode paths accept {mutation}-mutated {fmt.name!r} "
                       f"but produce different records",
                entry=entry_for_wire(
                    "mutation", "accepted-record divergence", wire,
                    fmt_dict=format_to_dict(fmt), mutation=mutation,
                    expectation="decoders_agree",
                ),
            ))
    findings.extend(_check_batch_hostility(fmt, wire, mutation))
    return findings


def _check_batch_hostility(fmt, wire: bytes, mutation: str) -> List[Finding]:
    """Batch-frame half of the hostility contract: a buffer that leads
    with the BATCH1 magic must either unpack cleanly or raise a
    :class:`~repro.errors.ReproError` — and every message an accepted
    frame contains must itself survive both decode paths."""
    from repro.net.batch import is_batch, unpack_batch

    if not is_batch(wire):
        return []
    findings: List[Finding] = []
    kind, val = _outcome(lambda: unpack_batch(wire))
    if kind == "dirty":
        findings.append(Finding(
            oracle="mutation",
            detail=(
                f"batch unpack of {mutation}-mutated frame leaked "
                f"{type(val).__name__}: {val!r}"
            ),
            entry=entry_for_wire(
                "mutation", f"batch unpack leaked {type(val).__name__}",
                wire, fmt_dict=format_to_dict(fmt), mutation=mutation,
            ),
        ))
    elif kind == "ok":
        for segment in val.views(wire):
            findings.extend(check_wire_hostility(
                fmt, bytes(segment), mutation=f"{mutation}/batch-inner",
            ))
    return findings


def check_mutation(rng: random.Random, rounds: int = 4) -> "tuple[int, List[Finding]]":
    """Generate one valid message and corrupt it *rounds* times.  Returns
    ``(mutations_applied, findings)``."""
    fmt = gen.random_format(rng)
    rec = gen.random_record(rng, fmt)
    wire = encode_record(fmt, rec, byte_order=rng.choice(["little", "big"]))
    findings: List[Finding] = []
    for _ in range(rounds):
        name, corrupted = mutate(wire, rng)
        findings.extend(check_wire_hostility(fmt, corrupted, mutation=name))
    flat = _flat_part(fmt)
    if flat is None or flat is fmt:
        return rounds, findings
    # the value decoder's arm: a flat message mutated the same way
    wire = encode_record(flat, {name: rec[name] for name in flat.field_names()},
                         byte_order=rng.choice(["little", "big"]))
    for _ in range(rounds):
        name, corrupted = mutate(wire, rng)
        findings.extend(check_wire_hostility(flat, corrupted, mutation=name))
    return 2 * rounds, findings


# ---------------------------------------------------------------------------
# Oracle 3: ECode interpreter vs generated Python
# ---------------------------------------------------------------------------


def check_ecode(rng: random.Random) -> List[Finding]:
    """One case of either arm: a scalar program (operator semantics), or
    a transform between two formats run by all three engines."""
    if rng.random() < 0.5:
        source = gen.random_program(rng)
        inputs = {
            "a": rng.choice(gen._EDGE_LITERALS + [rng.randint(-10**6, 10**6)]),
            "b": rng.choice([0, 1, -1, rng.randint(-10**4, 10**4)]),
            "c": rng.randint(-100, 100),
        }
        return check_ecode_scalars(source, inputs)
    if rng.random() < 0.7:
        source_fmt, target_fmt = gen.evolved_format_pair(rng)
    else:
        source_fmt, target_fmt = rng.choice([
            (RESPONSE_V2, RESPONSE_V1),
            (RESPONSE_V1, RESPONSE_V0),
            (RESPONSE_V1, RESPONSE_V2),
        ])
    program = gen.random_transform(rng, source_fmt, target_fmt)
    record = gen.random_record(rng, source_fmt)
    return check_ecode_records(source_fmt, target_fmt, program, record)


def check_ecode_scalars(source: str, inputs: Dict[str, int]) -> List[Finding]:
    """The scalar arm, shared with corpus replay: the interpreter and the
    generated Python accept or reject *source* alike, and run on
    ``new = inputs`` to the same value or the same error class."""

    def build(factory):
        try:
            return "ok", factory(source)
        except ECodeError as exc:
            return "clean", exc
        except Exception as exc:  # noqa: BLE001
            return "dirty", exc

    compiled_kind, compiled = build(compile_procedure)
    interp_kind, interp = build(interpret_procedure)
    if compiled_kind != interp_kind or compiled_kind == "dirty":
        return [Finding(
            oracle="ecode",
            detail=(
                f"front-end divergence: compile={compiled_kind} "
                f"interpret={interp_kind}"
            ),
            entry={"kind": "ecode", "program": source,
                   "expectation": "frontends_agree"},
        )]
    if compiled_kind == "clean":
        return []  # both rejected the program — agreement

    def run(proc):
        new = Record(copy.deepcopy(inputs))
        old = Record({"a": 0, "b": 0, "c": 0})
        try:
            return "ok", (proc(new, old), dict(old))
        except ECodeError as exc:
            return "clean", exc
        except Exception as exc:  # noqa: BLE001
            return "dirty", exc

    c_kind, c_val = run(compiled)
    i_kind, i_val = run(interp)
    entry = {"kind": "ecode", "program": source, "inputs": inputs,
             "expectation": "interp_matches_codegen"}
    if "dirty" in (c_kind, i_kind):
        return [Finding(
            oracle="ecode",
            detail=f"raw exception leaked: compiled={c_kind} interp={i_kind} "
                   f"({c_val!r} / {i_val!r})",
            entry=entry,
        )]
    if c_kind != i_kind:
        return [Finding(
            oracle="ecode",
            detail=f"outcome divergence: compiled={c_kind} interp={i_kind}",
            entry=entry,
        )]
    if c_kind == "ok" and c_val != i_val:
        return [Finding(
            oracle="ecode",
            detail=f"value divergence: compiled={c_val!r} interp={i_val!r}",
            entry=entry,
        )]
    return []


def _containers(value: Any, found: Optional[Dict[int, Any]] = None) -> Dict[int, Any]:
    """Every record and array inside *value*, by identity."""
    found = {} if found is None else found
    if isinstance(value, (dict, list)):
        found[id(value)] = value
        for item in (value.values() if isinstance(value, dict) else value):
            _containers(item, found)
    return found


def check_ecode_records(
    source_fmt: IOFormat, target_fmt: IOFormat, program: str, record: Record
) -> List[Finding]:
    """The record arm, shared with corpus replay: *program* as a
    ``source_fmt -> target_fmt`` transform under the three engines — the
    compiler given both formats, the compiler given none, and the
    interpreter, which is the reference.  They must build alike, end in
    the same outcome class, return equal records and leave equal inputs
    (the original, unless the program stores through ``new``); and what
    the morph layer hands on holds no growable array and shares no
    record or array with its input."""
    spec = TransformSpec(source_fmt, target_fmt, program)
    findings: List[Finding] = []

    def flag(detail: str) -> None:
        findings.append(Finding(oracle="ecode", detail=detail, entry={
            "kind": "ecode", "arm": "record", "program": program,
            "source_format": format_to_dict(source_fmt),
            "target_format": format_to_dict(target_fmt),
            "record": record, "detail": detail,
            "expectation": "engines_agree",
        }))

    def build(use_codegen: bool, typed: bool) -> Transformation:
        xform = Transformation(spec, use_codegen)
        if not typed:
            xform.procedure = compile_procedure(program, name="untyped")
        return xform

    engines = {
        "typed": _outcome(lambda: build(True, True)),
        "untyped": _outcome(lambda: build(True, False)),
        "interpreted": _outcome(lambda: build(False, True)),
    }
    kinds = {name: kind for name, (kind, _xform) in engines.items()}
    if "dirty" in kinds.values() or len(set(kinds.values())) != 1:
        flag(f"front-end divergence: {kinds}")
        return findings
    if kinds["typed"] == "clean":
        return findings  # all three rejected the program — agreement

    mutates = any(
        line.lstrip().startswith("new.") for line in program.splitlines()
    )
    runs = {}
    for name, (_kind, xform) in engines.items():
        new = record.deepcopy()
        kind, value = _outcome(lambda: xform.apply(new))
        runs[name] = (kind, value, new)
        if kind == "dirty":
            flag(f"{name} leaked {type(value).__name__}: {value!r}")
        elif kind == "ok":
            if any(isinstance(c, AutoList) for c in _containers(value).values()):
                flag(f"{name} output still holds a growable array")
            if _containers(value).keys() & _containers(new).keys():
                flag(f"{name} output shares a record or array with its input")
        if not mutates and kind != "dirty" and not records_equal(new, record):
            flag(f"{name} changed its input without a store through new")
    ref_kind, ref_value, ref_new = runs["interpreted"]
    for name in ("typed", "untyped"):
        kind, value, new = runs[name]
        if "dirty" in (kind, ref_kind):
            continue
        if kind != ref_kind:
            flag(f"outcome divergence: {name}={kind} interpreted={ref_kind}")
        elif kind == "clean" and type(value) is not type(ref_value):
            flag(f"error class divergence: {name}={type(value).__name__} "
                 f"interpreted={type(ref_value).__name__}")
        elif kind == "ok" and not records_equal(value, ref_value):
            flag(f"output divergence: {name}={value!r} "
                 f"interpreted={ref_value!r}")
        if not records_equal(new, ref_new):
            flag(f"input divergence after the run: {name}={new!r} "
                 f"interpreted={ref_new!r}")
    return findings


# ---------------------------------------------------------------------------
# Oracle 4: fused routes vs the staged pipeline
# ---------------------------------------------------------------------------


def _received(receiver: MorphReceiver, wire: bytes, shared: Any = None):
    """Classify one message through *receiver* by the dead letter it
    leaves (:meth:`~MorphReceiver.process_alone`: no arm quarantines, so
    every wire runs the whole pipeline in every arm): ``("ok", result)``
    without one; ``("clean", "<stage> <error class>")`` for a letter
    whose ``last_error`` is a ReproError; ``("dirty", exc)`` for any
    other error — the leak containment must not hide."""
    result, letter = receiver.process_alone(wire, shared)
    if letter is None:
        return "ok", result
    if isinstance(receiver.last_error, ReproError):
        return "clean", f"{letter.stage} {type(receiver.last_error).__name__}"
    return "dirty", receiver.last_error


def check_fusion_wires(
    registry: FormatRegistry,
    handler_fmt,
    wires: List[bytes],
    entry_base: Optional[Dict[str, Any]] = None,
) -> List[Finding]:
    """The core fusion invariant, shared with corpus replay: every wire
    through a ``use_fusion=True`` receiver, a ``use_fusion=False``
    receiver and a ``use_codegen=False`` one must end in the same outcome
    class (:func:`_received`; the same dead-letter stage and error class
    when rejecting), deliver equal records, and leave equal stats
    snapshots.  Fused and staged run the same
    generated transform code; the interpreted receiver is the arm that
    shares none of it.  The ``shared`` arm is a reader at a fabric owner:
    it takes each wire through one memo (``process(wire, shared)``) in a
    queue of sibling readers — one for the wire's own format and one for
    every other format its transforms reach — and must not be able to
    tell.  A fused route runs staged on the first message of a byte
    order, so the ``fused`` arm's fused runs are counted: every wire it
    delivers through a fused route after the first of that route and
    order must have run the fused routine.  Every wire projection the
    queue ran through the memo is held to its cut (:func:`_cut_parity`)."""
    arms: Dict[str, Any] = {
        "fused": MorphReceiver(registry, use_fusion=True),
        "staged": MorphReceiver(registry, use_fusion=False),
        "interpreted": MorphReceiver(registry, use_codegen=False),
        "shared": MorphReceiver(registry),
    }
    delivered: Dict[str, List[Record]] = {name: [] for name in arms}
    for name, receiver in arms.items():
        receiver.register_handler(handler_fmt, delivered[name].append)
    siblings: Dict[int, MorphReceiver] = {}
    for wire in wires:
        try:
            fmt = arms["shared"].context.peek_format(wire)
        except ReproError:
            continue
        if fmt is not None and fmt.format_id not in siblings:
            for other in [fmt] + [
                chain[-1].target for chain in registry.transform_closure(fmt)
            ]:
                siblings[other.format_id] = MorphReceiver(registry)
                siblings[other.format_id].register_handler(other, id)
    siblings.pop(handler_fmt.format_id, None)
    queue = [arms["shared"], *siblings.values()]

    findings: List[Finding] = []

    def flag(detail: str) -> None:
        entry = dict(entry_base) if entry_base is not None else None
        if entry is not None:
            entry.setdefault("kind", "fusion")
            entry["detail"] = detail
            entry["wires_hex"] = [w.hex() for w in wires]
            entry["expectation"] = "fused_matches_staged"
        findings.append(Finding(oracle="fusion", detail=detail, entry=entry))

    fused = arms["fused"]
    #: wires the fused arm delivered, per (fused route, byte order)
    delivered_by_route: Dict[Any, int] = {}
    for index, wire in enumerate(wires):
        with _observed() as metrics:  # counts the fused arm's fused runs
            outcomes = {"fused": _received(fused, wire)}
        outcomes.update(
            (name, _received(receiver, wire))
            for name, receiver in arms.items()
            if name not in ("fused", "shared")
        )
        route = None
        if outcomes["fused"][0] == "ok":
            route = fused.route_for(fused.context.peek_format(wire))
        if route is not None and route.fused is not None:
            key = (route.fused, unpack_header(wire).flags & FLAG_BIG_ENDIAN)
            delivered_by_route[key] = delivered_by_route.get(key, 0) + 1
            ran = metrics.counter("morph.receiver.fused_messages").value
            if delivered_by_route[key] > 1 and not ran:
                flag(f"fused arm ran staged on wire {index}, valid and "
                     f"not the first of its route and byte order")
        # the arm's place in the queue moves: it fills the memo on some
        # wires and is served from it on others
        memo: Dict[Any, Record] = {}
        turn = index % len(queue)
        for receiver in queue[turn:] + queue[:turn]:
            outcome = _received(receiver, wire, memo)
            if receiver is arms["shared"]:
                outcomes["shared"] = outcome
        for receiver in queue:
            for detail in _cut_parity(receiver, wire, memo):
                flag(f"wire {index}: {detail}")
        for name, (kind, val) in outcomes.items():
            if kind == "dirty":
                flag(f"{name} path leaked {type(val).__name__} on wire "
                     f"{index}: {val!r}")
        fused_kind, fused_val = outcomes["fused"]
        for name in ("staged", "interpreted", "shared"):
            kind, val = outcomes[name]
            if "dirty" in (fused_kind, kind):
                continue
            if fused_kind != kind:
                flag(f"outcome divergence on wire {index}: "
                     f"fused={fused_kind} {name}={kind}")
            elif fused_kind == "clean" and fused_val != val:
                flag(f"dead letter divergence on wire {index}: "
                     f"fused={fused_val} {name}={val}")

    for name in ("staged", "interpreted", "shared"):
        if len(delivered["fused"]) != len(delivered[name]):
            flag(f"delivery count divergence: fused={len(delivered['fused'])} "
                 f"{name}={len(delivered[name])}")
            continue
        for index, (fused_rec, other_rec) in enumerate(
            zip(delivered["fused"], delivered[name])
        ):
            if not records_equal(fused_rec, other_rec):
                flag(f"delivered record {index} diverges between fused "
                     f"and {name} paths")
        if arms["fused"].stats.snapshot() != arms[name].stats.snapshot():
            flag(f"stats divergence: fused={arms['fused'].stats.snapshot()} "
                 f"{name}={arms[name].stats.snapshot()}")
    return findings


def _cut_parity(
    receiver: MorphReceiver, wire: bytes, memo: Dict[Any, Any]
) -> Iterator[str]:
    """cut ≡ step + encode, byte for byte and in both byte orders, for
    each step of *receiver*'s route for *wire* that is a wire projection
    and that ran through *memo*: its input's wire in an order, cut, must
    be its output's encode in that order.  A step whose input does not
    encode has no wire to cut."""
    try:
        fmt = receiver.context.peek_format(wire)
    except ReproError:
        return
    route = None if fmt is None else receiver.route_for(fmt)
    if (route is None or route.chain is None or route.pre_coercion is not None
            or "stages" not in vars(route)):
        return
    key = route.wire_format.format_id
    for stage, step, _writes in route.stages:
        record, output, key = memo.get(key), memo.get(stage), stage
        if step.projection is None or record is None or output is None:
            continue
        for order in ("little", "big"):
            try:
                source = encode_record(step.source, record, byte_order=order)
            except EncodeError:
                continue
            kind, expected = _outcome(
                lambda: encode_record(step.target, output, byte_order=order))
            cut = _outcome(lambda: step.projection.cut(source))
            if kind != "ok" or cut != ("ok", expected):
                yield (f"{order}-endian cut of {step!r} is not its output's "
                       f"encode: {cut[0]} {kind}")


def check_fusion(rng: random.Random, messages: int = 5) -> List[Finding]:
    """Generate one evolving-format scenario (an ECho transform chain, a
    writer whose retro-transform to an older revision removes fields —
    :func:`gen.random_transform` mints a wire projection there as often
    as not — or a random coercion-only pair), push a mixed valid/mutated
    wire stream through fused, staged and interpreted receivers, and
    demand exact agreement."""
    roll = rng.random()
    if roll < 0.4:
        reader_version = rng.choice(["0.0", "1.0"])
        handler_fmt = RESPONSE_V0 if reader_version == "0.0" else RESPONSE_V1
        wire_fmt = RESPONSE_V2
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        entry_base: Dict[str, Any] = {
            "kind": "fusion", "scenario": "echo",
            "reader_version": reader_version,
        }
    elif roll < 0.7:
        wire_fmt = gen.random_format(rng, depth=1, name="Evo")
        handler_fmt = gen.removed_fields(rng, wire_fmt)
        program = gen.random_transform(rng, wire_fmt, handler_fmt)
        registry = FormatRegistry()
        registry.register_transform(
            TransformSpec(wire_fmt, handler_fmt, program))
        entry_base = {
            "kind": "fusion", "scenario": "removed",
            "writer_format": format_to_dict(wire_fmt),
            "reader_format": format_to_dict(handler_fmt),
            "program": program,
        }
    else:
        wire_fmt, handler_fmt = gen.evolved_format_pair(rng)
        registry = FormatRegistry()
        registry.register(wire_fmt)
        entry_base = {
            "kind": "fusion", "scenario": "coercion",
            "writer_format": format_to_dict(wire_fmt),
            "reader_format": format_to_dict(handler_fmt),
        }

    order = rng.choice(["little", "big"])
    wires: List[bytes] = []
    for _ in range(messages):
        rec = gen.random_record(rng, wire_fmt)
        wire = encode_record(wire_fmt, rec, byte_order=order)
        if rng.random() < 0.3:
            _mutation, wire = mutate(wire, rng)
        wires.append(wire)
    return check_fusion_wires(registry, handler_fmt, wires, entry_base)


# ---------------------------------------------------------------------------
# Oracle 5: morph chains over a lossy, reordering transport
# ---------------------------------------------------------------------------


def _reference_chain(reader_version: str) -> List[Transformation]:
    """The interpreted (ablation-arm) transform chain V2 -> reader."""
    chain = [Transformation(V2_TO_V1_TRANSFORM, use_codegen=False)]
    if reader_version == "0.0":
        chain.append(Transformation(V1_TO_V0_TRANSFORM, use_codegen=False))
    return chain


def check_morph(rng: random.Random, messages: int = 6) -> List[Finding]:
    """Drive V2 ChannelOpenResponse traffic through a lossy, jittery link
    to a V0/V1 reader; verify delivered records against the interpreted
    chain and reconcile every counter (receiver stats, transport tallies,
    repro.obs counters)."""
    reader_version = rng.choice(["0.0", "1.0"])
    reader_fmt = RESPONSE_V0 if reader_version == "0.0" else RESPONSE_V1

    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1_TRANSFORM)
    registry.register_transform(V1_TO_V0_TRANSFORM)

    receiver = MorphReceiver(registry)
    delivered: List[Record] = []
    receiver.register_handler(reader_fmt, delivered.append)

    with _observed() as metrics:
        net = Network(seed=rng.randrange(2**31), default_link=LinkSpec(
            loss_rate=rng.choice([0.0, 0.2, 0.5]),
            jitter=rng.choice([0.0, 0.01]),
        ))
        net.add_node("writer")
        reader_node = net.add_node("reader")
        reader_node.set_handler(lambda _src, data: receiver.process(data))

        originals: Dict[str, Record] = {}
        for index in range(messages):
            rec = gen.random_record(rng, RESPONSE_V2)
            rec["channel_id"] = f"ch{index}"
            originals[rec["channel_id"]] = rec
            net.node("writer").send("reader", encode_record(RESPONSE_V2, rec))
        net.run()
        lost_counter = metrics.counter(
            "net.transport.lost", source="writer", destination="reader"
        ).value

    findings: List[Finding] = []

    def flag(detail: str) -> None:
        findings.append(Finding(
            oracle="morph", detail=detail,
            entry={"kind": "morph", "reader_version": reader_version,
                   "detail": detail, "expectation": "morph_invariants"},
        ))

    stats = receiver.stats
    if net.messages_sent != len(delivered) + net.lost + net.dropped:
        flag(f"conservation broken: sent={net.messages_sent} "
             f"delivered={len(delivered)} lost={net.lost} dropped={net.dropped}")
    if lost_counter != net.lost:
        flag(f"obs lost counter {lost_counter} != transport tally {net.lost}")
    if stats.messages != len(delivered):
        flag(f"receiver saw {stats.messages} messages, handler got {len(delivered)}")
    expected_misses = 1 if delivered else 0
    if stats.cache_misses != expected_misses:
        flag(f"route cache misses {stats.cache_misses} != {expected_misses} "
             f"for a single-format stream")
    if stats.cache_hits != stats.messages - expected_misses:
        flag(f"cache hits {stats.cache_hits} != messages-{expected_misses}")
    if stats.morphed != len(delivered):
        flag(f"morphed {stats.morphed} != delivered {len(delivered)}")

    chain = _reference_chain(reader_version)
    seen = set()
    for record in delivered:
        channel = record.get("channel_id")
        if channel not in originals:
            flag(f"delivered unknown channel_id {channel!r}")
            continue
        if channel in seen:
            flag(f"channel_id {channel!r} delivered twice")
            continue
        seen.add(channel)
        reference = originals[channel]
        for step in chain:
            reference = step.apply(reference)
            step.target.validate_record(reference)
        if not records_equal(record, reference):
            flag(f"morphed record for {channel!r} diverges from the "
                 f"interpreted reference chain")
    return findings


# ---------------------------------------------------------------------------
# Oracle 6: reliable delivery & format-server failover
# ---------------------------------------------------------------------------

#: A three-revision event format family with retro-transform chain
#: V2 -> V1 -> V0, mirroring the paper's Figure 1 evolution but small
#: enough for heavy fuzzing.
_EVT_V0 = IOFormat("ReliEvt", [IOField("n", "integer")], version="0.0")
_EVT_V1 = IOFormat(
    "ReliEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="1.0",
)
_EVT_V2 = IOFormat(
    "ReliEvt",
    [IOField("n", "integer"), IOField("extra", "integer"),
     IOField("flag", "integer")],
    version="2.0",
)
_EVT_V2_TO_V1 = TransformSpec(
    source=_EVT_V2, target=_EVT_V1,
    code="old.n = new.n;\nold.extra = new.extra;",
    description="ReliEvt 2.0 -> 1.0",
)
_EVT_V1_TO_V0 = TransformSpec(
    source=_EVT_V1, target=_EVT_V0,
    code="old.n = new.n;",
    description="ReliEvt 1.0 -> 0.0",
)


def _assert_exactly_once(
    flag: Callable[[str], None],
    name: str,
    got: List[int],
    messages: int,
) -> None:
    expected = set(range(messages))
    if len(got) != len(set(got)):
        dups = sorted({n for n in got if got.count(n) > 1})
        flag(f"{name} saw duplicate events {dups[:5]}")
    missing = expected - set(got)
    if missing:
        flag(f"{name} has delivery gaps: missing {sorted(missing)[:5]} "
             f"({len(missing)} of {messages})")
    extra = set(got) - expected
    if extra:
        flag(f"{name} delivered unpublished events {sorted(extra)[:5]}")


def _check_no_receive_failures(flag: Callable[[str], None], proc) -> None:
    if proc.errors:
        flag(f"{proc.address} contained {proc.errors} receive failures, "
             f"the last {proc.last_error!r}")


def _reconcile_endpoint(flag: Callable[[str], None], proc) -> None:
    """Counters of a quiesced reliable endpoint must balance: every send
    acked, none failed or fail-fast rejected, nothing in flight — and no
    received message failed (the endpoint contains such a failure, so
    the transport never counts it)."""
    _check_no_receive_failures(flag, proc)
    counters = proc.reliable.counters()
    name = proc.address
    if counters["failed"]:
        flag(f"{name} endpoint gave up on {counters['failed']} sends")
    if counters["rejected"]:
        flag(f"{name} endpoint fail-fast rejected {counters['rejected']} sends")
    if proc.reliable.in_flight:
        flag(f"{name} endpoint still has {proc.reliable.in_flight} "
             f"unacked sends after quiesce")
    if counters["sent"] != counters["acked"]:
        flag(f"{name} endpoint sent {counters['sent']} but acked "
             f"{counters['acked']}")


def check_reliability_chain(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    transport: str = "sim",
) -> List[Finding]:
    """Exactly-once across a mixed-version ECho chain: a V2 writer
    publishes over a lossy/jittery/reordering fabric to V1 and V0 sinks,
    everything on reliable endpoints; every event must arrive exactly
    once at both sinks (morphed down their revision), and every
    endpoint's counters must reconcile."""
    from repro.echo.process import EChoProcess

    findings: List[Finding] = []
    base_entry = {
        "kind": "reliability", "scenario": "chain", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "transport": transport, "expectation": "exactly_once",
    }

    def flag(detail: str) -> None:
        entry = dict(base_entry)
        entry["detail"] = detail
        findings.append(Finding(oracle="reliability", detail=detail,
                                entry=entry))

    with _observed():
        net = make_network(transport, net_seed, loss_rate, jitter)
        registry = FormatRegistry()
        registry.register_transform(_EVT_V2_TO_V1)
        registry.register_transform(_EVT_V1_TO_V0)
        creator = EChoProcess(net, "creator", registry, version="2.0")
        source = EChoProcess(net, "source", registry, version="2.0")
        sink1 = EChoProcess(net, "sink1", registry, version="1.0")
        sink0 = EChoProcess(net, "sink0", registry, version="0.0")
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        sink1.open_channel("ch", "creator", as_sink=True)
        sink0.open_channel("ch", "creator", as_sink=True)
        net.run()

        got1: List[int] = []
        got0: List[int] = []
        sink1.subscribe("ch", _EVT_V1, lambda r: got1.append(r["n"]))
        sink0.subscribe("ch", _EVT_V0, lambda r: got0.append(r["n"]))
        for n in range(messages):
            source.submit(
                "ch", _EVT_V2, _EVT_V2.make_record(n=n, extra=2 * n, flag=1)
            )
        net.run()

    if not source.channel("ch").ready:
        flag("source membership never became ready")
    _assert_exactly_once(flag, "sink1", got1, messages)
    _assert_exactly_once(flag, "sink0", got0, messages)
    for proc in (creator, source, sink1, sink0):
        _reconcile_endpoint(flag, proc)
    for sink, got in ((sink1, got1), (sink0, got0)):
        stats = sink.event_receiver("ch").stats
        if stats.messages != len(got):
            flag(f"{sink.address} receiver saw {stats.messages} messages "
                 f"but its handler got {len(got)}")
    if net.pending:
        flag(f"network did not quiesce: {net.pending} events still queued")
    if net.handler_errors:
        flag(f"{net.handler_errors} handler exceptions were contained by "
             f"the transport during a healthy-path run")
    closer = getattr(net, "close", None)
    if closer is not None:
        closer()
    return findings


def check_reliability_failover(
    net_seed: int,
    loss_rate: float,
    jitter: float,
    messages: int,
    crash_primary: bool = True,
    transport: str = "sim",
) -> List[Finding]:
    """Format-server failover: processes resolve formats through a
    primary/standby fleet; the primary crashes after the writer's
    registrations are mirrored, and the chain must still deliver every
    event exactly once by failing over to the standby."""
    from repro.echo.process import EChoProcess
    from repro.pbio.server import FormatServer

    findings: List[Finding] = []
    base_entry = {
        "kind": "reliability", "scenario": "failover", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "crash_primary": crash_primary, "transport": transport,
        "expectation": "exactly_once",
    }

    def flag(detail: str) -> None:
        entry = dict(base_entry)
        entry["detail"] = detail
        findings.append(Finding(oracle="reliability", detail=detail,
                                entry=entry))

    with _observed():
        net = make_network(transport, net_seed, loss_rate, jitter)
        big = 1_000_000  # lossy-link timeouts must not trip server breakers
        primary = FormatServer(net, "fs-a", peer="fs-b", seed=1,
                               breaker_threshold=big)
        FormatServer(net, "fs-b", seed=2, breaker_threshold=big)
        servers = ["fs-a", "fs-b"]
        options = {"request_timeout": 0.5}
        creator = EChoProcess(net, "creator", version="2.0",
                              format_servers=servers,
                              resolver_options=options)
        source = EChoProcess(net, "source", version="2.0",
                             format_servers=servers,
                             resolver_options=options)
        sink = EChoProcess(net, "sink", version="0.0",
                           format_servers=servers, resolver_options=options)
        # the writer uploads the event formats and the retro chain
        source.resolver.register(
            _EVT_V2, transforms=[_EVT_V2_TO_V1, _EVT_V1_TO_V0]
        )
        net.run()
        if crash_primary:
            primary.close()
        creator.create_channel("ch")
        source.open_channel("ch", "creator", as_source=True)
        sink.open_channel("ch", "creator", as_sink=True)
        net.run()

        got: List[int] = []
        sink.subscribe("ch", _EVT_V0, lambda r: got.append(r["n"]))
        for n in range(messages):
            source.submit(
                "ch", _EVT_V2, _EVT_V2.make_record(n=n, extra=2 * n, flag=1)
            )
        net.run()

    _assert_exactly_once(flag, "sink", got, messages)
    for proc in (creator, source, sink):
        if proc.unresolved:
            flag(f"{proc.address} dropped {proc.unresolved} messages as "
                 f"unresolvable despite a live standby")
        if proc.resolver.degraded:
            flag(f"{proc.address} resolver is degraded despite a live "
                 f"standby")
    if crash_primary and sink.resolver.stats["failovers"] == 0 \
            and sink.resolver.stats["lookups_sent"] > 0:
        flag("primary crashed but the sink resolver never failed over")
    if net.pending:
        flag(f"network did not quiesce: {net.pending} events still queued")
    closer = getattr(net, "close", None)
    if closer is not None:
        closer()
    return findings


def check_reliability(
    rng: random.Random, messages: int = 5, transport: str = "sim"
) -> List[Finding]:
    """One randomized reliability case: exactly-once over a faulty
    fabric, either a pure transport-chain scenario or a format-server
    failover scenario.  *transport* picks the fabric the deployment runs
    on — the simulated network or real UDP loopback sockets."""
    loss_rate = rng.choice([0.05, 0.1, 0.2])
    jitter = rng.choice([0.0, 0.005, 0.01])
    net_seed = rng.randrange(2**31)
    if rng.random() < 0.5:
        return check_reliability_chain(
            net_seed, loss_rate, jitter, messages, transport=transport
        )
    return check_reliability_failover(
        net_seed, loss_rate, jitter, messages,
        crash_primary=rng.random() < 0.7, transport=transport,
    )


# ---------------------------------------------------------------------------
# Oracle 7: wire-level batching parity
# ---------------------------------------------------------------------------


def check_batching_parity(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    batch_size: int, transport: str = "sim",
) -> List[Finding]:
    """Batched vs one-at-a-time differential: two identical reliable
    ECho deployments (V2 writer, V1 and V0 sinks) publish the same event
    stream over an equally faulty fabric — one via :meth:`submit`, one
    via :meth:`submit_batch` in *batch_size* chunks.  Both arms must
    deliver every event exactly once **in order**, their receiver stats
    and push counters must agree, every endpoint must reconcile, and in
    the batched arm every frame-level trace must flow unbroken into the
    deliveries it covers."""
    from repro.echo.process import EChoProcess
    from repro.obs.tracing import find_spans

    findings: List[Finding] = []
    base_entry = {
        "kind": "batching", "scenario": "parity", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "batch_size": batch_size, "transport": transport,
        "expectation": "batched_matches_single",
    }

    def flag(detail: str) -> None:
        entry = dict(base_entry)
        entry["detail"] = detail
        findings.append(Finding(oracle="batching", detail=detail,
                                entry=entry))

    def run_arm(batched: bool):
        """Stand up one deployment and push the stream; returns
        ``(source, sinks, got-lists, span-tree, network)``."""
        with _observed(sample_every=1):  # every frame traced
            net = make_network(transport, net_seed, loss_rate, jitter)
            registry = FormatRegistry()
            registry.register_transform(_EVT_V2_TO_V1)
            registry.register_transform(_EVT_V1_TO_V0)
            creator = EChoProcess(net, "creator", registry, version="2.0")
            source = EChoProcess(net, "source", registry, version="2.0")
            sink1 = EChoProcess(net, "sink1", registry, version="1.0")
            sink0 = EChoProcess(net, "sink0", registry, version="0.0")
            creator.create_channel("ch")
            source.open_channel("ch", "creator", as_source=True)
            sink1.open_channel("ch", "creator", as_sink=True)
            sink0.open_channel("ch", "creator", as_sink=True)
            net.run()

            got1: List[int] = []
            got0: List[int] = []
            sink1.subscribe("ch", _EVT_V1, lambda r: got1.append(r["n"]))
            sink0.subscribe("ch", _EVT_V0, lambda r: got0.append(r["n"]))
            stream = [
                _EVT_V2.make_record(n=n, extra=2 * n, flag=1)
                for n in range(messages)
            ]
            if batched:
                for start in range(0, messages, batch_size):
                    source.submit_batch(
                        "ch", _EVT_V2, stream[start:start + batch_size]
                    )
            else:
                for rec in stream:
                    source.submit("ch", _EVT_V2, rec)
            net.run()
            tree = obs.get_tracer().tree()
        return (creator, source, sink1, sink0), (got1, got0), tree, net

    single_procs, single_got, _tree, single_net = run_arm(batched=False)
    batch_procs, batch_got, batch_tree, batch_net = run_arm(batched=True)

    expected = list(range(messages))
    for arm, (got1, got0) in (("single", single_got), ("batched", batch_got)):
        for name, got in ((f"{arm}/sink1", got1), (f"{arm}/sink0", got0)):
            _assert_exactly_once(flag, name, got, messages)
            if sorted(got) == expected and got != expected:
                flag(f"{name} delivered out of order: {got[:8]}...")
    for (sg, bg), sink in zip(zip(single_got, batch_got), ("sink1", "sink0")):
        if sg != bg:
            flag(f"{sink} arms diverge: single={sg[:8]} batched={bg[:8]}")

    for arm, procs in (("single", single_procs), ("batched", batch_procs)):
        for proc in procs:
            _reconcile_endpoint(
                lambda d: flag(f"{arm}: {d}"), proc  # noqa: B023
            )
    single_source, batch_source = single_procs[1], batch_procs[1]
    for sink_name in ("sink1", "sink0"):
        idx = 2 if sink_name == "sink1" else 3
        s_stats = single_procs[idx].event_receiver("ch").stats
        b_stats = batch_procs[idx].event_receiver("ch").stats
        if s_stats.messages != b_stats.messages:
            flag(f"{sink_name} receiver stats diverge: "
                 f"single={s_stats.messages} batched={b_stats.messages}")

    # Trace continuity: each batched delivery must ride its frame's
    # trace — every batch-receive span carries a trace id minted by some
    # publish_batch span.
    publishes = find_spans(batch_tree, "echo.publish_batch")
    receives = find_spans(batch_tree, "echo.batch.receive")
    pub_tids = {s.get("trace_id") for s in publishes}
    if not publishes:
        flag("batched arm recorded no echo.publish_batch spans")
    for span in receives:
        tid = span.get("trace_id")
        if tid is None:
            flag("a batch-receive span lost its frame trace context")
            break
        if tid not in pub_tids:
            flag("a batch-receive span carries a trace id no "
                 "publish_batch span minted")
            break

    for arm, net in (("single", single_net), ("batched", batch_net)):
        if net.pending:
            flag(f"{arm} network did not quiesce: {net.pending} queued")
        if net.handler_errors:
            flag(f"{arm}: {net.handler_errors} handler exceptions were "
                 f"contained during a healthy-path run")
        closer = getattr(net, "close", None)
        if closer is not None:
            closer()
    return findings


def check_batching(
    rng: random.Random, messages: int = 8, transport: str = "sim"
) -> List[Finding]:
    """One randomized batching-parity case over a faulty fabric."""
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005, 0.01])
    batch_size = rng.choice([2, 3, 4, 8])
    net_seed = rng.randrange(2**31)
    return check_batching_parity(
        net_seed, loss_rate, jitter, messages, batch_size,
        transport=transport,
    )


# ---------------------------------------------------------------------------
# Oracle 8: projection push-down parity
# ---------------------------------------------------------------------------


def _check_projection_wires(rng: random.Random, rounds: int = 3) -> List[Finding]:
    """Local projection invariants plus hostile projected wires.

    A derived :class:`~repro.pbio.projection.ProjectionFormat` must
    behave exactly like a root format on every decode surface: its
    generic and specialized encoders must agree byte-for-byte, decoding
    a projected wire must equal the explicit project-then-compare
    reference (:func:`~repro.pbio.projection.project_record`), and
    corrupted projected wires must fail with clean errors on both decode
    paths — the same hostility contract the mutation oracle enforces for
    every other wire surface."""
    from repro.pbio.projection import project_format, project_record

    fmt = gen.random_format(rng)
    names = [field.name for field in fmt.fields]
    keep = rng.sample(names, rng.randrange(1, len(names) + 1))
    proj = project_format(fmt, keep, epoch=rng.randrange(1, 5))
    rec = gen.random_record(rng, fmt)
    order = rng.choice(["little", "big"])
    findings: List[Finding] = []

    wire = encode_record(proj, rec, byte_order=order)
    wire_spec = codegen.make_encoder(proj, byte_order=order)(rec)
    if wire != wire_spec:
        findings.append(Finding(
            oracle="projection",
            detail=(
                f"generic and specialized encoders disagree for projection "
                f"of {fmt.name!r} onto {sorted(keep)}"
            ),
            entry=entry_for_wire(
                "roundtrip", "projection encoder byte divergence", wire,
                fmt_dict=format_to_dict(proj), expectation="encoders_agree",
                wire_spec_hex=wire_spec.hex(),
            ),
        ))
    decoded = decode_record(proj, wire)
    reference = project_record(proj, rec)
    if not records_equal(decoded, reference):
        findings.append(Finding(
            oracle="projection",
            detail=(
                f"decode(project-encode(rec)) diverges from the explicit "
                f"project_record reference for {fmt.name!r}"
            ),
            entry=entry_for_wire(
                "roundtrip", "projection reference divergence", wire,
                fmt_dict=format_to_dict(proj),
                expectation="projection_reference",
            ),
        ))
    for _ in range(rounds):
        name, corrupted = mutate(wire, rng)
        findings.extend(check_wire_hostility(
            proj, corrupted, mutation=f"projection/{name}"
        ))
    return findings


def check_projection_pushdown(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    batch_size: int, transport: str = "sim",
) -> List[Finding]:
    """Projection-vs-full differential across subscriber churn: two
    reliable ECho deployments run the same three-phase script over an
    equally faulty fabric.  The baseline arm shares one registry (no
    format servers, so every send is full-format); the negotiated arm
    resolves through a format-server fleet, where the subscriber group's
    interest union drives selective field transmission.

    The script: a V0 sink (live set ``{n}``) subscribes alone and the
    group narrows; a V1 sink (needs ``extra``) joins mid-stream and the
    union widens; it leaves again and the union narrows back, with the
    final phase published as BATCH1 frames so projected frames are on
    the wire path.  Both arms must deliver identical
    event streams exactly once in order — morph-on-projection must equal
    morph-then-project — with one pinned, documented exception: the
    widening prime (the V1 sink's first event, which triggers its
    interest announcement) is still narrow on the wire, so its ``extra``
    arrives default-filled in the negotiated arm.  The negotiated arm
    must also actually project (every send after the first handshake)
    and every endpoint must reconcile."""
    from repro.echo.process import EChoProcess
    from repro.pbio.server import FormatServer

    findings: List[Finding] = []
    base_entry = {
        "kind": "projection", "scenario": "pushdown", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "batch_size": batch_size, "transport": transport,
        "expectation": "projection_matches_full",
    }

    def flag(detail: str) -> None:
        entry = dict(base_entry)
        entry["detail"] = detail
        findings.append(Finding(oracle="projection", detail=detail,
                                entry=entry))

    def run_arm(negotiated: bool):
        """Stand up one deployment and run the churn script; returns
        ``(procs, got-lists, projection-counters, network)``."""
        with _observed():
            net = make_network(transport, net_seed, loss_rate, jitter)
            if negotiated:
                big = 1_000_000  # lossy links must not trip server breakers
                FormatServer(net, "fs-a", peer="fs-b", seed=1,
                             breaker_threshold=big)
                FormatServer(net, "fs-b", seed=2, breaker_threshold=big)
                kw: Dict[str, Any] = {
                    "format_servers": ["fs-a", "fs-b"],
                    "resolver_options": {"request_timeout": 0.5},
                }
                creator = EChoProcess(net, "creator", version="2.0", **kw)
                source = EChoProcess(net, "source", version="2.0", **kw)
                sink0 = EChoProcess(net, "sink0", version="0.0", **kw)
                sink1 = EChoProcess(net, "sink1", version="1.0", **kw)
                source.resolver.register(
                    _EVT_V2, transforms=[_EVT_V2_TO_V1, _EVT_V1_TO_V0]
                )
            else:
                registry = FormatRegistry()
                registry.register_transform(_EVT_V2_TO_V1)
                registry.register_transform(_EVT_V1_TO_V0)
                creator = EChoProcess(net, "creator", registry, version="2.0")
                source = EChoProcess(net, "source", registry, version="2.0")
                sink0 = EChoProcess(net, "sink0", registry, version="0.0")
                sink1 = EChoProcess(net, "sink1", registry, version="1.0")
            net.run()
            creator.create_channel("ch")
            source.open_channel("ch", "creator", as_source=True)
            sink0.open_channel("ch", "creator", as_sink=True)
            net.run()

            got0: List[int] = []
            got1: List[Any] = []
            sink0.subscribe("ch", _EVT_V0, lambda r: got0.append(r["n"]))

            def publish(n: int) -> None:
                source.submit(
                    "ch", _EVT_V2,
                    _EVT_V2.make_record(n=n, extra=2 * n, flag=1),
                )

            # Phase 1 — narrow group.  The first event primes sink0's
            # interest announcement; the fence lets the narrowing
            # negotiate, and the next publish boundary promotes it.
            publish(0)
            net.run()
            for n in range(1, messages):
                publish(n)
            net.run()

            # Phase 2 — widening join.  sink1's prime event reaches it
            # still narrow (its interest is announced on first
            # delivery); the fence widens the group union.
            sink1.open_channel("ch", "creator", as_sink=True)
            net.run()
            sink1.subscribe(
                "ch", _EVT_V1,
                lambda r: got1.append((r["n"], r["extra"])),
            )
            publish(messages)
            net.run()
            for n in range(messages + 1, 2 * messages):
                publish(n)
            net.run()

            # Phase 3 — narrowing leave, published as BATCH1 frames so
            # projected frames are on the path.
            sink1.leave_channel("ch")
            net.run()
            stream = [
                _EVT_V2.make_record(n=n, extra=2 * n, flag=1)
                for n in range(2 * messages, 3 * messages)
            ]
            for start in range(0, messages, batch_size):
                source.submit_batch(
                    "ch", _EVT_V2, stream[start:start + batch_size]
                )
            net.run()

            metrics = obs.OBS.metrics
            counters = {key: metrics.counter(name).value for key, name in (
                ("projected_sends", "net.projection.messages"),
                ("bytes_saved", "net.projection.bytes_saved_est"),
                ("routes", "morph.projection.routes"),
            )}
        return (creator, source, sink0, sink1), (got0, got1), counters, net

    full_procs, full_got, full_counters, full_net = run_arm(negotiated=False)
    proj_procs, proj_got, proj_counters, proj_net = run_arm(negotiated=True)

    total = 3 * messages
    for arm, (got0, _got1) in (("full", full_got), ("negotiated", proj_got)):
        _assert_exactly_once(flag, f"{arm}/sink0", got0, total)
        if sorted(got0) == list(range(total)) and got0 != list(range(total)):
            flag(f"{arm}/sink0 delivered out of order: {got0[:8]}...")
    if full_got[0] != proj_got[0]:
        flag(f"sink0 arms diverge: full={full_got[0][:8]} "
             f"negotiated={proj_got[0][:8]}")

    expected1 = [(n, 2 * n) for n in range(messages, 2 * messages)]
    if full_got[1] != expected1:
        flag(f"full/sink1 stream wrong: {full_got[1][:8]}")
    # The negotiated arm's prime is the one pinned divergence: it left
    # the source before the union widened, so `extra` default-fills.
    expected1_proj = [(messages, 0)] + expected1[1:]
    if proj_got[1] != expected1_proj:
        flag(f"negotiated/sink1 stream wrong: got {proj_got[1][:8]}, "
             f"expected {expected1_proj[:8]}")

    # The negotiated arm must actually project: every event after the
    # full-format handshake prime rides a derived projection format.
    if proj_counters["projected_sends"] != total - 1:
        flag(f"negotiated arm projected {proj_counters['projected_sends']} "
             f"of {total - 1} expected sends")
    if proj_counters["projected_sends"] and not proj_counters["bytes_saved"]:
        flag("projection carried no estimated byte savings")
    if not proj_counters["routes"]:
        flag("no receiver ever planned a projection route")
    if full_counters["projected_sends"]:
        flag(f"full arm projected {full_counters['projected_sends']} sends "
             f"without a format-server fleet")

    for arm, procs in (("full", full_procs), ("negotiated", proj_procs)):
        for proc in procs:
            _reconcile_endpoint(
                lambda d: flag(f"{arm}: {d}"), proc  # noqa: B023
            )
    # sink1's receiver is discarded when it leaves the channel, so only
    # sink0's stats survive to compare (sink1's delivery list is already
    # pinned exactly above).
    f_stats = full_procs[2].event_receiver("ch").stats
    p_stats = proj_procs[2].event_receiver("ch").stats
    if f_stats.messages != p_stats.messages:
        flag(f"sink0 receiver stats diverge: full={f_stats.messages} "
             f"negotiated={p_stats.messages}")
    if p_stats.messages != total:
        flag(f"sink0 receiver saw {p_stats.messages} messages, "
             f"expected {total}")
    for proc in proj_procs:
        if proc.unresolved:
            flag(f"{proc.address} dropped {proc.unresolved} messages as "
                 f"unresolvable during projection churn")
        if proc.resolver.degraded:
            flag(f"{proc.address} resolver degraded during projection churn")

    for arm, net in (("full", full_net), ("negotiated", proj_net)):
        if net.pending:
            flag(f"{arm} network did not quiesce: {net.pending} queued")
        if net.handler_errors:
            flag(f"{arm}: {net.handler_errors} handler exceptions were "
                 f"contained during a healthy-path run")
        closer = getattr(net, "close", None)
        if closer is not None:
            closer()
    return findings


def check_projection(
    rng: random.Random, messages: int = 5, transport: str = "sim"
) -> List[Finding]:
    """One randomized projection case: hostile projected wires plus a
    full two-arm push-down parity scenario over a faulty fabric."""
    findings = _check_projection_wires(rng)
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005, 0.01])
    batch_size = rng.choice([2, 3, 4])
    net_seed = rng.randrange(2**31)
    findings.extend(check_projection_pushdown(
        net_seed, loss_rate, jitter, messages, batch_size,
        transport=transport,
    ))
    return findings


# ---------------------------------------------------------------------------
# Oracle 9: crash-resilience chaos (process kill, partition, ablation)
# ---------------------------------------------------------------------------


def _noop() -> None:
    """Timer body used to force virtual-clock advancement in pump()."""


def check_crash_chaos(
    net_seed: int,
    loss_rate: float,
    jitter: float,
    messages: int,
    scenario: str = "kill",
    transport: str = "sim",
    batch: int = 1,
) -> List[Finding]:
    """Worker crashes mid-stream on a journaled, lease-guarded fabric.

    Three scenarios share one deployment (3 workers, V2 publisher, V1
    and V0 subscriber clients on 4 channels, everything reliable):

    * ``kill`` — SIGKILL the owner of a hot channel mid-stream, inside
      the flush of the first receive burst the outage traffic brings it,
      before that flush runs (its admits are in the journal; not one of
      their deliveries or acks has left), let the lease checker declare
      it dead, keep publishing through the outage (client-side buffering
      + redrive), then restart and rejoin it.
    * ``partition`` — the victim keeps serving but stops renewing its
      lease (a directory partition); after expiry it is a *resurrected
      stale owner* and must be epoch-fenced out of admitting publishes.
    * ``ablation`` — the ``kill`` schedule with journaling disabled:
      the control arm.  Only weak invariants are asserted (no invented
      or double-delivered events, quiescence); event *loss* is expected
      and is the measured difference — see ``BENCH_recovery``.

    With *batch* > 1 every round publishes through ``publish_batch`` in
    frames of up to *batch* events (a channel's share of the round), so the
    crash lands on runs — journal groups, outbound frames, a redriven
    frame meeting recovered ledgers — instead of single events.

    Journaled scenarios assert the tentpole contract: exactly-once
    delivery at every sink across the crash (journal-tail re-deliveries
    are suppressed and counted by subscriber ledgers), zero client-side
    drops, full shard coverage after recovery, and quiescence."""
    from repro.fabric import EventFabric, JournalStore

    if scenario not in ("kill", "partition", "ablation"):
        raise ReproError(f"unknown crash scenario {scenario!r}")
    findings: List[Finding] = []
    base_entry = {
        "kind": "crash", "scenario": scenario, "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "transport": transport, "batch": batch,
        "expectation": "crash_exactly_once",
    }

    def flag(detail: str) -> None:
        entry = dict(base_entry)
        entry["detail"] = detail
        findings.append(Finding(oracle="crash", detail=detail, entry=entry))

    with _observed():
        net = make_network(transport, net_seed, loss_rate, jitter)
        registry = FormatRegistry()
        registry.register_transform(_EVT_V2_TO_V1)
        registry.register_transform(_EVT_V1_TO_V0)
        journal = None if scenario == "ablation" else JournalStore()
        # Short timeouts keep the crash-detection span (send-failure
        # discovery, stall skip) inside the scenario's virtual/real
        # time budget on both transports.
        reliable_options = {"base_timeout": 0.02, "max_retries": 5}
        fabric = EventFabric(
            net, registry=registry, journal=journal,
            lease_timeout=0.6,
        )
        workers = {
            address: fabric.add_worker(
                address, reliable_options=dict(reliable_options)
            )
            for address in ("w1", "w2", "w3")
        }
        pub = fabric.client("pub", reliable_options=dict(reliable_options))
        sub1 = fabric.client("sub-v1", reliable_options=dict(reliable_options))
        sub0 = fabric.client("sub-v0", reliable_options=dict(reliable_options))
        channels = [f"crash/{i}" for i in range(4)]
        got1: List[int] = []
        got0: List[int] = []
        for channel_id in channels:
            sub1.subscribe(channel_id, _EVT_V1,
                           lambda c, p, s, r: got1.append(r["n"]))
            sub0.subscribe(channel_id, _EVT_V0,
                           lambda c, p, s, r: got0.append(r["n"]))

        def pump(steps: int, step: float = 0.05) -> None:
            """Advance the deployment *steps* beats: every live worker
            heartbeats, the directory sweeps leases, and the network
            runs one *step* of (virtual or real) time.  Heartbeats are
            driven here rather than by recurring timers so the
            simulated network can still fully quiesce at the end."""
            for _ in range(steps):
                for worker in workers.values():
                    worker.heartbeat()
                fabric.directory.check_leases()
                if transport == "sim":
                    net.call_later(step, _noop)
                    net.run(max_time=net.now + step)
                else:
                    net.run_for(step)

        sent = 0

        def publish_round(count: int, only: "Optional[str]" = None) -> None:
            nonlocal sent
            frames: Dict[str, List[Any]] = {}

            def flush(channel_id: str) -> None:
                records = frames.pop(channel_id)
                if batch == 1:
                    pub.publish(channel_id, _EVT_V2, records[0])
                else:
                    pub.publish_batch(channel_id, _EVT_V2, records)

            # Event n goes to the same channel in every arm; a channel's
            # frame leaves when it holds *batch* events or the round ends.
            for _ in range(count):
                channel_id = (
                    only if only is not None
                    else channels[sent % len(channels)]
                )
                frames.setdefault(channel_id, []).append(
                    _EVT_V2.make_record(n=sent, extra=2 * sent, flag=1)
                )
                sent += 1
                if len(frames[channel_id]) >= batch:
                    flush(channel_id)
            for channel_id in list(frames):
                flush(channel_id)

        pump(4)  # let subscriptions install fleet-wide
        victim_channel = channels[0]
        victim_address = fabric.directory.owner(victim_channel)
        victim = workers[victim_address]

        def crash_in_flush() -> None:
            del victim._flush  # the restarted process flushes again
            fabric.crash_worker(victim_address)

        publish_round(messages)          # healthy traffic
        pump(2)                          # partial drain: leave in-flight work
        if scenario == "partition":
            victim.heartbeats_suspended = True
        else:
            victim._flush = crash_in_flush
        publish_round(messages, only=victim_channel)  # outage traffic
        pump(1)
        if not victim.crashed and scenario != "partition":
            # no burst reached the victim in a beat: kill it between two
            del victim._flush
            fabric.crash_worker(victim_address)
        pump(17)                         # past the lease deadline + recovery
        if victim_address in fabric.directory.workers:
            flag("lease checker never declared the victim dead")
        publish_round(messages)          # post-recovery traffic
        pump(6)
        if scenario == "partition":
            victim.heartbeats_suspended = False
        else:
            victim.restart()
        if victim_address not in fabric.directory.workers:
            fabric.directory.join(victim)  # resurrection rejoins explicitly
        pump(10)
        publish_round(messages)          # post-rejoin traffic
        pump(10)
        net.run()                        # full drain (redrives, stalls)

    expected = set(range(sent))
    if scenario == "ablation":
        # Control arm: loss is expected (that is the measured point),
        # but the fabric must never invent or double-deliver events.
        for name, got in (("sub-v1", got1), ("sub-v0", got0)):
            if len(got) != len(set(got)):
                dups = sorted({n for n in got if got.count(n) > 1})
                flag(f"{name} saw duplicate events {dups[:5]} "
                     f"without journaling")
            extra = set(got) - expected
            if extra:
                flag(f"{name} delivered unpublished events "
                     f"{sorted(extra)[:5]}")
    else:
        _assert_exactly_once(flag, "sub-v1", got1, sent)
        _assert_exactly_once(flag, "sub-v0", got0, sent)
        if pub.dropped:
            flag(f"publisher dropped {pub.dropped} buffered events "
                 f"despite a recovered fleet")
        for shard, owner_address in sorted(
            fabric.directory.assignment.items()
        ):
            owner = workers.get(owner_address)
            if owner is None:
                flag(f"shard {shard} assigned to unknown worker "
                     f"{owner_address!r}")
            elif shard not in owner.owned_shards():
                flag(f"shard {shard} assigned to {owner_address} but not "
                     f"owned after recovery settled")
        if scenario == "partition" and victim.fenced == 0:
            flag("partitioned stale owner was never epoch-fenced "
                 "despite post-expiry traffic on its channel")
    for proc in (*workers.values(), pub, sub1, sub0):
        _check_no_receive_failures(flag, proc)
    if net.pending:
        flag(f"network did not quiesce: {net.pending} events still queued")
    if net.handler_errors:
        flag(f"{net.handler_errors} handler exceptions were contained by "
             f"the transport during the crash scenario")
    closer = getattr(net, "close", None)
    if closer is not None:
        closer()
    return findings


def check_crash(
    rng: random.Random, messages: int = 6, transport: str = "sim"
) -> List[Finding]:
    """One randomized crash-chaos case.  Loss stays ≤ 0.1 so reliable
    sends to *live* peers never exhaust their retry budget — every
    failure in the scenario must come from the crash itself."""
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005])
    net_seed = rng.randrange(2**31)
    roll = rng.random()
    if roll < 0.5:
        scenario = "kill"
    elif roll < 0.75:
        scenario = "partition"
    else:
        scenario = "ablation"
    # drawn last, so every earlier draw of a seed is what it always was
    batch = rng.choice([1, 4])
    return check_crash_chaos(
        net_seed, loss_rate, jitter, messages,
        scenario=scenario, transport=transport, batch=batch,
    )
