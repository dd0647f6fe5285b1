"""Value coders: a flat format's message coded from and to the tuple of
its field values (``PBIOContext.encode_values`` / ``decode_values``),
held to the record coders — the same bytes, the same accept / refuse —
and the register-on-first-sight rule of ``PBIOContext.encode``."""

import random

import pytest

from repro.check import gen
from repro.check.mutate import mutate
from repro.echo.protocol import EVENT_ENVELOPE, RESPONSE_V2
from repro.errors import DecodeError, EncodeError, FormatError
from repro.fabric.protocol import FABRIC_DELIVER, FABRIC_PUBLISH
from repro.pbio.buffer import unpack_header
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

ENVELOPES = (FABRIC_PUBLISH, FABRIC_DELIVER, EVENT_ENVELOPE)

#: every kind a flat format holds, at the edges of its range
EDGES = IOFormat("Edges", [
    IOField("s", "string"),
    IOField("u64", "unsigned", 8),
    IOField("u32", "unsigned", 4),
    IOField("i8", "integer", 1),
    IOField("f", "float", 8),
    IOField("b", "boolean"),
    IOField("c", "char"),
    IOField("t", "string"),
], version="1.0")

EDGE_VALUES = [
    ("", 0, 0, -128, 0.0, False, "a", ""),
    ("çanal/ü 日本", 2 ** 64 - 1, 2 ** 32 - 1, 127, -1.5, True, "\xff", "x"),
    ("\U0001f600", 1, 2 ** 31, 0, 1e300, True, "z", "q\"uote"),
]


def values_of(rng, fmt):
    rec = gen.random_record(rng, fmt)
    return tuple(rec[name] for name in fmt.field_names())


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared by class and text
        return "raised", (type(exc), str(exc))


class TestSameBytes:
    """The value coder's bytes are ``PBIOContext.encode`` of the record
    the values make, in both byte orders, on first use (interpretive)
    and after (generated)."""

    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @pytest.mark.parametrize("values", EDGE_VALUES)
    def test_edges(self, byte_order, values):
        record = EDGES.make_record(**dict(zip(EDGES.field_names(), values)))
        expected = PBIOContext(byte_order=byte_order).encode(EDGES, record)
        ctx = PBIOContext(byte_order=byte_order)
        for _use in range(3):
            assert ctx.encode_values(EDGES, values) == expected
            assert ctx.decode_values(EDGES, expected) == values
        assert ctx.generated_encoder_count == ctx.generated_decoder_count == 1

    @pytest.mark.parametrize("byte_order", ["little", "big"])
    def test_envelopes_over_seeded_values(self, byte_order):
        rng = random.Random(5)
        ctx = PBIOContext(byte_order=byte_order)
        for _ in range(200):
            fmt = rng.choice(ENVELOPES)
            values = values_of(rng, fmt)
            record = fmt.make_record(**dict(zip(fmt.field_names(), values)))
            wire = ctx.encode_values(fmt, values)
            assert wire == PBIOContext(byte_order=byte_order).encode(
                fmt, record)
            assert ctx.decode_values(fmt, wire) == values
            assert ctx.decode_values(fmt, wire, unpack_header(wire)) == values

    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @pytest.mark.parametrize("bad", [
        {"u64": 2 ** 64}, {"u64": -1}, {"u32": 2 ** 32}, {"i8": 128},
        {"s": 5}, {"c": "ab"}, {"t": "\ud800"},
    ])
    def test_out_of_range_values_are_refused_alike(self, byte_order, bad):
        names = EDGES.field_names()
        values = tuple(bad.get(name, value)
                       for name, value in zip(names, EDGE_VALUES[1]))
        record = dict(zip(names, values))
        ctx = PBIOContext(byte_order=byte_order)
        for _use in range(3):  # first use, generation, generated
            with pytest.raises(EncodeError):
                ctx.encode(EDGES, record)
            with pytest.raises(EncodeError):
                ctx.encode_values(EDGES, values)

    def test_a_format_with_arrays_has_no_value_coder(self):
        ctx = PBIOContext()
        for _use in range(3):
            with pytest.raises(FormatError, match="no value coder"):
                ctx.encode_values(RESPONSE_V2, ("x",))
            with pytest.raises(FormatError, match="no value coder"):
                ctx.decode_values(RESPONSE_V2, b"")


class TestSameRefusals:
    """On the ``mutation`` oracle's hostile wires, a value decode
    accepts what ``decode_as`` accepts — the same values — and refuses
    what it refuses with the same error, at every use."""

    def test_mutated_envelopes(self):
        rng = random.Random(11)
        refused = accepted = 0
        for _ in range(150):
            fmt = rng.choice(ENVELOPES)
            order = rng.choice(["little", "big"])
            wire = PBIOContext(byte_order=order).encode_values(
                fmt, values_of(rng, fmt))
            values_ctx, record_ctx = PBIOContext(), PBIOContext()
            for mutated in [wire] + [mutate(wire, rng)[1] for _ in range(4)]:
                for _use in range(2):
                    got = outcome(lambda: values_ctx.decode_values(fmt, mutated))
                    want = outcome(lambda: record_ctx.decode_as(fmt, mutated))
                    if want[0] == "ok":
                        want = "ok", tuple(want[1].values())
                        accepted += 1
                    else:
                        refused += 1
                    assert got == want, (fmt.name, mutated.hex())
        assert accepted and refused

    def test_a_header_of_another_message_is_refused_alike(self):
        ctx = PBIOContext()
        wire = ctx.encode_values(FABRIC_DELIVER, ("c", "p", 1))
        longer = ctx.encode_values(FABRIC_DELIVER, ("channel", "p", 1))
        traced = bytearray(wire)
        traced[5] = 1  # flags: another byte order
        for data, header in ((wire, unpack_header(longer)),
                             (bytes(traced), unpack_header(wire))):
            for _use in range(2):
                got = outcome(
                    lambda: ctx.decode_values(FABRIC_DELIVER, data, header))
                want = outcome(
                    lambda: ctx.decode_as(FABRIC_DELIVER, data, header))
                assert got[0] == "raised" and got == want
                assert got[1][0] is DecodeError


class TestRegisteredOnFirstSight:
    """``PBIOContext.encode`` registers a format on the context's first
    sight of it, not per encode — and still refuses a different format
    whose id collides with one it knows, whenever that format comes."""

    @staticmethod
    def forged():
        forged = IOFormat(FABRIC_DELIVER.name, [IOField("x", "integer")],
                          version="1.0")
        forged._format_id = FABRIC_DELIVER.format_id
        return forged

    def test_register_runs_on_first_sight_only(self, monkeypatch):
        calls = []
        register = FormatRegistry.register
        monkeypatch.setattr(
            FormatRegistry, "register",
            lambda registry, fmt: calls.append(fmt) or register(registry, fmt))
        ctx = PBIOContext()
        for _ in range(5):
            ctx.encode(FABRIC_DELIVER, FABRIC_DELIVER.make_record(
                channel_id="c", publisher="p", seq=1))
            ctx.encode_values(FABRIC_PUBLISH, ("c", "p", 1, 2))
        # the first use and the one that generates the coder
        assert calls == [FABRIC_DELIVER, FABRIC_PUBLISH] * 2
        assert FABRIC_DELIVER in ctx.registry and FABRIC_PUBLISH in ctx.registry

    @pytest.mark.parametrize("uses", [0, 1, 2, 3])
    @pytest.mark.parametrize("path", ["record", "values"])
    def test_a_colliding_id_is_refused_on_its_first_encode(self, uses, path):
        ctx = PBIOContext()
        ctx.registry.register(FABRIC_DELIVER)
        for _ in range(uses):  # none, first use, generation, generated
            if path == "record":
                ctx.encode(FABRIC_DELIVER, FABRIC_DELIVER.make_record(
                    channel_id="c", publisher="p", seq=1))
            else:
                ctx.encode_values(FABRIC_DELIVER, ("c", "p", 1))
        forged = self.forged()
        with pytest.raises(FormatError, match="collision"):
            if path == "record":
                ctx.encode(forged, {"x": 1})
            else:
                ctx.encode_values(forged, (1,))
        assert ctx.registry.lookup_id(FABRIC_DELIVER.format_id) is FABRIC_DELIVER

    def test_an_equal_format_object_uses_the_same_coder(self):
        copy = IOFormat(FABRIC_PUBLISH.name, list(FABRIC_PUBLISH.fields),
                        version=FABRIC_PUBLISH.version)
        assert copy is not FABRIC_PUBLISH and copy == FABRIC_PUBLISH
        ctx = PBIOContext()
        values = ("c", "p", 1, 2)
        wires = {ctx.encode_values(fmt, values)
                 for fmt in (FABRIC_PUBLISH, copy) * 3}
        assert len(wires) == 1
        assert ctx.generated_encoder_count == 1
