"""Wire-level trace-context block tests (ISSUE 5 tentpole).

Covers the layout contract: the 26-byte block sits between the PBIO
header and the payload behind ``FLAG_TRACE``; every decoder slices the
payload by ``header.body_offset``; and — the acceptance-critical
property — a message encoded with tracing disabled is **byte-identical**
to one from a build that never heard of tracing.
"""

import pytest

from repro import obs
from repro.errors import DecodeError, EncodeError
from repro.obs.tracectx import TRACE_BLOCK_SIZE, TraceContext, make_context
from repro.pbio.buffer import (
    FLAG_TRACE,
    HEADER_SIZE,
    attach_trace,
    pack_header,
    peek_trace,
    strip_trace,
    unpack_header,
)
from repro.pbio.context import PBIOContext
from repro.pbio.decode import decode_record
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

FMT = IOFormat(
    "TraceWire",
    [IOField("n", "integer"), IOField("label", "string")],
    version="1",
)

CTX = TraceContext(trace_id=0x1122334455667788_99AABBCCDDEEFF00,
                   span_id=0xDEADBEEFCAFEF00D)


def _encode(use_codegen: bool) -> bytes:
    registry = FormatRegistry()
    context = PBIOContext(registry, use_codegen=use_codegen)
    return context.encode(FMT, FMT.make_record(n=7, label="hello"))


class TestAttachStripPeek:
    def test_attach_sets_flag_and_inserts_block(self):
        wire = _encode(use_codegen=False)
        traced = attach_trace(wire, CTX)
        assert len(traced) == len(wire) + TRACE_BLOCK_SIZE
        header = unpack_header(traced)
        assert header.flags & FLAG_TRACE
        assert header.trace == CTX
        assert header.body_offset == HEADER_SIZE + TRACE_BLOCK_SIZE
        # payload bytes are untouched, just shifted
        assert traced[header.body_offset:] == wire[HEADER_SIZE:]

    def test_strip_restores_original_bytes(self):
        wire = _encode(use_codegen=False)
        stripped, ctx = strip_trace(attach_trace(wire, CTX))
        assert stripped == wire
        assert ctx == CTX

    def test_strip_untraced_is_identity(self):
        wire = _encode(use_codegen=False)
        stripped, ctx = strip_trace(wire)
        assert stripped == wire
        assert ctx is None

    def test_peek_traced_and_untraced(self):
        wire = _encode(use_codegen=False)
        assert peek_trace(wire) is None
        assert peek_trace(attach_trace(wire, CTX)) == CTX

    def test_peek_never_raises_on_garbage(self):
        assert peek_trace(b"") is None
        assert peek_trace(b"\x00" * 100) is None
        assert peek_trace(b"RLP1" + b"\xff" * 60) is None

    def test_peek_at_offset(self):
        wire = attach_trace(_encode(use_codegen=False), CTX)
        framed = b"\x00" * 13 + wire
        assert peek_trace(framed, 13) == CTX

    def test_double_attach_rejected(self):
        traced = attach_trace(_encode(use_codegen=False), CTX)
        with pytest.raises(EncodeError, match="already carries"):
            attach_trace(traced, CTX)

    def test_attach_to_truncated_rejected(self):
        with pytest.raises(EncodeError):
            attach_trace(b"\x00" * 4, CTX)


class TestDecodeWithTraceBlock:
    @pytest.mark.parametrize("use_codegen", [False, True])
    def test_traced_wire_decodes_identically(self, use_codegen):
        registry = FormatRegistry()
        context = PBIOContext(registry, use_codegen=use_codegen)
        wire = context.encode(FMT, FMT.make_record(n=41, label="zz"))
        plain = context.decode_as(FMT, wire)
        traced = context.decode_as(FMT, attach_trace(wire, CTX))
        assert traced == plain

    def test_generic_decode_record_uses_body_offset(self):
        wire = attach_trace(_encode(use_codegen=False), CTX)
        record = decode_record(FMT, wire)
        assert record["n"] == 7
        assert record["label"] == "hello"

    def test_corrupt_block_version_is_decode_error(self):
        wire = bytearray(attach_trace(_encode(use_codegen=False), CTX))
        wire[HEADER_SIZE] = 99  # block version byte
        with pytest.raises(DecodeError, match="trace-context version"):
            unpack_header(bytes(wire))

    def test_flag_without_block_is_decode_error(self):
        # a fuzz mutation can flip FLAG_TRACE on an untraced message:
        # both decode paths must agree it is malformed
        wire = bytearray(pack_header(FMT.format_id, 0))
        wire[5] |= FLAG_TRACE
        with pytest.raises(DecodeError):
            unpack_header(bytes(wire))


class TestByteIdenticalWhenDisabled:
    def test_encode_is_byte_identical_with_tracing_machinery_disabled(self):
        """The acceptance property: with tracing disabled the wire
        carries zero extra bytes — encode output is byte-identical
        whether or not observability was ever enabled in the process."""
        baseline = _encode(use_codegen=False)
        obs.enable()
        obs.disable(reset=True)
        assert _encode(use_codegen=False) == baseline
        assert _encode(use_codegen=True) == baseline

    def test_untraced_submit_produces_untraced_wire(self):
        """With tracing disabled, EChoProcess.submit sets no trace flag
        anywhere in the datagram."""
        from repro.echo.process import EChoProcess
        from repro.net.transport import Network

        registry = FormatRegistry()
        registry.register(FMT)
        net = Network()
        a = EChoProcess(net, "A", registry)
        b = EChoProcess(net, "B", registry)
        a.create_channel("ch")
        b.open_channel("ch", "A", as_sink=True)
        net.run()
        captured = []
        # the reliable layer hands up each datagram without its framing
        b.reliable.set_handler(lambda src, data: captured.append(data))
        a.submit("ch", FMT, FMT.make_record(n=1, label="x"))
        net.run()
        assert captured
        for datagram in captured:
            header = unpack_header(datagram)
            assert not header.flags & FLAG_TRACE
            assert header.trace is None
            assert header.body_offset == HEADER_SIZE
