"""Dynamically-generated service functionality (Service Morphing hooks).

The paper's conclusion points at Service Morphing [25]: meeting run-time
variation "using dynamically-adapting services and dynamically-generated
added functionality".  This module supplies the mechanism on top of the
morphing stack: *handlers themselves* can be ECode, compiled at runtime
and hot-swapped while messages flow.

An :class:`ECodeHandler` is registered with a
:class:`~repro.morph.receiver.MorphReceiver` like any Python handler.  It
runs the current ECode with ``(input, reply)`` — the delivered record and
a growable record of the declared reply format — and returns the reply.
:meth:`ECodeHandler.swap` replaces the behaviour atomically between
messages: the next delivery runs the new code, no restart, no
re-registration (the paper's "no need to modify or restart an
application" extended from formats to behaviour).
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from repro.ecode.codegen import compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.errors import ECodeError, TransformError
from repro.morph.transform import _record_factory
from repro.pbio.format import IOFormat
from repro.pbio.record import Record


class ECodeHandler:
    """A message handler whose behaviour is runtime-compiled ECode.

    Parameters
    ----------
    reply_format:
        Format of the record the handler produces (bound as ``reply``).
        ``None`` for pure side-effect handlers (bound ``reply`` is an
        empty record; the handler's return value is the ECode ``return``
        value instead).
    code:
        Initial ECode source with parameters ``(input, reply)``.
    use_codegen:
        False selects the AST interpreter (ablation parity with the rest
        of the stack).
    """

    def __init__(
        self,
        code: str,
        reply_format: Optional[IOFormat] = None,
        use_codegen: bool = True,
    ) -> None:
        self.reply_format = reply_format
        #: resolved once: the memo is keyed by the format's content, which
        #: is not something to rebuild per message
        self._new_reply = (
            Record if reply_format is None else _record_factory(reply_format)
        )
        self.use_codegen = use_codegen
        self._lock = threading.Lock()
        self._procedure = self._compile(code)
        self._code = code
        self.generation = 1
        self.invocations = 0
        #: (generation, record) history of swap events for observability
        self.swap_log: List[Tuple[int, str]] = []

    def _compile(self, code: str):
        try:
            if self.use_codegen:
                return compile_procedure(code, ("input", "reply"), "handler")
            return interpret_procedure(code, ("input", "reply"), "handler")
        except ECodeError as exc:
            raise TransformError(f"handler code does not compile: {exc}") from exc

    # ------------------------------------------------------------------
    # Behaviour management
    # ------------------------------------------------------------------

    @property
    def code(self) -> str:
        return self._code

    def swap(self, code: str) -> int:
        """Replace the handler's behaviour.  The new code is compiled
        *before* the old one is retired, so a bad swap leaves the running
        behaviour untouched.  Returns the new generation number."""
        procedure = self._compile(code)
        with self._lock:
            self._procedure = procedure
            self._code = code
            self.generation += 1
            self.swap_log.append((self.generation, code))
            return self.generation

    # ------------------------------------------------------------------
    # Invocation (the MorphReceiver handler protocol)
    # ------------------------------------------------------------------

    def __call__(self, record: Record) -> Any:
        with self._lock:
            procedure = self._procedure
        self.invocations += 1
        reply = self._new_reply()
        try:
            result = procedure(record, reply)
        except ECodeError as exc:
            raise TransformError(f"handler failed at runtime: {exc}") from exc
        if self.reply_format is not None:
            return reply
        return result
