"""The process-wide observability switchboard.

A leaf module: :mod:`repro.obs.metrics` reads the singleton (held
histograms re-resolve when ``OBS.metrics`` changes), and
:mod:`repro.obs` — which imports it — fills it in.
"""

from __future__ import annotations

from typing import Any


class ObsState:
    """Instrumented call sites read four attributes:

    ``enabled``
        The master flag.  Hot paths check it before doing any work, so a
        disabled system pays one attribute load and a branch per site.
    ``metrics``
        The active :class:`~repro.obs.metrics.Registry`.  Always present
        (so cold paths may record unconditionally if they want to), but
        conventionally only written when ``enabled``.
    ``tracer``
        A :class:`~repro.obs.tracing.SpanRecorder` when enabled,
        :class:`~repro.obs.tracing.NullRecorder` otherwise.
    ``sample_every``
        The head-sampling rate N set by :func:`repro.obs.enable`: one of
        every N messages is minted a trace context
        (:func:`repro.obs.tracectx.mint`, which keeps its count in
        ``minted``) and only that one is traced and timed; 1 samples all.
    """

    __slots__ = ("enabled", "metrics", "tracer", "sample_every", "minted")

    def __init__(self) -> None:
        self.enabled = False
        self.sample_every = 1
        self.minted = 0
        # repro.obs installs a Registry and a NullRecorder on import
        self.metrics: Any = None
        self.tracer: Any = None


#: The singleton instrumented modules import (as ``repro.obs.OBS``).
OBS = ObsState()
