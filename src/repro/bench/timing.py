"""Timing helpers for the figure functions of ``python -m repro.bench``:
a ``timeit``-style best-of-rounds loop with no dependency beyond the
standard library."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, List


@dataclass(frozen=True)
class Measurement:
    """Result of timing one callable."""

    best: float  # seconds per call, best round
    mean: float
    rounds: int
    number: int  # calls per round

    @property
    def best_ms(self) -> float:
        return self.best * 1e3

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3


def measure(
    fn: Callable[[], Any],
    rounds: int = 5,
    number: int = 0,
    target_round_seconds: float = 0.05,
) -> Measurement:
    """Time ``fn()`` like ``timeit``: *rounds* rounds of *number* calls,
    reporting the best and mean per-call time.

    ``number=0`` auto-calibrates so one round takes roughly
    *target_round_seconds* (keeps fast paths statistically meaningful and
    slow paths fast to measure).
    """
    if number <= 0:
        number = 1
        while True:
            start = time.perf_counter()
            for _ in range(number):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= target_round_seconds / 4 or number >= 1_000_000:
                break
            number *= 4
        number = max(1, int(number * target_round_seconds / max(elapsed, 1e-9)))
        number = min(number, 1_000_000)
    timings: List[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            timings.append((time.perf_counter() - start) / number)
    finally:
        if gc_was_enabled:
            gc.enable()
    return Measurement(
        best=min(timings),
        mean=sum(timings) / len(timings),
        rounds=rounds,
        number=number,
    )
