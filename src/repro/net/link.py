"""Link model — latency + bandwidth for the simulated network.

The paper's Table 1 discussion points out that message size "impacts
network transmission time, a significant factor in overall message
latency"; the link model lets examples and benchmarks quantify exactly
that for PBIO-encoded vs XML-encoded traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.errors import TransportError


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link.

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth:
        Bytes per second; ``0`` means infinite (no serialization delay).
    loss_rate:
        Probability in ``[0, 1]`` that a message sent over this link is
        lost in flight (fault injection; drawn from the network's seeded
        RNG so runs stay deterministic).
    jitter:
        Maximum extra random delay in seconds added per message.  A
        non-zero jitter lets later messages overtake earlier ones —
        deterministic, seeded reordering.
    """

    latency: float = 0.0001  # 100 us, a LAN-ish default
    bandwidth: float = 125_000_000.0  # 1 Gbit/s in bytes/s
    loss_rate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise TransportError("link latency must be >= 0")
        if self.bandwidth < 0:
            raise TransportError("link bandwidth must be >= 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise TransportError("link loss_rate must be in [0, 1]")
        if self.jitter < 0:
            raise TransportError("link jitter must be >= 0")

    def transmission_time(self, size: int) -> float:
        """Seconds to deliver a *size*-byte message over this link."""
        if size < 0:
            raise TransportError("message size must be >= 0")
        serialization = size / self.bandwidth if self.bandwidth else 0.0
        return self.latency + serialization

    def draw(
        self, size: int, rng: random.Random, start: float = 0.0
    ) -> Tuple[float, bool]:
        """One message's fate — the fault model of both transports:
        ``(arrival, lost)``, the arrival counted from *start* (a clock
        reading; 0 gives a delay).  *rng* is drawn from for jitter, then
        for loss, only by a link that has them, and the sum keeps this
        order: seeded schedules depend on both to the bit."""
        arrival = start + self.transmission_time(size)
        if self.jitter:
            arrival += rng.uniform(0.0, self.jitter)
        lost = bool(self.loss_rate) and rng.random() < self.loss_rate
        return arrival, lost

#: Handy presets used by examples and benchmarks.
GIGABIT_LAN = LinkSpec(latency=0.0001, bandwidth=125_000_000.0)
FAST_ETHERNET = LinkSpec(latency=0.0005, bandwidth=12_500_000.0)
WIRELESS_11MBPS = LinkSpec(latency=0.002, bandwidth=1_375_000.0)
WAN = LinkSpec(latency=0.040, bandwidth=1_250_000.0)
