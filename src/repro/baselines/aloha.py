"""Pure-ALOHA baseline under ARACHNET's energy constraints (Appendix B).

Each battery-free tag transmits the moment its supercapacitor reaches
the 2.3 V high threshold; thanks to the low-voltage cutoff it recharges
from 1.95 V, costing only 15.2% of the full charging duration
((2.3-1.95)/2.3 under the constant-current pump).  Charging pauses
during the 200 ms packet.  Per the paper's setup, charging durations
get 2% Gaussian noise per cycle, and the run lasts 10,000 s.

The headline result this reproduces (Fig. 19): only ~34% of
transmissions are collision-free, per-tag success between ~28% and
~37%, with fast-charging tags (Tag 8, 4.5 s) transmitting >11,000 times
yet still colliding in >60% of attempts — the motivation for the
distributed slot allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

#: Fraction of the full charging duration needed to recharge from the
#: low threshold (1.95 V) back to the high threshold (2.3 V).
RESUME_FRACTION = (2.3 - 1.95) / 2.3

#: UL packet airtime (s): ~200 ms at the default 375 bps raw rate.
PACKET_DURATION_S = 0.2

#: Per-cycle multiplicative charging-time noise (std), Appendix B.
CHARGING_NOISE_STD = 0.02

#: Default simulated duration (s).
DEFAULT_DURATION_S = 10_000.0


@dataclass(frozen=True)
class TagAlohaStats:
    """Per-tag outcome of the ALOHA run."""

    tag: str
    charge_time_s: float
    total_tx: int
    collided_tx: int

    @property
    def clean_tx(self) -> int:
        return self.total_tx - self.collided_tx

    @property
    def success_rate(self) -> float:
        return self.clean_tx / self.total_tx if self.total_tx else 0.0


@dataclass(frozen=True)
class AlohaResult:
    """Aggregate outcome of the ALOHA run (Fig. 19)."""

    per_tag: Dict[str, TagAlohaStats]
    duration_s: float

    @property
    def total_tx(self) -> int:
        return sum(s.total_tx for s in self.per_tag.values())

    @property
    def total_collided(self) -> int:
        return sum(s.collided_tx for s in self.per_tag.values())

    @property
    def overall_success_rate(self) -> float:
        total = self.total_tx
        return (total - self.total_collided) / total if total else 0.0


class AlohaSimulation:
    """Simulates contention-based access for duty-cycled backscatter tags."""

    def __init__(
        self,
        charge_times_s: Mapping[str, float],
        duration_s: float = DEFAULT_DURATION_S,
        packet_duration_s: float = PACKET_DURATION_S,
        resume_fraction: float = RESUME_FRACTION,
        noise_std: float = CHARGING_NOISE_STD,
        seed: int = 0,
    ) -> None:
        if not charge_times_s:
            raise ValueError("need at least one tag")
        # Finite as well as positive: an infinite run never ends, and a
        # NaN one slips past a plain ``<= 0`` test.
        positive = [
            (f"charge time for {tag!r}", t) for tag, t in charge_times_s.items()
        ]
        positive += [
            ("duration_s", duration_s),
            ("packet_duration_s", packet_duration_s),
        ]
        for name, value in positive:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0 < resume_fraction <= 1:
            raise ValueError("resume fraction must be in (0, 1]")
        if not (math.isfinite(noise_std) and noise_std >= 0):
            raise ValueError(
                f"noise_std must be non-negative and finite, got {noise_std!r}"
            )
        self.charge_times_s = dict(charge_times_s)
        self.duration_s = duration_s
        self.packet_duration_s = packet_duration_s
        self.resume_fraction = resume_fraction
        self.noise_std = noise_std
        self.seed = seed

    def _tag_transmission_starts(
        self, full_charge_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Start times of one tag's transmissions over the run.

        First cycle charges from empty; every later cycle resumes from
        LTH.  Charging is paused during transmission, so each cycle is
        charge + packet airtime.

        The cycles are drawn as one block of normals and summed with
        ``cumsum``, which adds in cycle order, so every start is the
        float an event-by-event loop reaches.  Such a loop draws one
        normal per start plus the one whose start falls past the end;
        the generator is rewound and advanced by exactly that many, so
        later tags see the same stream.
        """
        size = self._block_size(full_charge_s)
        state = rng.bit_generator.state
        while True:
            scale = 1.0 + self.noise_std * rng.normal(size=size)
            # max(0.0, x) per element; np.maximum would differ on -0.0.
            scale = np.where(scale > 0.0, scale, 0.0)
            steps = self.packet_duration_s + (
                full_charge_s * self.resume_fraction
            ) * scale
            steps[0] = full_charge_s * scale[0]
            times = np.cumsum(steps)
            n = int(np.searchsorted(times, self.duration_s, side="left"))
            if n < size:
                break
            size *= 2
            rng.bit_generator.state = state
        if n + 1 < size:
            rng.bit_generator.state = state
            rng.normal(size=n + 1)
        return times[:n]

    def _block_size(self, full_charge_s: float) -> int:
        """First guess at how many normals one tag draws: the count at
        the nominal cycle plus a margin.  A short guess only costs a
        redraw of twice as many."""
        cycle = self.packet_duration_s + full_charge_s * self.resume_fraction
        return int(self.duration_s / cycle * 1.05) + 16

    def run(self) -> AlohaResult:
        """Generate all transmissions and count pairwise overlaps."""
        rng = np.random.default_rng(self.seed)
        tags = sorted(self.charge_times_s)
        starts = [
            self._tag_transmission_starts(self.charge_times_s[tag], rng)
            for tag in tags
        ]
        counts = [len(s) for s in starts]
        times = np.concatenate(starts)
        owners = np.repeat(np.arange(len(tags)), counts)
        order = np.lexsort((owners, times))
        times = times[order]
        owners = owners[order]
        # Two packets overlap iff their starts differ by less than one
        # packet duration.  On sorted starts the gap to the next start
        # is the smallest one ahead (float subtraction rounds
        # monotonically), so each start only needs its neighbours.
        close = np.diff(times) < self.packet_duration_s
        flags = np.zeros(len(times), dtype=bool)
        flags[:-1] |= close
        flags[1:] |= close
        collided = np.bincount(owners[flags], minlength=len(tags))

        per_tag = {
            tag: TagAlohaStats(
                tag=tag,
                charge_time_s=self.charge_times_s[tag],
                total_tx=counts[idx],
                collided_tx=int(collided[idx]),
            )
            for idx, tag in enumerate(tags)
        }
        return AlohaResult(per_tag=per_tag, duration_s=self.duration_s)
