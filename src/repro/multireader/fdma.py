"""FDMA-based multi-channel access (Sec. 6.3 discussion, after [27]).

Jang & Adib's underwater backscatter [27] separates tags in frequency:
each tag backscatters around a different subcarrier, so multiple tags
can occupy the same time slot.  On the BiW the plate supports several
usable resonant modes near the main 90 kHz resonance; assigning tag
groups to distinct modes multiplies slot capacity by the channel count.

:class:`FdmaNetwork` composes the existing slot-allocation MAC: one
independent :class:`SlottedNetwork` instance per frequency channel,
sharing the same BiW medium.  Beacons remain common (the reader
broadcasts on the primary carrier); only uplinks are frequency-split,
so the protocol logic is unchanged within each channel — exactly how
the paper frames the extension.

The same frequency-space division also separates whole *readers*: the
carrier-allocation planner (:mod:`repro.multireader.planner`) colors a
reader-conflict graph with these channels, generalising
:func:`assign_channels` from tags to readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.channel.medium import AcousticMedium
from repro.core.network import NetworkConfig, SlottedNetwork


@dataclass(frozen=True)
class FdmaChannelPlan:
    """The subcarriers available for uplink backscatter.

    Frequencies are plate resonances near the primary mode; per-channel
    response derates the link budget for channels away from the main
    resonance (the PZT and plate respond less there).
    """

    frequencies_hz: Tuple[float, ...] = (90_000.0, 84_500.0, 96_000.0)
    #: Amplitude derating per channel relative to the primary resonance.
    responses: Tuple[float, ...] = (1.0, 0.72, 0.66)

    def __post_init__(self) -> None:
        if len(self.frequencies_hz) != len(self.responses):
            raise ValueError("need one response per frequency")
        if not self.frequencies_hz:
            raise ValueError("need at least one channel")
        if any(not 0 < r <= 1 for r in self.responses):
            raise ValueError("responses must be in (0, 1]")

    @property
    def n_channels(self) -> int:
        return len(self.frequencies_hz)

    def min_spacing_hz(self) -> float:
        freqs = sorted(self.frequencies_hz)
        if len(freqs) < 2:
            return float("inf")
        return min(b - a for a, b in zip(freqs, freqs[1:]))

    def supports_bit_rate(self, raw_rate_bps: float, guard_factor: float = 2.0) -> bool:
        """Channels must be spaced beyond the modulation bandwidth."""
        return self.min_spacing_hz() >= guard_factor * 2.0 * raw_rate_bps

    def adjacent_leakage_db(self, i: int, j: int, raw_rate_bps: float) -> float:
        """Power leaking from channel ``j`` into channel ``i`` (dB below
        the in-channel signal).

        FM0's spectral tails fall off roughly 20 dB/decade beyond the
        main lobe; the leakage at a spacing of ``Δf`` is approximated
        as ``-20·log10(Δf / raw_rate)`` below the transmit level, floored
        at the main-lobe edge.  Co-channel (i == j) leakage is 0 dB.
        """
        if raw_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        if i == j:
            return 0.0
        spacing = abs(self.frequencies_hz[i] - self.frequencies_hz[j])
        ratio = max(spacing / raw_rate_bps, 1.0)
        return -20.0 * math.log10(ratio)


def assign_channels(
    tag_periods: Mapping[str, int], n_channels: int
) -> List[Dict[str, int]]:
    """Split tags across channels, balancing per-channel utilisation.

    Greedy: tags sorted by rate demand (1/period) descending go to the
    currently least-loaded channel — the classic LPT heuristic.
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    loads = [0.0] * n_channels
    groups: List[Dict[str, int]] = [dict() for _ in range(n_channels)]
    for tag, period in sorted(
        tag_periods.items(), key=lambda kv: (1.0 / kv[1], kv[0]), reverse=True
    ):
        k = min(range(n_channels), key=lambda i: loads[i])
        groups[k][tag] = period
        loads[k] += 1.0 / period
    return groups


class FdmaNetwork:
    """Parallel slot-allocation networks, one per frequency channel."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        plan: Optional[FdmaChannelPlan] = None,
        medium: Optional[AcousticMedium] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.plan = plan if plan is not None else FdmaChannelPlan()
        self.medium = medium if medium is not None else AcousticMedium()
        base_config = config if config is not None else NetworkConfig()
        if not self.plan.supports_bit_rate(base_config.ul_raw_rate_bps):
            raise ValueError(
                "channel spacing too tight for the uplink bandwidth"
            )
        groups = assign_channels(tag_periods, self.plan.n_channels)
        self.channels: List[SlottedNetwork] = []
        self.concurrent_slots = 0
        self.total_slots = 0
        for k, group in enumerate(groups):
            if not group:
                continue
            cfg = replace(base_config, seed=base_config.seed + 7919 * k)
            self.channels.append(SlottedNetwork(group, self.medium, cfg))

    @property
    def n_active_channels(self) -> int:
        return len(self.channels)

    def run(self, n_slots: int) -> None:
        """Advance every channel by ``n_slots`` in lockstep.

        Channels share wall time, so slot ``s`` happens simultaneously
        on every subcarrier; the per-slot cross-channel interference
        statistics accumulate in :attr:`concurrent_slots`.
        """
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        for _ in range(n_slots):
            active = 0
            for net in self.channels:
                record = net.step()
                active += 1 if record.truly_nonempty else 0
            if active >= 2:
                self.concurrent_slots += 1
            self.total_slots += 1

    def worst_case_sir_db(self) -> float:
        """Signal-to-interference for the most exposed channel pair,
        when both transmit in the same slot: the in-channel response
        advantage minus the spectral leakage."""
        rate = self.channels[0].config.ul_raw_rate_bps if self.channels else 375.0
        worst = math.inf
        for i in range(self.plan.n_channels):
            for j in range(self.plan.n_channels):
                if i == j:
                    continue
                leak_db = self.plan.adjacent_leakage_db(i, j, rate)
                response_db = 20.0 * math.log10(
                    self.plan.responses[i] / self.plan.responses[j]
                )
                worst = min(worst, response_db - leak_db)
        return worst

    def run_until_converged(
        self, streak: int = 32, max_slots: int = 100_000
    ) -> Optional[int]:
        """Slots until *every* channel holds a clean streak; channels
        converge independently, so this is their maximum."""
        times = []
        for net in self.channels:
            t = net.run_until_converged(streak=streak, max_slots=max_slots)
            if t is None:
                return None
            times.append(t)
        return max(times)

    def aggregate_goodput(self) -> float:
        """Decoded packets per slot summed over channels — the capacity
        multiplication FDMA buys."""
        total = 0.0
        for net in self.channels:
            if net.records:
                total += sum(
                    1 for r in net.records if r.decoded is not None
                ) / len(net.records)
        return total

    def capacity(self) -> float:
        """Upper bound: one packet per slot per active channel."""
        return float(self.n_active_channels)
