"""Chirp-OOK (COOK) uplink modulation.

Each ``1`` raw bit backscatters a full-swing linear up-chirp sweeping
:data:`CHIRP_LOW_HZ` → :data:`CHIRP_HIGH_HZ` across the bit period;
each ``0`` bit parks the tag at its absorptive floor.  The reader
correlates every bit window against the known chirp replica, which
buys processing gain over plain OOK at the same rate and lets the top
of the SNR ladder run 3000 bps raw without the FM0 halving — COOK
delivers one data bit per raw bit.

The chirp rides the backscatter *envelope* (the tag switches its
reflection coefficient along the chirp), so synthesis is just another
unit scale profile and the whole template fast path applies unchanged.
Half the backscatter power sits in the envelope's DC pedestal rather
than the information-bearing chirp, which the analytic link budget
charges via ``power_efficiency``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence

import numpy as np

from repro.phy.modulation import (
    LinkConfig,
    Modulation,
    bit_windows,
    offset_scan,
    register_modulation,
)

#: Chirp sweep band (Hz) on the backscatter envelope.  The band sits
#: well inside the plate's usable sideband around the 90 kHz carrier
#: while staying wide enough for ~10 dB of correlation gain at 3 kbps.
CHIRP_LOW_HZ = 3000.0
CHIRP_HIGH_HZ = 15000.0

#: Raw bit rates (bps) the chirp mode is specified at.  Below 750 bps
#: plain FM0 already has SNR to spare, so the chirp rungs only cover
#: the fast end of the ladder.
COOK_RATES_BPS = (750.0, 1500.0, 3000.0)


@lru_cache(maxsize=256)
def _chirp_replica(n: int, baseband_rate_hz: float, raw_rate_bps: float):
    """Zero-mean analytic chirp template for an ``n``-sample window.

    Complex so the correlation magnitude is immune to the projection's
    arbitrary polarity and to the receive filter's in-band phase slope.
    Read-only: every decode shares the cached array.
    """
    tau = (np.arange(n) + 0.5) / baseband_rate_hz
    sweep = (CHIRP_HIGH_HZ - CHIRP_LOW_HZ) * raw_rate_bps
    phase = 2.0 * math.pi * (CHIRP_LOW_HZ * tau + 0.5 * sweep * tau * tau)
    replica = np.exp(-1j * phase)
    replica -= replica.mean()
    replica.setflags(write=False)
    return replica


class ChirpOok(Modulation):
    """Chirp-on/off keying with matched-correlation decode."""

    name = "cook"
    rates_bps = COOK_RATES_BPS
    data_bits_per_raw_bit = 1.0
    power_efficiency = 0.5
    burst_scale = 1.0
    uses_fm0_chain = False

    def unit_profile(
        self,
        raw_bits: Sequence[int],
        raw_rate_bps: float,
        sample_rate_hz: float,
    ) -> np.ndarray:
        n_total = int(np.rint(len(raw_bits) * sample_rate_hz / raw_rate_bps))
        profile = np.zeros(n_total)
        sweep = (CHIRP_HIGH_HZ - CHIRP_LOW_HZ) * raw_rate_bps
        windows = bit_windows(n_total, sample_rate_hz / raw_rate_bps, 0)
        for bit, (lo, hi) in zip(raw_bits, windows):
            if not bit:
                continue
            tau = (np.arange(hi - lo) + 0.5) / sample_rate_hz
            phase = 2.0 * math.pi * (
                CHIRP_LOW_HZ * tau + 0.5 * sweep * tau * tau
            )
            profile[lo:hi] = 0.5 * (1.0 + np.cos(phase))
        return profile

    def cutoff_hz(self, raw_rate_bps: float) -> float:
        return CHIRP_HIGH_HZ + 2.0 * raw_rate_bps

    def decimation(self, sample_rate_hz: float, raw_rate_bps: float) -> int:
        return max(1, int(sample_rate_hz // (2.5 * self.cutoff_hz(raw_rate_bps))))

    def occupied_bandwidth_hz(self, raw_rate_bps: float) -> float:
        return (CHIRP_HIGH_HZ - CHIRP_LOW_HZ) + 2.0 * raw_rate_bps

    def bit_error_rate(self, snr_linear: float, raw_rate_bps: float) -> float:
        # Matched-filter OOK: the correlator collapses the occupied
        # band back to one bit of energy, so Eb/N0 recovers the full
        # time-bandwidth product (snr_linear is already charged for
        # power_efficiency by the channel layer).
        ebn0 = snr_linear * self.occupied_bandwidth_hz(raw_rate_bps) / (
            2.0 * raw_rate_bps
        )
        return 0.5 * math.erfc(math.sqrt(ebn0 / 2.0))

    def demodulate(
        self,
        projected: np.ndarray,
        baseband_rate_hz: float,
        raw_rate_bps: float,
    ) -> List[int]:
        from repro.phy.packets import find_ul_frames

        samples_per_bit = baseband_rate_hz / raw_rate_bps
        if len(projected) < samples_per_bit:
            return []
        best_bits = np.empty(0, dtype=np.uint8)
        best_key = (-1, -math.inf)
        for scores in offset_scan(
            projected,
            samples_per_bit,
            lambda n: _chirp_replica(n, baseband_rate_hz, raw_rate_bps)[:, None],
        ):
            scores = scores[:, 0]
            # OOK decision at half the strongest correlation: a frame
            # is a minority of the capture windows, so an order
            # statistic over all windows would sit in the noise floor.
            peak = float(scores.max())
            bits = (scores > 0.5 * peak).view(np.uint8)
            # Bit alignment is ambiguous at sub-bit scale, so — like
            # the FM0 chain's half-bit scan — candidate offsets compete
            # on recovered CRC-clean frames first, correlation second.
            key = (len(find_ul_frames(bits)), peak)
            if key > best_key:
                best_key = key
                best_bits = bits
        return best_bits.tolist()


COOK = register_modulation(ChirpOok())

#: The chirp rungs as ready-made ladder entries.
COOK_CONFIGS = tuple(LinkConfig(COOK.name, rate) for rate in COOK_RATES_BPS)


__all__ = [
    "CHIRP_LOW_HZ",
    "CHIRP_HIGH_HZ",
    "COOK_RATES_BPS",
    "COOK_CONFIGS",
    "ChirpOok",
]
