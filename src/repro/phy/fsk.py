"""Binary FSK on the tag's resonant-mode pair.

The BiW plate's two strong modes near the 90 kHz carrier beat down to
5.5 kHz and 6 kHz at the reader, so the tag signals by toggling its
matching network between the two resonances: a ``0`` raw bit rings the
low tone, a ``1`` the high tone, both riding the backscatter envelope
as unit scale profiles.  Tone spacing and the supported bit rates keep
``Δf·T`` integral, so the two tones stay orthogonal over every bit
window and a noncoherent magnitude comparison decodes them.

FSK is the *low* end of the adaptive ladder: at 125–250 bps raw the
per-bit energy is an order of magnitude above FM0 at 375 bps, and the
constant-envelope tones dodge the envelope transients that drive the
burst-loss floor (``burst_scale`` below).  One data bit per raw bit.
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

#: Envelope tones (Hz): the |plate mode − carrier| beats of the
#: 84.5 kHz / 96 kHz resonant pair against the 90 kHz carrier, pulled
#: onto a 500 Hz grid so every supported rate divides both tones.
FSK_F0_HZ = 5500.0
FSK_F1_HZ = 6000.0

#: Raw bit rates (bps): slow fallback rungs; both divide the 500 Hz
#: tone spacing, keeping the tone pair orthogonal per bit.
FSK_RATES_BPS = (125.0, 250.0)


@lru_cache(maxsize=256)
def _tone_basis(n: int, baseband_rate_hz: float):
    """Complex correlation tones for an ``n``-sample bit window.

    One ``(n, 2)`` matrix, the ``0`` tone in column 0 and the ``1``
    tone in column 1.  Read-only: every decode shares the cached array.
    """
    tau = (np.arange(n) + 0.5) / baseband_rate_hz
    basis = np.exp(
        np.outer(
            tau, (-2.0j * math.pi * FSK_F0_HZ, -2.0j * math.pi * FSK_F1_HZ)
        )
    )
    basis.setflags(write=False)
    return basis


class BinaryFsk(Modulation):
    """Noncoherent binary FSK on the resonant-pair beat tones."""

    name = "fsk"
    rates_bps = FSK_RATES_BPS
    data_bits_per_raw_bit = 1.0
    power_efficiency = 1.0
    burst_scale = 0.25
    uses_fm0_chain = False

    def unit_profile(
        self,
        raw_bits: Sequence[int],
        raw_rate_bps: float,
        sample_rate_hz: float,
    ) -> np.ndarray:
        n_total = int(np.rint(len(raw_bits) * sample_rate_hz / raw_rate_bps))
        profile = np.empty(n_total)
        windows = bit_windows(n_total, sample_rate_hz / raw_rate_bps, 0)
        for bit, (lo, hi) in zip(raw_bits, windows):
            tone = FSK_F1_HZ if bit else FSK_F0_HZ
            tau = (np.arange(hi - lo) + 0.5) / sample_rate_hz
            profile[lo:hi] = 0.5 * (1.0 + np.cos(2.0 * math.pi * tone * tau))
        return profile

    def cutoff_hz(self, raw_rate_bps: float) -> float:
        return FSK_F1_HZ + 2.0 * raw_rate_bps

    def decimation(self, sample_rate_hz: float, raw_rate_bps: float) -> int:
        return max(1, int(sample_rate_hz // (4.0 * self.cutoff_hz(raw_rate_bps))))

    def occupied_bandwidth_hz(self, raw_rate_bps: float) -> float:
        return (FSK_F1_HZ - FSK_F0_HZ) + 2.0 * raw_rate_bps

    def bit_error_rate(self, snr_linear: float, raw_rate_bps: float) -> float:
        # Noncoherent orthogonal BFSK: BER = exp(-Eb/2N0)/2, with the
        # matched tone correlator recovering the full time-bandwidth
        # product of the occupied band.
        ebn0 = snr_linear * self.occupied_bandwidth_hz(raw_rate_bps) / raw_rate_bps
        return 0.5 * math.exp(-ebn0 / 2.0)

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
        for mags in offset_scan(
            projected,
            samples_per_bit,
            lambda n: _tone_basis(n, baseband_rate_hz),
        ):
            m0, m1 = mags[:, 0], mags[:, 1]
            bits = (m1 > m0).view(np.uint8)
            # Summed left to right, as a running total would be.
            metric = float(np.add.accumulate(np.abs(m1 - m0))[-1])
            # Candidate alignments compete on recovered CRC-clean
            # frames first, tone separation second (cf. the FM0
            # chain's half-bit scan).
            key = (len(find_ul_frames(bits)), metric)
            if key > best_key:
                best_key = key
                best_bits = bits
        return best_bits.tolist()


FSK = register_modulation(BinaryFsk())

#: The FSK rungs as ready-made ladder entries.
FSK_CONFIGS = tuple(LinkConfig(FSK.name, rate) for rate in FSK_RATES_BPS)


__all__ = [
    "FSK_F0_HZ",
    "FSK_F1_HZ",
    "FSK_RATES_BPS",
    "FSK_CONFIGS",
    "BinaryFsk",
]
