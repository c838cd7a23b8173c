"""Test oracles: the scalar implementations the hot paths replaced.

Each function here is the straightforward loop a vectorised or batched
routine in ``repro`` was derived from, kept as its executable
specification.  The equivalence tests hold the fast paths to these,
bit for bit where the arithmetic is the same and on decoded bits where
only the summation order differs.  Nothing in ``src/`` imports this
module.

Import it as ``from phy.oracles import ...`` (``tests/`` is on the
test path).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.phy import cache as phy_cache
from repro.phy.cook import CHIRP_HIGH_HZ, CHIRP_LOW_HZ
from repro.phy.fsk import FSK_F0_HZ, FSK_F1_HZ
from repro.phy.packets import (
    UL_FRAME_BITS,
    UL_PREAMBLE,
    UL_PREAMBLE_BITS,
    PacketError,
    UplinkPacket,
)

#: Candidate bit alignments per bit period of the offset scans.
OFFSET_STEPS = 16


def raw_bits_to_levels_reference(
    raw_bits: Sequence[int],
    raw_rate_bps: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Scalar spec of :func:`repro.phy.modem.raw_bits_to_levels`."""
    if raw_rate_bps <= 0 or sample_rate_hz <= 0:
        raise ValueError("rates must be positive")
    n_total = int(round(len(raw_bits) * sample_rate_hz / raw_rate_bps))
    levels = np.zeros(n_total, dtype=float)
    for i, bit in enumerate(raw_bits):
        if bit not in (0, 1):
            raise ValueError(f"raw bits must be 0/1, got {bit!r}")
        start = int(round(i * sample_rate_hz / raw_rate_bps))
        end = int(round((i + 1) * sample_rate_hz / raw_rate_bps))
        levels[start:end] = float(bit)
    return levels


def naive_ook_waveform_reference(
    downlink,
    pie_bits: Sequence[int],
    raw_rate_bps: float,
    link_gain: float = 1.0,
) -> np.ndarray:
    """Scalar spec of ``FskOokDownlink.naive_ook_waveform``: one
    independent full-length ring tail per ON→OFF edge."""
    raw = list(phy_cache.pie_raw(pie_bits))
    levels = raw_bits_to_levels_reference(raw, raw_rate_bps, downlink.sample_rate_hz)
    t = np.arange(len(levels)) / downlink.sample_rate_hz
    on_wave = downlink.on_amplitude_v * np.cos(
        2 * math.pi * downlink.resonant_hz * t
    )
    out = levels * on_wave
    tau = downlink.pzt.ring_time_constant_s
    falling = np.flatnonzero(np.diff(levels) < 0) + 1
    for idx in falling:
        remaining = len(out) - idx
        if remaining <= 0:
            continue
        tail_t = np.arange(remaining) / downlink.sample_rate_hz
        tail = (
            downlink.on_amplitude_v
            * np.exp(-tail_t / tau)
            * np.cos(2 * math.pi * downlink.resonant_hz * (t[idx] + tail_t))
        )
        out[idx:] += tail
    return link_gain * out


def bit_windows_reference(
    n_samples: int, samples_per_bit: float, offset: int
) -> List[Tuple[int, int]]:
    """Scalar spec of :func:`repro.phy.modulation.bit_windows`."""
    windows: List[Tuple[int, int]] = []
    i = 0
    while True:
        lo = offset + int(np.rint(i * samples_per_bit))
        hi = offset + int(np.rint((i + 1) * samples_per_bit))
        if hi > n_samples:
            break
        if hi > lo:
            windows.append((lo, hi))
        i += 1
    return windows


def find_ul_frames_reference(bits: Sequence[int]) -> List[UplinkPacket]:
    """Scalar spec of :func:`repro.phy.packets.find_ul_frames`: test
    for the preamble at every position."""
    packets: List[UplinkPacket] = []
    bits = list(bits)
    i = 0
    while i + UL_FRAME_BITS <= len(bits):
        if tuple(bits[i : i + UL_PREAMBLE_BITS]) == UL_PREAMBLE:
            try:
                packets.append(UplinkPacket.from_bits(bits[i : i + UL_FRAME_BITS]))
                i += UL_FRAME_BITS
                continue
            except PacketError:
                pass
        i += 1
    return packets


def chirp_replica_reference(
    n: int, baseband_rate_hz: float, raw_rate_bps: float
) -> np.ndarray:
    """Zero-mean analytic chirp for an ``n``-sample window."""
    tau = (np.arange(n) + 0.5) / baseband_rate_hz
    sweep = (CHIRP_HIGH_HZ - CHIRP_LOW_HZ) * raw_rate_bps
    phase = 2.0 * math.pi * (CHIRP_LOW_HZ * tau + 0.5 * sweep * tau * tau)
    replica = np.exp(-1j * phase)
    replica -= replica.mean()
    return replica


def cook_demodulate_reference(
    projected: np.ndarray, baseband_rate_hz: float, raw_rate_bps: float
) -> List[int]:
    """Per-window spec of ``ChirpOok.demodulate``: one dot product per
    window and offset."""
    samples_per_bit = baseband_rate_hz / raw_rate_bps
    if len(projected) < samples_per_bit:
        return []
    step = max(1, int(samples_per_bit // OFFSET_STEPS))
    best_bits: List[int] = []
    best_key = (-1, -math.inf)
    for offset in range(0, int(math.ceil(samples_per_bit)), step):
        windows = bit_windows_reference(len(projected), samples_per_bit, offset)
        if not windows:
            continue
        scores = np.empty(len(windows))
        for i, (lo, hi) in enumerate(windows):
            window = projected[lo:hi]
            window = window - window.mean()
            replica = chirp_replica_reference(hi - lo, baseband_rate_hz, raw_rate_bps)
            scores[i] = abs(complex(window @ replica))
        peak = float(scores.max())
        bits = [int(s > 0.5 * peak) for s in scores]
        key = (len(find_ul_frames_reference(bits)), peak)
        if key > best_key:
            best_key = key
            best_bits = bits
    return best_bits


def fsk_demodulate_reference(
    projected: np.ndarray, baseband_rate_hz: float, raw_rate_bps: float
) -> List[int]:
    """Per-window spec of ``BinaryFsk.demodulate``."""
    samples_per_bit = baseband_rate_hz / raw_rate_bps
    if len(projected) < samples_per_bit:
        return []
    step = max(1, int(samples_per_bit // OFFSET_STEPS))
    best_bits: List[int] = []
    best_key = (-1, -math.inf)
    for offset in range(0, int(math.ceil(samples_per_bit)), step):
        windows = bit_windows_reference(len(projected), samples_per_bit, offset)
        if not windows:
            continue
        bits: List[int] = []
        metric = 0.0
        for lo, hi in windows:
            window = projected[lo:hi]
            window = window - window.mean()
            tau = (np.arange(hi - lo) + 0.5) / baseband_rate_hz
            tone0 = np.exp(-2.0j * math.pi * FSK_F0_HZ * tau)
            tone1 = np.exp(-2.0j * math.pi * FSK_F1_HZ * tau)
            m0 = abs(complex(window @ tone0))
            m1 = abs(complex(window @ tone1))
            bits.append(int(m1 > m0))
            metric += abs(m1 - m0)
        key = (len(find_ul_frames_reference(bits)), metric)
        if key > best_key:
            best_key = key
            best_bits = bits
    return best_bits
