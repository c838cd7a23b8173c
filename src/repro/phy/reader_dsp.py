"""Reader receive chain (Sec. 6.1).

Mirrors the processing blocks of the paper's real-time C++ software:
down-conversion, frequency-offset calibration, filtering/decimation,
Schmitt triggering, raw-bit sampling, FM0 decoding, and packet framing,
with adjacent blocks connected by bounded back-pressure buffers.

The functional entry point is :class:`ReaderReceiveChain`, which takes
one slot's RX capture and returns the decoded packets plus the
intermediate products the experiments inspect.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.channel import acoustics
from repro.phy import kernels
from repro.phy.iq import correct_frequency_offset, downconvert, frequency_offset_estimate
from repro.phy.packets import UplinkPacket, find_ul_frames

T = TypeVar("T")


class BackPressureBuffer(Generic[T]):
    """Bounded FIFO between two processing blocks.

    ``push`` refuses when full — the upstream block must retry, exactly
    the back-pressure handshake the paper's pipeline uses to keep the
    USB streaming real-time without unbounded memory.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._items: Deque[T] = deque()

    @property
    def full(self) -> bool:
        return len(self._items) >= self._capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: T) -> bool:
        """Append if space is available; returns success."""
        if self.full:
            return False
        self._items.append(item)
        return True

    def pop(self) -> Optional[T]:
        """Remove and return the oldest item, or None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class DecodeOutcome:
    """Products of one slot's receive processing."""

    packets: List[UplinkPacket]
    raw_bits: List[int]
    baseband: np.ndarray
    frequency_offset_hz: float


class ReaderReceiveChain:
    """Waveform in, CRC-clean packets out."""

    #: Baseband samples kept per raw bit after decimation.
    SAMPLES_PER_BIT = 12

    def __init__(
        self,
        sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ,
        carrier_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
        schmitt_hysteresis: float = 0.3,
        threshold_drift: float = 0.0,
    ) -> None:
        if not 0 <= schmitt_hysteresis < 1:
            raise ValueError("hysteresis must be in [0, 1)")
        if not -1 < threshold_drift < 1:
            raise ValueError("threshold drift must be in (-1, 1)")
        self.sample_rate_hz = sample_rate_hz
        self.carrier_hz = carrier_hz
        self.schmitt_hysteresis = schmitt_hysteresis
        #: Comparator offset as a fraction of the signal spread (fault
        #: injection: envelope-threshold drift).  0 on the normal path.
        self.threshold_drift = threshold_drift

    def _decimation_for(self, raw_rate_bps: float) -> int:
        return max(
            1, int(self.sample_rate_hz // (raw_rate_bps * self.SAMPLES_PER_BIT))
        )

    # -- individual blocks ---------------------------------------------------

    def raw_baseband(
        self, waveform: np.ndarray, raw_rate_bps: float
    ) -> Tuple[np.ndarray, float]:
        """Down-conversion + rate-matched LPF + decimation, *before*
        frequency-offset calibration.  Returns (iq, baseband_rate_hz).

        This is the product shared between decoding and IQ-cluster
        collision detection: both consume the same rate-matched
        baseband, so the waveform-fidelity network downconverts each
        slot capture exactly once.
        """
        decimation = self._decimation_for(raw_rate_bps)
        baseband_rate = self.sample_rate_hz / decimation
        iq = downconvert(
            waveform,
            self.sample_rate_hz,
            self.carrier_hz,
            cutoff_hz=2.0 * raw_rate_bps,
            decimation=decimation,
        )
        return iq, baseband_rate

    def raw_baseband_config(
        self, waveform: np.ndarray, config
    ) -> Tuple[np.ndarray, float]:
        """:meth:`raw_baseband` with the cutoff/decimation geometry of
        an arbitrary :class:`repro.phy.modulation.LinkConfig`.

        The FM0 geometry reproduces :meth:`raw_baseband` exactly, which
        is why the waveform network can run fixed-rate slots through
        here byte-identically.
        """
        from repro.phy.modulation import get_modulation

        mod = get_modulation(config.modulation)
        decimation = mod.decimation(self.sample_rate_hz, config.bitrate_bps)
        baseband_rate = self.sample_rate_hz / decimation
        iq = downconvert(
            waveform,
            self.sample_rate_hz,
            self.carrier_hz,
            cutoff_hz=mod.cutoff_hz(config.bitrate_bps),
            decimation=decimation,
        )
        return iq, baseband_rate

    def to_baseband(
        self, waveform: np.ndarray, raw_rate_bps: float
    ) -> Tuple[np.ndarray, float, float]:
        """Down-conversion + rate-matched LPF + decimation + offset
        calibration.  Returns (iq, baseband_rate_hz, offset_hz).

        The LPF cutoff tracks the modulation bandwidth (2x raw rate):
        this is the chain's processing gain — the narrower the bit
        rate, the more noise is integrated away, which is exactly why
        low rates win SNR in Fig. 12(a).
        """
        iq, baseband_rate = self.raw_baseband(waveform, raw_rate_bps)
        offset = frequency_offset_estimate(iq, baseband_rate)
        iq = correct_frequency_offset(iq, offset, baseband_rate)
        return iq, baseband_rate, offset

    @staticmethod
    def project(iq: np.ndarray) -> np.ndarray:
        """Project complex baseband onto its principal modulation axis.

        The static carrier leak is removed as the constellation centre
        (component-wise median — robust against the filter's settling
        transient); the surviving backscatter phasor lies, up to noise,
        along one axis whose angle is half the angle of E[z^2].  The
        result is re-centred between its 10th/90th percentiles so zero
        is the decision threshold even when the lead-in skews the
        median.  The whole stage runs as the fused
        :func:`repro.phy.kernels.project` kernel pair.
        """
        return kernels.project(iq)

    def schmitt(self, projected: np.ndarray) -> np.ndarray:
        """Hysteresis slicer around zero, scaled to the signal spread.

        The spread estimate is a median absolute deviation: the filter's
        settling transient would inflate a plain standard deviation and
        freeze the slicer.  Samples at/above the upper threshold force
        state 1, at/below the lower force state 0, anything in the dead
        band holds the previous forced state; the initial state is the
        sign of the first sample against the drifted centre.  A flat
        input (zero spread) slices to all zeros.
        """
        return kernels.schmitt_full(
            projected, self.schmitt_hysteresis, self.threshold_drift
        )

    def _raw_bit_sums(
        self,
        projected: np.ndarray,
        binary: np.ndarray,
        raw_rate_bps: float,
        baseband_rate_hz: float,
    ) -> Optional[np.ndarray]:
        """Per-bit matched-filter sums, or ``None`` when no bit grid
        can be established (no slicer transitions / no full windows).

        Bit-grid phase is estimated from the circular mean of the
        slicer's transition positions modulo the bit period; each sum
        integrates the projected signal over the central 80% of its
        bit — the matched-filter step that buys back the per-sample
        noise (:func:`repro.phy.kernels.raw_bit_sums`).  The raw bit is
        the sign of the sum.
        """
        if raw_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        if baseband_rate_hz <= 0:
            raise ValueError("baseband rate must be positive")
        return kernels.raw_bit_sums(
            projected, binary, baseband_rate_hz / raw_rate_bps
        )

    def sample_raw_bits(
        self,
        projected: np.ndarray,
        binary: np.ndarray,
        raw_rate_bps: float,
        baseband_rate_hz: float,
    ) -> List[int]:
        """Recover the raw bit sequence: integrate-and-dump per bit
        (the list form of :meth:`_raw_bit_sums`)."""
        sums = self._raw_bit_sums(
            projected, binary, raw_rate_bps, baseband_rate_hz
        )
        if sums is None:
            return []
        return [1 if s > 0 else 0 for s in sums]

    # -- end-to-end -----------------------------------------------------------

    def decode(
        self, waveform: np.ndarray, raw_rate_bps: float
    ) -> DecodeOutcome:
        """Run the full chain on one capture.

        FM0 half-bit alignment is ambiguous by one raw bit, so both
        alignments are tried; the one that yields frames (or, failing
        that, fewer FM0 boundary violations) wins.
        """
        iq, baseband_rate = self.raw_baseband(waveform, raw_rate_bps)
        return self.decode_baseband(iq, baseband_rate, raw_rate_bps)

    def decode_baseband(
        self, iq: np.ndarray, baseband_rate_hz: float, raw_rate_bps: float
    ) -> DecodeOutcome:
        """Run the chain from an uncalibrated baseband (the output of
        :meth:`raw_baseband`) — lets a caller that also runs collision
        detection reuse one downconversion per capture.

        Offset calibration, projection, slicing, raw-bit sampling and
        FM0 pair decoding run as one :func:`repro.phy.kernels.fm0_chain`
        call (the stages :meth:`to_baseband`, :meth:`project`,
        :meth:`schmitt` and :meth:`_raw_bit_sums` run one at a time);
        framing and the choice between the two FM0 alignments stay
        here.
        """
        baseband, offset, raw, alignments = kernels.fm0_chain(
            iq,
            baseband_rate_hz,
            raw_rate_bps,
            self.schmitt_hysteresis,
            self.threshold_drift,
        )
        best_packets: List[UplinkPacket] = []
        best_span = (0, 0)
        best_violations = math.inf
        for start, bits, violations in alignments:
            packets = find_ul_frames(bits)
            if len(packets) > len(best_packets) or (
                len(packets) == len(best_packets) and violations < best_violations
            ):
                best_packets = packets
                best_span = (start, start + 2 * len(bits))
                best_violations = violations
        return DecodeOutcome(
            packets=best_packets,
            raw_bits=raw[best_span[0] : best_span[1]].tolist(),
            baseband=baseband,
            frequency_offset_hz=offset,
        )

    def decode_config(
        self, iq: np.ndarray, baseband_rate_hz: float, config
    ) -> DecodeOutcome:
        """Decode an uncalibrated baseband under an arbitrary
        :class:`repro.phy.modulation.LinkConfig`.

        FM0 configs ride the stock offset-corrected correlator chain
        (:meth:`decode_baseband`); other modulations project the
        baseband onto its modulation axis and hand the real signal to
        the modulation's matched demodulator.  The matched correlators
        integrate over whole bit windows, so residual carrier offset
        (well below a bit rate by construction) washes out and no
        offset estimation pass is run.
        """
        from repro.phy.modulation import get_modulation

        mod = get_modulation(config.modulation)
        if mod.uses_fm0_chain:
            return self.decode_baseband(
                iq, baseband_rate_hz, config.bitrate_bps
            )
        projected = self.project(iq)
        raw = mod.demodulate(projected, baseband_rate_hz, config.bitrate_bps)
        packets = find_ul_frames(raw)
        return DecodeOutcome(
            packets=packets,
            raw_bits=list(raw),
            baseband=iq,
            frequency_offset_hz=0.0,
        )
