"""Waveform-level modulation: carrier synthesis, OOK backscatter, and
the reader's FSK-in-OOK-out downlink.

This module builds the sampled signals the reader's DAQ would capture
(500 kHz sampling, 90 kHz carrier), which the PHY experiments
(Figs. 12-14) feed through the receive chain of
:mod:`repro.phy.reader_dsp`.

The synthesis path is vectorised and backed by the lookup tables of
:mod:`repro.phy.cache` — carrier blocks come from grow-once cos/sin
tables, line codes are memoised, and per-frame buffers are filled in
place instead of concatenated.  The original scalar implementations of
the two loop-heavy kernels live on as test oracles
(``tests/phy/oracles.py``), the executable specifications the
equivalence tests hold these against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.channel import acoustics
from repro.channel.pzt import PZTTransducer
from repro.phy import cache as phy_cache
from repro.phy import kernels
from repro.sim.random import as_index


def raw_bits_to_levels(
    raw_bits: Sequence[int],
    raw_rate_bps: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Expand raw line bits into a per-sample 0/1 level array.

    Sample counts per bit are accumulated in exact time so long frames
    do not drift relative to the sample grid.  Vectorised: bit
    boundaries are rounded onto the sample grid in one pass and the
    bits repeated to their per-bit sample counts — bit-exact with the
    scalar per-bit loop it replaced (kept as a test oracle).
    """
    if raw_rate_bps <= 0 or sample_rate_hz <= 0:
        raise ValueError("rates must be positive")
    bits = np.asarray(raw_bits, dtype=float)
    if bits.ndim != 1:
        raise ValueError("raw bits must be a flat sequence")
    if bits.size and not np.all((bits == 0.0) | (bits == 1.0)):
        offender = int(np.flatnonzero((bits != 0.0) & (bits != 1.0))[0])
        raise ValueError(f"raw bits must be 0/1, got {raw_bits[offender]!r}")
    n_total = int(round(len(bits) * sample_rate_hz / raw_rate_bps))
    # int(round(i * fs / rate)) uses round-half-even, as does np.rint.
    edges = np.rint(
        np.arange(len(bits) + 1, dtype=float) * sample_rate_hz / raw_rate_bps
    ).astype(np.int64)
    np.clip(edges, 0, n_total, out=edges)
    return np.repeat(bits, np.diff(edges))


def carrier(
    n_samples: int,
    amplitude_v: float,
    sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ,
    frequency_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """A plain sinusoidal carrier (served from the quadrature cache)."""
    if n_samples < 0:
        raise ValueError("sample count must be non-negative")
    return phy_cache.carrier_block(
        n_samples, amplitude_v, sample_rate_hz, frequency_hz, phase_rad
    )


@dataclass(frozen=True)
class BackscatterUplink:
    """Synthesises what the reader RX PZT captures while a tag
    backscatters an FM0 frame.

    The capture is ``leak + sum_i(bs_i) + noise``: the reader's own
    carrier leaking into its RX transducer, each tag's reflected
    component toggled between the PZT's reflective and absorptive
    levels, and the receiver noise.
    """

    sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ
    carrier_hz: float = acoustics.CARRIER_FREQUENCY_HZ
    leak_amplitude_v: float = 0.2
    pzt: PZTTransducer = field(default_factory=PZTTransducer)

    def tag_component(
        self,
        data_bits: Sequence[int],
        raw_rate_bps: float,
        backscatter_amplitude_v: float,
        phase_rad: float = 0.0,
        delay_s: float = 0.0,
        lead_in_s: float = 0.012,
        tail_s: float = 0.012,
        bit_flips: Sequence[int] = (),
        modulation: str = "fm0_ook",
    ) -> np.ndarray:
        """One tag's reflected contribution for one uplink frame.

        ``backscatter_amplitude_v`` is the full reflective-state
        amplitude at the reader; the absorptive state still reflects a
        fraction set by the PZT's coefficient ratio, so the OOK contrast
        is the transducer's modulation depth.  ``lead_in_s`` /
        ``tail_s`` of absorptive-state reflection bracket the frame —
        physically the tag idles with its PZT harvesting
        (open-circuited) before and after it modulates, and the receive
        filter settles during the lead-in.

        ``bit_flips`` inverts the given data-bit positions before line
        coding (fault injection: a glitching modulator driver);
        positions past the frame end are ignored.

        The frame is synthesised into one preallocated buffer: the
        delay gap, the lead/levels/tail scale profile, and the
        scale-and-modulate product are fused instead of concatenated.
        """
        if bit_flips:
            from repro.faults.injectors import flip_bits

            data_bits = flip_bits(data_bits, bit_flips)
        from repro.phy.modulation import get_modulation

        mod = get_modulation(modulation)
        levels = mod.unit_profile(
            mod.line_encode(data_bits), raw_rate_bps, self.sample_rate_hz
        )
        lo = self.pzt.absorptive_coefficient / self.pzt.reflective_coefficient
        n_lead = int(round(lead_in_s * self.sample_rate_hz))
        n_tail = int(round(tail_s * self.sample_rate_hz))
        n_delay = int(round(delay_s * self.sample_rate_hz))
        n_body = n_lead + len(levels) + n_tail

        out = np.empty(n_delay + n_body)
        out[:n_delay] = 0.0
        scale = out[n_delay:]
        scale[:n_lead] = lo
        np.multiply(levels, 1.0 - lo, out=scale[n_lead : n_lead + len(levels)])
        scale[n_lead : n_lead + len(levels)] += lo
        scale[n_lead + len(levels) :] = lo

        cos_t, sin_t = phy_cache.carrier_quadrature(
            n_body, self.sample_rate_hz, self.carrier_hz
        )
        # body = amplitude * scale * cos(w t + phase), via the angle sum.
        scale *= backscatter_amplitude_v
        if phase_rad == 0.0:
            scale *= cos_t
        else:
            mod = math.cos(phase_rad) * cos_t
            mod -= math.sin(phase_rad) * sin_t
            scale *= mod
        return out

    def capture_clean(
        self,
        components: Sequence[np.ndarray],
        extra_samples: int = 0,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sum leak + tag components into one capture, noise-free.

        With ``out`` (a float scratch array), the capture is assembled
        zero-copy into a prefix view of that buffer — the
        waveform-fidelity loop passes a grow-once per-network scratch so
        steady-state slots allocate nothing.  The returned view aliases
        ``out`` and is only valid until the buffer's next reuse;
        omitting ``out`` returns a fresh array (the safe default).
        """
        if not components and extra_samples <= 0:
            raise ValueError("need at least one component or extra samples")
        n = max([len(c) for c in components], default=0) + max(extra_samples, 0)
        cos_t, _ = phy_cache.carrier_quadrature(
            n, self.sample_rate_hz, self.carrier_hz
        )
        if out is not None and len(out) >= n:
            total = out[:n]
            np.multiply(cos_t, self.leak_amplitude_v, out=total)
        else:
            total = self.leak_amplitude_v * cos_t
        for comp in components:
            total[: len(comp)] += comp
        return total

    def capture(
        self,
        components: Sequence[np.ndarray],
        noise_psd_v2_per_hz: float,
        rng: np.random.Generator,
        extra_samples: int = 0,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sum leak + tag components + white noise into one capture."""
        total = self.capture_clean(components, extra_samples, out=out)
        sigma = math.sqrt(noise_psd_v2_per_hz * self.sample_rate_hz / 2.0)
        total += rng.normal(0.0, sigma, size=len(total))
        return total


def receiver_noise_baseband(
    n_out: int,
    noise_psd_v2_per_hz: float,
    sample_rate_hz: float,
    cutoff_hz: float,
    decimation: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Receiver noise delivered directly at the decimated baseband.

    The reference receive path mixes white passband noise of PSD
    ``noise_psd_v2_per_hz`` down, low-passes it, and decimates; the
    result is complex lowpass noise whose in-band PSD is the passband
    PSD referred to baseband.  This synthesises that process at the
    decimated rate: complex white noise with per-sample scale
    ``sigma / sqrt(2 * decimation)`` (which matches the full pipeline's
    PSD exactly at DC, where the decoder's per-bit integration lives,
    and its total power to within the filter-shape difference) shaped
    by the same Butterworth design re-normalised to the baseband rate.

    Drawing noise here instead of at 500 kHz removes the largest
    constant cost of the waveform tier (~1.4 ms of Gaussian generation
    + ~1.4 ms of full-rate filtering per slot) for *both* the template
    fast path and the reference synthesis path — the two paths share
    one draw, which is what keeps their decode outcomes byte-identical
    in the differential suite.

    One draw of ``2 * n_out`` standard normals, real parts first: the
    same values, and the same generator state after, as drawing the
    real and the imaginary parts in turn.  :func:`kernels.receiver_noise`
    builds and filters the complex samples in one call.
    """
    n_out = as_index(n_out, "n_out")
    if n_out < 0:
        raise ValueError("sample count must be non-negative")
    decimation = as_index(decimation, "decimation")
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    if not (math.isfinite(noise_psd_v2_per_hz) and noise_psd_v2_per_hz >= 0.0):
        raise ValueError(
            "noise_psd_v2_per_hz must be finite and non-negative, "
            f"got {noise_psd_v2_per_hz!r}"
        )
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0.0):
        raise ValueError(
            f"sample_rate_hz must be positive and finite, got {sample_rate_hz!r}"
        )
    sigma = math.sqrt(noise_psd_v2_per_hz * sample_rate_hz / 2.0)
    scale = sigma / math.sqrt(2.0 * decimation)
    draws = rng.standard_normal(2 * n_out)
    baseband_rate = sample_rate_hz / decimation
    sos = phy_cache.butter_lowpass_sos(4, cutoff_hz / (baseband_rate / 2.0))
    return kernels.receiver_noise(draws, scale, sos)


@dataclass(frozen=True)
class FskOokDownlink:
    """The reader's downlink modulator (Sec. 4.1).

    To mitigate the ring effect, the OFF level is not silence: the
    reader keeps transmitting at a *non-resonant* frequency with low
    amplitude.  The plate's resonance attenuates that frequency, so the
    tag's envelope detector sees ON/OFF contrast without the long
    exponential tail that silence would leave — "FSK in, OOK out".
    """

    sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ
    resonant_hz: float = acoustics.CARRIER_FREQUENCY_HZ
    off_frequency_hz: float = 78_000.0
    on_amplitude_v: float = 1.0
    off_drive_fraction: float = 0.3
    pzt: PZTTransducer = field(default_factory=PZTTransducer)

    def beacon_waveform(
        self,
        pie_bits: Sequence[int],
        raw_rate_bps: float,
        link_gain: float = 1.0,
    ) -> np.ndarray:
        """Waveform at a tag's PZT for a PIE bit sequence.

        ``link_gain`` scales for the reader→tag path.  The OFF level is
        the off-frequency drive attenuated by the plate's resonance
        response — a small residual rather than a ringing tail.
        """
        raw = phy_cache.pie_raw(pie_bits)
        levels = raw_bits_to_levels(raw, raw_rate_bps, self.sample_rate_hz)
        n = len(levels)
        on_cos, _ = phy_cache.carrier_quadrature(
            n, self.sample_rate_hz, self.resonant_hz
        )
        off_cos, _ = phy_cache.carrier_quadrature(
            n, self.sample_rate_hz, self.off_frequency_hz
        )
        on = self.on_amplitude_v * on_cos
        off_amp = (
            self.on_amplitude_v
            * self.off_drive_fraction
            * self.pzt.frequency_response(self.off_frequency_hz)
        )
        off = off_amp * off_cos
        return link_gain * (levels * on + (1.0 - levels) * off)

    def naive_ook_waveform(
        self,
        pie_bits: Sequence[int],
        raw_rate_bps: float,
        link_gain: float = 1.0,
    ) -> np.ndarray:
        """Plain OOK (silence for OFF) *with* the ring tail — the
        baseline the FSK-in-OOK-out trick improves on (ablation).

        The per-edge exponential tails are accumulated segment-wise:
        between consecutive ON→OFF transitions the superposition of all
        live tails is a single decaying envelope, so each segment costs
        one vector operation instead of one full-length tail per edge
        (the reference implementation is O(n * edges); this is O(n)).
        """
        raw = phy_cache.pie_raw(pie_bits)
        levels = raw_bits_to_levels(raw, raw_rate_bps, self.sample_rate_hz)
        n = len(levels)
        cos_t, sin_t = phy_cache.carrier_quadrature(
            n, self.sample_rate_hz, self.resonant_hz
        )
        out = levels * (self.on_amplitude_v * cos_t)
        tau = self.pzt.ring_time_constant_s
        omega = 2 * math.pi * self.resonant_hz
        falling = np.flatnonzero(np.diff(levels) < 0) + 1
        envelope = 0.0  # summed tail amplitude, in units of on_amplitude_v
        prev_idx = None
        for j, idx in enumerate(falling):
            idx = int(idx)
            if prev_idx is not None:
                envelope *= math.exp(-((idx - prev_idx) / self.sample_rate_hz) / tau)
            envelope += 1.0
            prev_idx = idx
            end = int(falling[j + 1]) if j + 1 < len(falling) else n
            seg_t = np.arange(end - idx) / self.sample_rate_hz
            t_edge = idx / self.sample_rate_hz
            out[idx:end] += (
                self.on_amplitude_v
                * envelope
                * np.exp(-seg_t / tau)
                * np.cos(omega * (t_edge + seg_t))
            )
        return link_gain * out
