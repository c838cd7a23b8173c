"""IQ-domain processing: downconversion and cluster-based collision
detection (Sec. 5.3, "Reader Feedback Mechanism").

The reader mixes the RX capture down to complex baseband.  Each tag's
backscatter adds a phasor that toggles between two values (reflective /
absorptive), so K concurrently-transmitting tags yield up to 2^K
distinct constellation points.  One clean transmitter gives 2 clusters;
more than 2 clusters therefore implies a collision — even when the
capture effect lets the strongest packet decode, the reader withholds
the ACK (the anti-capture rule that keeps the slot-allocation honest).
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel import acoustics
from repro.phy import cache as phy_cache
from repro.phy import kernels


def downconvert(
    waveform: np.ndarray,
    sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ,
    carrier_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
    cutoff_hz: float = 8_000.0,
    decimation: int = 25,
) -> np.ndarray:
    """Mix to complex baseband, low-pass, and decimate.

    Returns complex IQ samples at ``sample_rate_hz / decimation``.
    The cutoff should track the modulation bandwidth (~2x the raw bit
    rate for FM0 decoding); the filter provides the receive chain's
    processing gain, so an over-wide cutoff costs sensitivity.  The
    filter runs as second-order sections: narrow normalised cutoffs are
    numerically fragile in transfer-function form.

    The local oscillator and the filter design are served from
    :mod:`repro.phy.cache`; the fused mix + filter + decimate runs
    through :func:`repro.phy.kernels.mix_sosfilt_decimate`, whose
    compiled backends write only the kept (decimated) samples and
    return them contiguous — every downstream consumer walks the
    result repeatedly.
    """
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    x = np.asarray(waveform, dtype=float)
    lo = phy_cache.mixer(len(x), sample_rate_hz, carrier_hz)
    sos = phy_cache.butter_lowpass_sos(4, cutoff_hz / (sample_rate_hz / 2.0))
    return kernels.mix_sosfilt_decimate(x, lo, sos, decimation)


def frequency_offset_estimate(
    iq: np.ndarray, sample_rate_hz: float
) -> float:
    """Estimate residual carrier frequency offset (Hz) from the mean
    phase increment — the "frequency offset calibration" block of the
    reader software (Sec. 6.1)."""
    if len(iq) < 2:
        return 0.0
    rot = iq[1:] * np.conj(iq[:-1])
    angle = np.angle(np.sum(rot))
    return float(angle * sample_rate_hz / (2 * math.pi))


def correct_frequency_offset(
    iq: np.ndarray, offset_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """De-rotate IQ samples by a constant frequency offset."""
    n = np.arange(len(iq))
    return iq * np.exp(-2j * math.pi * offset_hz * n / sample_rate_hz)


#: Histogram bins per axis and relative peak threshold of the detector.
CLUSTER_BINS = 24
PEAK_THRESHOLD = 0.15


class ClusterResult:
    """Outcome of IQ clustering for one slot.

    ``centers`` holds one complex centre of mass per counted cluster
    (one mean when the capture shows no modulated structure).  The
    detectors below count clusters in one kernel call and compute the
    centres only when ``centers`` is first read, by running the stages
    one at a time on a copy of their input: the collision verdict needs
    only ``n_clusters``.
    """

    __slots__ = ("n_clusters", "_centers", "_source")

    def __init__(
        self, n_clusters: int, centers: Sequence[complex] = ()
    ) -> None:
        self.n_clusters = n_clusters
        self._centers: Optional[List[complex]] = list(centers)
        self._source: Optional[Tuple[np.ndarray, int, float, bool]] = None

    @classmethod
    def _deferred(
        cls,
        n_clusters: int,
        pts: np.ndarray,
        bins: int,
        peak_threshold: float,
        guard: bool,
    ) -> "ClusterResult":
        result = cls(n_clusters)
        result._centers = None
        result._source = (pts, bins, peak_threshold, guard)
        return result

    @property
    def centers(self) -> List[complex]:
        """Cluster centres of mass, computed on first read."""
        if self._centers is None:
            self._centers = _reference_centers(*self._source)
            self._source = None
        return self._centers

    @property
    def collision(self) -> bool:
        """More than two clusters = more than one active modulator."""
        return self.n_clusters > 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterResult):
            return NotImplemented
        return (self.n_clusters, self.centers) == (other.n_clusters, other.centers)

    def __repr__(self) -> str:
        return (
            f"ClusterResult(n_clusters={self.n_clusters!r}, "
            f"centers={self.centers!r})"
        )


def _reference_centers(
    pts: np.ndarray, bins: int, peak_threshold: float, guard: bool
) -> List[complex]:
    """Cluster centres of :func:`cluster_iq` (``guard=False``) or
    :func:`detect_collision_iq` (``guard=True``), stage by stage on the
    numpy reference (the exactness battery holds the compiled stages
    byte-equal to it)."""
    if guard:
        verdict, pts, _, _ = kernels.detect_points(pts)
        if verdict == 0:
            return []
        if verdict == 1:
            return [complex(np.mean(pts))]
    if pts.size == 0:
        return []
    hist, r_edges, i_edges = kernels._np_cluster_histogram(pts, bins)
    smoothed, labels, n_peaks, smax = kernels._np_cluster_peaks(
        hist, peak_threshold
    )
    if smax <= 0:
        return [complex(np.mean(pts.real), np.mean(pts.imag))]
    centers: List[complex] = []
    r_mid = (r_edges[:-1] + r_edges[1:]) / 2.0
    i_mid = (i_edges[:-1] + i_edges[1:]) / 2.0
    for k in range(1, n_peaks + 1):
        rs, cs = np.nonzero(labels == k)
        weights = smoothed[rs, cs]
        # np.average inlined (same multiply/sum/divide, minus its
        # dispatch overhead): weighted mean of the member bin centres.
        wsum = weights.sum()
        centers.append(
            complex(
                float(np.multiply(r_mid[rs], weights).sum() / wsum),
                float(np.multiply(i_mid[cs], weights).sum() / wsum),
            )
        )
    return centers


def _check_cluster_params(bins: object, peak_threshold: object) -> None:
    if (
        isinstance(bins, bool)
        or not isinstance(bins, numbers.Integral)
        or bins < 1
    ):
        raise ValueError(f"bins must be an integer >= 1, got {bins!r}")
    if (
        isinstance(peak_threshold, bool)
        or not isinstance(peak_threshold, numbers.Real)
        or not 0.0 <= float(peak_threshold) <= 1.0
    ):
        raise ValueError(
            "peak_threshold must be a finite number in [0, 1], "
            f"got {peak_threshold!r}"
        )


def cluster_iq(
    iq: Sequence[complex],
    bins: int = CLUSTER_BINS,
    peak_threshold: float = PEAK_THRESHOLD,
) -> ClusterResult:
    """Count constellation modes via 2-D density peaks.

    The IQ points are histogrammed over a robust (percentile-clipped)
    grid, box-smoothed, and local density maxima above
    ``peak_threshold`` of the global peak are counted.  K concurrent
    OOK modulators produce up to 2^K well-separated modes; transition
    samples form low-density ridges that the threshold suppresses, and
    a pure-noise capture collapses to a single blob.

    The count is one :func:`repro.phy.kernels.iq_clusters` call
    (percentile box + pad + 2-D histogram, box smoothing and
    local-maxima labelling with scipy.ndimage semantics); the per-peak
    centres of mass are computed when ``centers`` is read.  ``bins``
    must be an integer >= 1 and ``peak_threshold`` a number in [0, 1].
    """
    _check_cluster_params(bins, peak_threshold)
    bins = int(bins)
    peak_threshold = float(peak_threshold)
    pts = np.array(iq, dtype=complex)
    n_clusters, _, _ = kernels.iq_clusters(pts, bins, peak_threshold, False)
    return ClusterResult._deferred(n_clusters, pts, bins, peak_threshold, False)


def detect_collision(
    waveform: np.ndarray,
    sample_rate_hz: float = acoustics.READER_SAMPLE_RATE_HZ,
    carrier_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
    raw_rate_bps: float = 375.0,
) -> ClusterResult:
    """End-to-end: capture -> baseband -> clusters.

    The paper's reader flags a slot as collided when the cluster count
    exceeds two, regardless of whether a packet decoded (Sec. 5.3).
    The LPF tracks the modulation bandwidth: a wide filter lets noise
    blur adjacent constellation modes together and miss collisions.
    """
    decimation = max(1, int(sample_rate_hz // (raw_rate_bps * 12)))
    iq = downconvert(
        waveform,
        sample_rate_hz,
        carrier_hz,
        cutoff_hz=2.0 * raw_rate_bps,
        decimation=decimation,
    )
    return detect_collision_iq(iq)


def detect_collision_iq(iq: np.ndarray) -> ClusterResult:
    """Collision detection on an already-downconverted baseband.

    Identical to :func:`detect_collision` after its mixing stage; split
    out so callers that also *decode* the same capture (the
    waveform-fidelity network) can share one downconversion between the
    FM0 chain and the cluster detector — the rate-matched baseband is
    the same signal in both paths.

    The capture loses its filter-settling samples; a modulation-energy
    guard then calls a capture without backscatter one cluster, and the
    plateau filter drops transition samples before :func:`cluster_iq`'s
    histogram and peak count (see
    :func:`repro.phy.kernels.detect_points`).  All of it is one
    :func:`repro.phy.kernels.iq_clusters` call.
    """
    capture = np.array(iq, dtype=complex)
    n_clusters, _, _ = kernels.iq_clusters(
        capture, CLUSTER_BINS, PEAK_THRESHOLD, True
    )
    return ClusterResult._deferred(
        n_clusters, capture, CLUSTER_BINS, PEAK_THRESHOLD, True
    )
