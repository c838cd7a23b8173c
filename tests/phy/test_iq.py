"""Tests for IQ processing and collision detection."""

import numpy as np
import pytest

from scipy.ndimage import label, maximum_filter, uniform_filter

from repro.phy import kernels
from repro.phy.iq import (
    ClusterResult,
    cluster_iq,
    correct_frequency_offset,
    detect_collision,
    detect_collision_iq,
    downconvert,
    frequency_offset_estimate,
)
from repro.phy.modem import BackscatterUplink
from repro.phy.packets import UplinkPacket


@pytest.fixture(scope="module")
def uplink():
    return BackscatterUplink()


def _capture(uplink, n_tags, seed=0, amplitudes=(0.02, 0.012, 0.008)):
    rng = np.random.default_rng(seed)
    comps = [
        uplink.tag_component(
            UplinkPacket(i + 1, 100 * (i + 1)).to_bits(),
            375.0,
            amplitudes[i],
            phase_rad=0.5 + 1.9 * i,
        )
        for i in range(n_tags)
    ]
    return uplink.capture(comps, 2.673e-10, rng, extra_samples=3000)


class TestDownconvert:
    def test_carrier_becomes_dc(self):
        fs, fc = 500_000.0, 90_000.0
        t = np.arange(50_000) / fs
        wave = np.cos(2 * np.pi * fc * t)
        iq = downconvert(wave, fs, fc, cutoff_hz=2000.0, decimation=25)
        settled = iq[len(iq) // 2 :]
        # A pure carrier lands on a constant phasor of magnitude A/2.
        assert np.std(np.abs(settled)) < 0.01
        assert np.mean(np.abs(settled)) == pytest.approx(0.5, rel=0.05)

    def test_decimation_reduces_rate(self):
        wave = np.zeros(1000)
        assert len(downconvert(wave, decimation=25)) == 40

    def test_invalid_decimation_raises(self):
        with pytest.raises(ValueError):
            downconvert(np.zeros(100), decimation=0)


class TestFrequencyOffset:
    def test_estimates_known_offset(self):
        fs = 20_000.0
        n = np.arange(5000)
        iq = np.exp(2j * np.pi * 37.0 * n / fs)
        assert frequency_offset_estimate(iq, fs) == pytest.approx(37.0, abs=0.5)

    def test_correction_removes_rotation(self):
        fs = 20_000.0
        n = np.arange(5000)
        iq = np.exp(2j * np.pi * 37.0 * n / fs)
        fixed = correct_frequency_offset(iq, 37.0, fs)
        assert frequency_offset_estimate(fixed, fs) == pytest.approx(0.0, abs=0.5)

    def test_short_input_returns_zero(self):
        assert frequency_offset_estimate(np.array([1 + 0j]), 1000.0) == 0.0


class TestClusterCounting:
    def test_single_modulator_two_clusters(self, uplink):
        result = detect_collision(_capture(uplink, 1))
        assert result.n_clusters == 2
        assert not result.collision

    def test_two_modulators_more_than_two_clusters(self, uplink):
        result = detect_collision(_capture(uplink, 2))
        assert result.n_clusters > 2
        assert result.collision

    def test_three_modulators_collision(self, uplink):
        assert detect_collision(_capture(uplink, 3)).collision

    def test_empty_slot_single_blob(self, uplink):
        rng = np.random.default_rng(3)
        cap = uplink.capture([], 2.673e-10, rng, extra_samples=100_000)
        result = detect_collision(cap)
        assert result.n_clusters == 1
        assert not result.collision

    def test_detection_in_capture_regime(self, uplink):
        # The case that matters for protocol honesty: a dominant tag
        # whose packet the capture effect would decode.  There the
        # amplitude gap makes the extra modes clearly separable, and
        # detection must be near-certain (the medium models it at 98%).
        rng = np.random.default_rng(7)
        detected = 0
        trials = 20
        for trial in range(trials):
            comps = [
                uplink.tag_component(
                    UplinkPacket(1, trial).to_bits(),
                    375.0,
                    0.020,
                    phase_rad=float(rng.uniform(0, 2 * np.pi)),
                ),
                uplink.tag_component(
                    UplinkPacket(2, trial + 7).to_bits(),
                    375.0,
                    0.008,
                    phase_rad=float(rng.uniform(0, 2 * np.pi)),
                ),
            ]
            cap = uplink.capture(comps, 2.673e-10, rng, extra_samples=3000)
            detected += detect_collision(cap).collision
        assert detected >= 18

    def test_near_equal_collision_detection_is_imperfect_but_harmless(self, uplink):
        # Near-equal colliders sometimes merge in the IQ plane, but in
        # that regime neither packet decodes, so the reader NACKs the
        # slot regardless — the protocol never sees a false ACK.
        rng = np.random.default_rng(7)
        detected = 0
        for trial in range(10):
            comps = [
                uplink.tag_component(
                    UplinkPacket(i + 1, 50 * trial + i).to_bits(),
                    375.0,
                    0.015 - 0.004 * i,
                    phase_rad=float(rng.uniform(0, 2 * np.pi)),
                )
                for i in range(2)
            ]
            cap = uplink.capture(comps, 2.673e-10, rng, extra_samples=3000)
            detected += detect_collision(cap).collision
        assert detected >= 4  # majority-ish, never required to be perfect

    def test_cluster_iq_empty_input(self):
        result = cluster_iq([])
        assert result.n_clusters == 0

    def test_cluster_centers_near_true_levels(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.02, 500) + 1j * rng.normal(0, 0.02, 500)
        b = 2.0 + rng.normal(0, 0.02, 500) + 1j * rng.normal(0, 0.02, 500)
        result = cluster_iq(np.concatenate([a, b]))
        assert result.n_clusters == 2
        reals = sorted(c.real for c in result.centers)
        assert reals[0] == pytest.approx(0.0, abs=0.2)
        assert reals[1] == pytest.approx(2.0, abs=0.2)


def _oracle(iq, guard, bins=24, peak_threshold=0.15):
    """``(n_clusters, centers)`` of the collision detector, written
    directly against numpy and scipy.ndimage."""
    iq = np.asarray(iq, dtype=complex)
    if guard:
        iq = iq[min(len(iq) // 10, 200):]
        if len(iq) < 8:
            return 0, []
        z = iq - np.mean(iq)
        total_var = float(np.mean(np.abs(z) ** 2))
        noise_var = float(np.mean(np.abs(np.diff(z)) ** 2)) / 2.0
        if noise_var <= 0 or total_var < 12.0 * noise_var:
            return 1, [complex(np.mean(iq))]
        step = np.abs(np.diff(iq))
        plateau = iq[1:][step < 3.0 * np.median(step)]
        if len(plateau) >= 50:
            iq = plateau
    if iq.size == 0:
        return 0, []
    box = []
    for axis in (iq.real, iq.imag):
        lo, hi = np.percentile(axis, [1.0, 99.0])
        pad = max((hi - lo) * 0.1, 1e-12)
        box.append([lo - pad, hi + pad])
    hist, r_edges, i_edges = np.histogram2d(
        iq.real, iq.imag, bins=bins, range=box
    )
    smoothed = uniform_filter(hist, size=3, mode="constant")
    smax = smoothed.max()
    if smax <= 0:
        return 1, [complex(np.mean(iq.real), np.mean(iq.imag))]
    peaks = (smoothed == maximum_filter(smoothed, size=3, mode="constant")) & (
        smoothed >= peak_threshold * smax
    )
    labels, n_peaks = label(peaks)
    r_mid = (r_edges[:-1] + r_edges[1:]) / 2.0
    i_mid = (i_edges[:-1] + i_edges[1:]) / 2.0
    centers = []
    for k in range(1, n_peaks + 1):
        rs, cs = np.nonzero(labels == k)
        w = smoothed[rs, cs]
        centers.append(
            complex(np.average(r_mid[rs], weights=w),
                    np.average(i_mid[cs], weights=w))
        )
    return n_peaks, centers


def _detector_inputs():
    rng = np.random.default_rng(3)
    for k in range(1, 6):
        centres = rng.normal(size=k) + 1j * rng.normal(size=k)
        dwell = np.repeat(rng.integers(0, k, size=140), 7)
        yield centres[dwell] + 0.01 * (
            rng.normal(size=dwell.size) + 1j * rng.normal(size=dwell.size)
        )
    # Unmodulated: the energy guard's one-centre case.
    yield complex(0.4, -0.1) + 1e-3 * (
        rng.normal(size=600) + 1j * rng.normal(size=600)
    )
    yield np.full(300, complex(1.0, 2.0))
    yield rng.normal(size=7) + 1j * rng.normal(size=7)  # too short


def _bits(values):
    return [np.complex128(v).tobytes() for v in values]


class TestLazyCenters:
    """Centres are computed when read, and equal the eager detector's."""

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    def test_centers_match_direct_computation(self, backend):
        kernels.kernel_info()
        if backend == "cext" and kernels._compiled is None:
            pytest.skip("compiled kernel backend unavailable")
        with kernels.use_backend(backend):
            for iq in _detector_inputs():
                for guard, detect in ((True, detect_collision_iq),
                                      (False, cluster_iq)):
                    want_n, want_centers = _oracle(iq, guard)
                    result = detect(iq)
                    assert result.n_clusters == want_n
                    assert _bits(result.centers) == _bits(want_centers)

    def test_centers_come_from_a_copy_of_the_input(self):
        iq = next(_detector_inputs())
        want = _oracle(iq, True)
        result = detect_collision_iq(iq)
        iq[:] = 0.0
        assert (result.n_clusters, _bits(result.centers)) == (
            want[0], _bits(want[1])
        )

    def test_eager_construction_still_works(self):
        result = ClusterResult(3, [1j, 2j, 3j])
        assert result.collision and result.centers == [1j, 2j, 3j]
        assert ClusterResult(0).centers == []
        assert result == ClusterResult(3, (1j, 2j, 3j))
        assert "n_clusters=3" in repr(result)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"bins": 0}, "bins"),
        ({"bins": -1}, "bins"),
        ({"bins": 2.5}, "bins"),
        ({"bins": True}, "bins"),
        ({"bins": "24"}, "bins"),
        ({"peak_threshold": -0.5}, "peak_threshold"),
        ({"peak_threshold": 1.5}, "peak_threshold"),
        ({"peak_threshold": float("nan")}, "peak_threshold"),
        ({"peak_threshold": float("inf")}, "peak_threshold"),
        ({"peak_threshold": None}, "peak_threshold"),
    ],
)
def test_cluster_iq_rejects_bad_parameters(kwargs, field):
    with pytest.raises(ValueError, match=field):
        cluster_iq(np.ones(20, dtype=complex), **kwargs)


def test_cluster_iq_accepts_boundary_parameters():
    iq = next(_detector_inputs())
    for kwargs in ({"bins": 1}, {"bins": np.int64(24)},
                   {"peak_threshold": 0}, {"peak_threshold": 1.0},
                   {"peak_threshold": np.float64(0.5)}):
        assert cluster_iq(iq, **kwargs).n_clusters >= 1
