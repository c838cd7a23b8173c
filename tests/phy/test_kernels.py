"""Exactness battery for :mod:`repro.phy.kernels`.

Every compiled kernel must be **byte-identical** to its numpy/scipy
fallback — not "close": the kernels-on-vs-off parity suite
(``test_kernel_parity.py``) holds whole slot logs byte-stable, which
only works if every intermediate array matches to the last bit.  The
compiled implementations therefore replay numpy's exact floating
semantics (pairwise-free sequential folds, ``lerp`` quantiles,
half-to-even rounding, and the FMA-contracted complex multiply of the
projection stage), and this battery drives both backends over random
and adversarial inputs and compares raw bytes.

Also covered: the ``REPRO_PHY_KERNELS`` variable and the
``set_backend`` / ``use_backend`` override, ``kernel_info``
diagnostics, the warn-once contract for a requested-but-unavailable
compiled backend, clean numpy fallback when it cannot be built, and
the fused entries a failed load-time probe leaves out.
"""

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import butter, sosfilt

from repro.core.network import NetworkConfig
from repro.core.waveform_network import WaveformNetwork
from repro.phy import cache as phy_cache
from repro.phy import kernels
from repro.phy.kernels import _NUMPY_IMPL
from repro.phy.modem import BackscatterUplink, receiver_noise_baseband
from repro.phy.packets import UplinkPacket
from repro.phy.reader_dsp import ReaderReceiveChain

RNG = np.random.default_rng(0xC0FFEE)


def _compiled_table():
    kernels.kernel_info()  # forces selection
    table = kernels._compiled
    if table is None:
        pytest.skip(
            "no compiled kernel backend available "
            f"(load errors: {kernels._load_errors})"
        )
    return table


def _same_bytes(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and (
            a.tobytes() == b.tobytes()
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            _same_bytes(x, y) for x, y in zip(a, b)
        )
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _random_iq(n: int, kind: int) -> np.ndarray:
    if kind == 0:
        return RNG.normal(size=n) + 1j * RNG.normal(size=n)
    if kind == 1:  # OOK-ish two-level constellation plus noise
        levels = np.where(RNG.random(n) < 0.5, 0.2, 1.0)
        z = levels * np.exp(1j * 1.3) + 0.01 * (
            RNG.normal(size=n) + 1j * RNG.normal(size=n)
        )
        return z + complex(0.4, -0.2)
    return np.full(n, complex(RNG.normal(), RNG.normal()))  # degenerate


def _modes(n: int, k: int, rng=RNG) -> np.ndarray:
    """A k-mode constellation: OOK-like dwell on random centres."""
    centres = rng.normal(size=k) + 1j * rng.normal(size=k)
    dwell = np.repeat(rng.integers(0, k, size=n // 8 + 1), 8)[:n]
    return centres[dwell] + 0.02 * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _with_settle(body: np.ndarray) -> np.ndarray:
    """Prefix ``body`` with the samples the detector trims as settling."""
    m = len(body)
    n = next(n for n in range(m, 2 * m + 20) if n - min(n // 10, 200) == m)
    lead = RNG.normal(size=n - m) + 1j * RNG.normal(size=n - m)
    return np.concatenate([lead, body])


def _plateau_walk(small: int, large: int) -> np.ndarray:
    """A walk whose first differences are ``small`` unit steps and
    ``large`` 10x steps (shuffled): exactly ``small`` samples pass the
    plateau filter, and the spread clears the energy guard."""
    sizes = np.array([1.0] * small + [10.0] * large)
    RNG.shuffle(sizes)
    angles = np.where(sizes > 1.0, 0.0, RNG.uniform(0, 2 * np.pi, sizes.size))
    walk = np.concatenate([[0j], np.cumsum(sizes * np.exp(1j * angles))])
    return _with_settle(walk)


def _guard_edge(rng) -> list:
    """Two captures either side of ``total_var == 12 * noise_var``,
    found by bisecting the white-noise weight to one ulp."""
    m = 400
    slow = np.repeat(rng.choice([0.0, 1.0], size=m // 20), 20) + 0.5j
    noise = rng.normal(size=m) + 1j * rng.normal(size=m)
    lead = _with_settle(slow)[: -m]

    def capture(s):
        return np.concatenate([lead, slow + s * noise])

    def margin(s):
        _, total, noise_var = _NUMPY_IMPL["iq_clusters"](
            capture(s), 24, 0.15, True
        )
        return total - 12.0 * noise_var

    lo, hi = 0.0, 10.0
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return [capture(lo), capture(hi)]


def _detector_battery():
    """Inputs for the fused collision detector's exactness check."""
    for n in range(13):  # below and around the 8-sample floor
        yield _random_iq(n, 0)
    for n in range(2000, 2011):  # around the 200-sample settle cap
        yield _modes(n, 1 + n % 8)
    for n in (6400, 6500, 9000):  # 1%/99% too deep for the one-pass box
        yield _modes(n, 3)
    for n in (8, 9, 100, 1000, 2500):  # noise_var == 0
        yield np.full(n, complex(0.3, -1.2))
    for trial in range(8):
        for iq in _guard_edge(np.random.default_rng(trial)):
            _, total, noise_var = _NUMPY_IMPL["iq_clusters"](
                iq, 24, 0.15, True
            )
            assert abs(total - 12.0 * noise_var) <= 16 * np.spacing(total)
            yield iq
    for small in (49, 50, 51):
        iq = _plateau_walk(small, small - 1)
        verdict, pts, _, _ = kernels.detect_points(iq)
        trimmed = len(iq) - min(len(iq) // 10, 200)
        assert verdict is None
        assert len(pts) == (small if small >= 50 else trimmed)
        yield iq
    for trial in range(120):
        yield _modes(int(RNG.integers(8, 2600)), 1 + trial % 8)
    for trial in range(20):
        yield _random_iq(int(RNG.integers(8, 1500)), trial % 3)


#: The eight-tag topology of the ``waveform_steady`` benchmark.
STEADY_PERIODS = {
    "tag1": 4,
    "tag4": 4,
    "tag5": 8,
    "tag8": 8,
    "tag9": 16,
    "tag11": 16,
    "tag12": 32,
    "tag3": 32,
}


@functools.lru_cache(maxsize=None)
def _steady_captures(seed: int, slots: int = 48) -> tuple:
    """``(iq, baseband_rate_hz, raw_rate_bps)`` for every capture a
    ``waveform_steady``-topology run hands to ``decode_baseband``."""
    captured = []
    decode = ReaderReceiveChain.decode_baseband

    def record(self, iq, baseband_rate_hz, raw_rate_bps):
        captured.append((iq.copy(), baseband_rate_hz, raw_rate_bps))
        return decode(self, iq, baseband_rate_hz, raw_rate_bps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReaderReceiveChain, "decode_baseband", record)
        WaveformNetwork(STEADY_PERIODS, config=NetworkConfig(seed=seed)).run(slots)
    return tuple(captured)


def _uplink_capture(rate: float, rng) -> np.ndarray:
    """One clean packet at ``rate`` bps on the passband, with noise."""
    uplink = BackscatterUplink()
    comp = uplink.tag_component(
        UplinkPacket(7, 3210).to_bits(), rate, 0.01, phase_rad=0.7,
        lead_in_s=0.03,
    )
    return uplink.capture([comp], 1e-13, rng, extra_samples=2000)


def _raw_bits(iq, fs, rate, hysteresis=0.3, drift=0.0) -> np.ndarray:
    return _NUMPY_IMPL["fm0_chain"](iq, fs, rate, hysteresis, drift)[2]


def _reduceat_order_capture() -> np.ndarray:
    """A capture at 4.5 kHz whose 375-bps bit windows (samples 12k+1 ..
    12k+10) pin the order of each window's sum.

    Real-valued, with the median and the 10%/90% quantiles at 0 and
    -1/+1, so the chain neither rotates nor shifts it: the projection
    is the capture itself.  Bits are 12 samples of -1/+1; the trailing
    zeros centre the median and hold the slicer.  One window holds
    values whose sum is positive in ``np.add.reduceat``'s order
    (``a[lo] + pairwise_sum(a[lo+1:hi])``) but not as one pairwise sum.
    """
    bits = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 6)
    x = np.repeat(np.where(bits == 1, 1.0, -1.0), 12)
    x[13:23] = [0.07, -0.07, -0.05, 0.33, 0.25, -0.25, 0.05, 0.4, -0.4, -0.33]
    window = x[13:23]
    assert np.add.reduceat(window, [0])[0] > 0 >= np.sum(window)
    return np.concatenate([x, np.zeros(24)]) + 0j


def _chain_battery():
    """``(iq, baseband_rate_hz, raw_rate_bps, hysteresis, drift)`` inputs
    for the fused FM0 chain's exactness check."""
    rng = np.random.default_rng(0xF30)
    for seed in (0, 1, 2):
        for k, (iq, fs, rate) in enumerate(_steady_captures(seed)):
            yield iq, fs, rate, 0.3, 0.0
            if k % 3 == 0:
                yield iq, fs, rate, 0.3, 0.35
                yield iq, fs, rate, 0.3, -0.35
    iq, fs, rate = _steady_captures(0)[-1]
    assert _raw_bits(iq, fs, rate).size > 50
    for n in (0, 1, 2):
        yield _random_iq(n, 0), fs, rate, 0.3, 0.0
    flat = np.full(700, 0.8 + 0j)  # no offset to remove: zero spread
    assert _raw_bits(flat, fs, rate).size == 0
    yield flat, fs, rate, 0.3, 0.0
    # A constant off the real axis: the estimate's rounding leaves a
    # slow rotation behind, which the slicer then sees.
    yield np.full(700, complex(0.3, -1.2)), fs, rate, 0.3, 0.0
    # A ramp whose top stays under the drifted upper threshold: spread,
    # but no transitions.
    ramp = np.linspace(0.1, 1.0, 700) + 0j
    assert _raw_bits(ramp, fs, rate, 0.9, 0.99).size == 0
    yield ramp, fs, rate, 0.9, 0.99
    # Transitions, but shorter than one bit: no full window.
    short = iq[len(iq) // 2 : len(iq) // 2 + 9]
    corrected = _NUMPY_IMPL["fm0_chain"](short, fs, rate, 0.3, 0.0)[0]
    sliced = _NUMPY_IMPL["schmitt_full"](_NUMPY_IMPL["project"](corrected), 0.3, 0.0)
    assert np.any(np.diff(sliced))
    assert _raw_bits(short, fs, rate).size == 0
    yield short, fs, rate, 0.3, 0.0
    ordered = _reduceat_order_capture()
    assert _raw_bits(ordered, 4500.0, 375.0)[1] == 1
    yield ordered, 4500.0, 375.0, 0.3, 0.0
    # Truncations give odd and even raw-bit counts.
    counts = set()
    for n in range(len(iq) - 30, len(iq)):
        counts.add(_raw_bits(iq[:n], fs, rate).size % 2)
        yield iq[:n], fs, rate, 0.3, 0.0
    assert counts == {0, 1}
    chain = ReaderReceiveChain()
    for rate in (375.0, 750.0):
        bb, bb_fs = chain.raw_baseband(_uplink_capture(rate, rng), rate)
        yield bb, bb_fs, rate, 0.3, 0.0
        # A bit rate the decimation was not matched to: a fractional
        # number of samples per bit.
        yield bb, bb_fs, rate * 1.07, 0.3, 0.0
        yield bb, bb_fs, bb_fs / 7.5, 0.3, 0.0
    # Either side of the longest capture the compiled chain takes.
    for n in (kernels.MAX_CHAIN_SAMPLES, kernels.MAX_CHAIN_SAMPLES + 1):
        yield _random_iq(n, 1), fs, rate, 0.3, 0.0
    for trial in range(40):
        n = int(RNG.integers(3, 3000))
        yield (
            _random_iq(n, trial % 3), float(RNG.uniform(1000.0, 20000.0)),
            float(RNG.uniform(100.0, 2000.0)), float(RNG.uniform(0.0, 0.9)),
            float(RNG.uniform(-0.5, 0.5)),
        )


def _outcome(chain, backend, *args) -> tuple:
    """Every ``DecodeOutcome`` field of one decode, as comparable bytes."""
    with kernels.use_backend(backend):
        out = chain.decode_baseband(*args)
    return (
        out.packets,
        out.raw_bits,
        out.baseband.dtype,
        out.baseband.shape,
        out.baseband.tobytes(),
        type(out.frequency_offset_hz),
        np.float64(out.frequency_offset_hz).tobytes(),
    )


class TestCompiledMatchesNumpyBytes:
    """Each compiled kernel vs the fallback, raw-byte equality."""

    def test_median_and_mad(self):
        table = _compiled_table()
        for trial in range(60):
            n = int(RNG.integers(1, 2000))
            x = RNG.normal(size=n) * 10.0 ** RNG.integers(-6, 7)
            if trial % 5 == 0:
                # Exact ties, signed zeros among them: a zero result is
                # +0.0 on both backends, whichever zero the partition
                # placed.
                x = np.round(x * 10.0)
            assert _same_bytes(table["median"](x), _NUMPY_IMPL["median"](x))
            assert _same_bytes(
                table["mad_spread"](x), _NUMPY_IMPL["mad_spread"](x)
            )

    def test_two_quantiles(self):
        table = _compiled_table()
        for _ in range(60):
            n = int(RNG.integers(1, 1500))
            x = RNG.normal(size=n)
            q0 = float(RNG.random() * 0.5)
            q1 = q0 + float(RNG.random() * (1.0 - q0))
            assert _same_bytes(
                table["two_quantiles"](x, q0, q1),
                _NUMPY_IMPL["two_quantiles"](x, q0, q1),
            )

    def test_projection_pair_including_fma_contraction(self):
        # iq**2 and iq*rot go through numpy's FMA-contracted complex
        # multiply loop; a plain-ops expansion diverges by 1 ulp on
        # roughly every third input, so random data is adversarial
        # enough here.
        table = _compiled_table()
        for trial in range(80):
            iq = _random_iq(int(RNG.integers(8, 1200)), trial % 3)
            c = table["project_center"](iq)
            c_np = _NUMPY_IMPL["project_center"](iq)
            assert _same_bytes(c, c_np)
            rot = np.exp(-1j * float(RNG.normal()))
            args = (iq, c[0], c[1], rot.real, rot.imag, 0.1, 0.9)
            assert _same_bytes(
                table["project_finish"](*args),
                _NUMPY_IMPL["project_finish"](*args),
            )

    def test_fused_project_entry(self):
        table = _compiled_table()
        fused = table.get("project")
        if fused is None:
            pytest.skip("backend has no fused project composition")
        for trial in range(40):
            iq = _random_iq(int(RNG.integers(8, 1200)), trial % 3)
            composed = kernels._NUMPY_IMPL  # reference composition
            c = composed["project_center"](iq)
            m = c[2] + 1j * c[3]
            theta = 0.5 * np.angle(m) if m != 0 else 0.0
            rot = np.exp(-1j * theta)
            want = composed["project_finish"](
                iq, c[0], c[1], rot.real, rot.imag, 10.0 / 100.0, 90.0 / 100.0
            )
            assert _same_bytes(fused(iq), want)

    def test_schmitt_and_hysteresis(self):
        table = _compiled_table()
        for trial in range(60):
            n = int(RNG.integers(1, 2000))
            p = RNG.normal(size=n)
            if trial % 4 == 0:
                p = np.zeros(n)  # flat input: zero spread path
            hyst = float(RNG.random() * 0.9)
            drift = float(RNG.normal() * 0.2)
            assert _same_bytes(
                table["schmitt_full"](p, hyst, drift),
                _NUMPY_IMPL["schmitt_full"](p, hyst, drift),
            )
            hi, lo = 0.5, -0.5
            assert _same_bytes(
                table["schmitt_states"](p, hi, lo, trial % 2),
                _NUMPY_IMPL["schmitt_states"](p, hi, lo, trial % 2),
            )
            env = np.abs(p)
            assert _same_bytes(
                table["hysteresis_slice"](env, 0.6, 0.3),
                _NUMPY_IMPL["hysteresis_slice"](env, 0.6, 0.3),
            )

    def test_fm0_pairs_and_bit_grid(self):
        table = _compiled_table()
        for trial in range(60):
            n = 2 * int(RNG.integers(1, 500))
            raw = RNG.integers(0, 2, size=n).astype(np.uint8)
            assert _same_bytes(
                table["fm0_pairs"](raw, trial % 2),
                _NUMPY_IMPL["fm0_pairs"](raw, trial % 2),
            )
            n_samples = int(RNG.integers(10, 5000))
            spb = float(RNG.uniform(2.0, 40.0))
            offset = float(RNG.uniform(0.0, spb))
            margin = 0.1 * spb
            assert _same_bytes(
                table["bit_grid"](n_samples, spb, offset, margin),
                _NUMPY_IMPL["bit_grid"](n_samples, spb, offset, margin),
            )

    def test_hist2d_counts(self):
        table = _compiled_table()
        for trial in range(40):
            n = int(RNG.integers(1, 2000))
            bins = int(RNG.integers(2, kernels.MAX_HIST_BINS + 1))
            x = RNG.normal(size=n)
            y = RNG.normal(size=n)
            if trial % 4 == 0:
                # values exactly on edges (the last-edge fixup path)
                x = np.round(x)
                y = np.round(y)
            xr = (float(x.min()), float(x.max()) + 1e-9)
            yr = (float(y.min()) - 0.5, float(y.max()))
            assert _same_bytes(
                table["hist2d_counts"](x, y, bins, xr, yr),
                _NUMPY_IMPL["hist2d_counts"](x, y, bins, xr, yr),
            )

    def test_hist2d_binning_fix_up(self):
        # The compiled histogram guesses each bin arithmetically and
        # walks to the exact searchsorted count.  Probe every edge and
        # its neighbouring doubles, NaN (sorts last: dropped), the
        # infinities, the last edge (folds into the last bin) and a
        # zero-width range.
        table = _compiled_table()
        for bins in (1, 2, 7, 24, 64):
            for lo, hi in ((-1.3, 2.1), (0.0, 1e-300), (0.0, 5e-324),
                           (5.0, 5.0)):
                edges = np.linspace(lo, hi, bins + 1)
                x = np.concatenate([
                    edges,
                    np.nextafter(edges, -np.inf),
                    np.nextafter(edges, np.inf),
                    [np.nan, np.inf, -np.inf],
                ])
                y = RNG.permutation(x)
                assert _same_bytes(
                    table["hist2d_counts"](x, y, bins, (lo, hi), (lo, hi)),
                    _NUMPY_IMPL["hist2d_counts"](x, y, bins, (lo, hi), (lo, hi)),
                )

    def test_cluster_histogram_and_peaks(self):
        table = _compiled_table()
        for trial in range(60):
            n = int(RNG.integers(8, 2500))
            bins = int(RNG.integers(2, kernels.MAX_HIST_BINS + 1))
            iq = _random_iq(n, trial % 3)
            got = table["cluster_histogram"](iq, bins)
            want = _NUMPY_IMPL["cluster_histogram"](iq, bins)
            assert _same_bytes(got, want)
            thr = float(RNG.choice([0.0, 0.15, 0.5, 1.0]))
            hist = want[0]
            if trial % 5 == 0:
                hist = np.zeros((bins, bins))  # smax <= 0 path
            assert _same_bytes(
                table["cluster_peaks"](hist, thr),
                _NUMPY_IMPL["cluster_peaks"](hist, thr),
            )

    def test_fused_iq_clusters(self):
        # Count and guard statistics (total_var, noise_var) must match to
        # the bit: one ulp can flip ``total_var < 12 * noise_var``.
        table = _compiled_table()
        fused = table.get("iq_clusters")
        if fused is None:
            pytest.skip("the abs probe left the fused detector out")
        reference = _NUMPY_IMPL["iq_clusters"]
        cases = list(_detector_battery())
        assert len(cases) > 150
        for iq in cases:
            for guard in (True, False):
                for bins, thr in ((24, 0.15), (7, 0.0), (64, 1.0)):
                    assert _same_bytes(
                        fused(iq, bins, thr, guard),
                        reference(iq, bins, thr, guard),
                    ), (len(iq), guard, bins, thr)

    def test_fused_fm0_chain(self):
        # Offset, baseband, raw bits and both FM0 alignments must match
        # to the bit, and so must every field of the decode built on
        # them.
        table = _compiled_table()
        fused = table.get("fm0_chain")
        if fused is None:
            pytest.skip("the exp probe left the fused FM0 chain out")
        reference = _NUMPY_IMPL["fm0_chain"]
        cases = list(_chain_battery())
        assert len(cases) > 250
        decoded = 0
        for iq, fs, rate, hyst, drift in cases:
            if 0 < len(iq) <= kernels.MAX_CHAIN_SAMPLES:
                assert _same_bytes(
                    fused(iq, fs, rate, hyst, drift),
                    reference(iq, fs, rate, hyst, drift),
                ), (len(iq), fs, rate, hyst, drift)
            chain = ReaderReceiveChain(
                schmitt_hysteresis=hyst, threshold_drift=drift
            )
            want = _outcome(chain, "numpy", iq, fs, rate)
            assert _outcome(chain, "cext", iq, fs, rate) == want
            decoded += len(want[0])
        assert decoded > 50

    def test_passband_decode_matches_across_backends(self):
        _compiled_table()
        chain = ReaderReceiveChain()
        rng = np.random.default_rng(0xDEC)
        for rate in (375.0, 750.0):
            capture = _uplink_capture(rate, rng)
            outcomes = []
            for backend in ("numpy", "cext"):
                with kernels.use_backend(backend):
                    out = chain.decode(capture, rate)
                outcomes.append((
                    out.packets, out.raw_bits, out.baseband.tobytes(),
                    np.float64(out.frequency_offset_hz).tobytes(),
                ))
            assert outcomes[0] == outcomes[1]
            assert UplinkPacket(7, 3210) in outcomes[0][0]

    def test_envelope_and_filters(self):
        table = _compiled_table()
        from scipy.signal import butter

        for trial in range(30):
            n = int(RNG.integers(4, 4000))
            w = RNG.normal(size=n)
            alpha = float(RNG.uniform(0.01, 0.99))
            assert _same_bytes(
                table["envelope_rc"](w, alpha),
                _NUMPY_IMPL["envelope_rc"](w, alpha),
            )
            sos = butter(int(RNG.integers(2, 7)), float(RNG.uniform(0.01, 0.8)),
                         output="sos")
            draws = RNG.normal(size=2 * n)
            scale = float(RNG.uniform(1e-6, 10.0))
            assert _same_bytes(
                table["receiver_noise"](draws, scale, sos),
                _NUMPY_IMPL["receiver_noise"](draws, scale, sos),
            )
            real = RNG.normal(size=n)
            lo = np.exp(-1j * np.linspace(0.0, 20.0, n))
            dec = int(RNG.integers(1, 30))
            assert _same_bytes(
                table["mix_sosfilt_decimate"](real, lo, sos, dec),
                _NUMPY_IMPL["mix_sosfilt_decimate"](real, lo, sos, dec),
            )


def _selections(table, x) -> tuple:
    """Every order-statistic entry of ``table`` on the real array ``x``:
    median, MAD spread (when the median is finite, so no deviation is
    NaN) and four quantile pairs."""
    out = [table["median"](x)]
    if math.isfinite(_NUMPY_IMPL["median"](x)):
        out.append(table["mad_spread"](x))
    for q0, q1 in ((0.1, 0.9), (0.01, 0.99), (0.0, 1.0), (0.5, 0.5)):
        out.append(table["two_quantiles"](x, q0, q1))
    return tuple(out)


def _signed_zero_ties(n: int, rng) -> np.ndarray:
    """Continuous values with a random share of them set to +0.0 or
    -0.0: a zero median or quantile is then likely, and its sign is
    whichever tied zero the partition placed."""
    x = rng.normal(size=n)
    k = int(rng.integers(1, n + 1))
    x[rng.choice(n, size=k, replace=False)] = rng.choice([0.0, -0.0], size=k)
    return x


#: The compiled selection samples every eighth value.
SAMPLE_STRIDE = 8


def _bracket_defeating_shapes():
    """Real arrays a strided-sample bracket misses or collapses on, or
    a Lomuto pivot degrades on."""
    rng = np.random.default_rng(0xB4AC)
    for n in [*range(1, 101), 127, 128, 129, 1000, 1001, 16383]:
        ramp = np.arange(n, dtype=float)
        yield np.full(n, 0.7)  # all equal
        yield np.where(rng.random(n) < 0.5, 0.2, 1.0)  # two-valued
        yield ramp  # sorted
        yield ramp[::-1].copy()  # reversed
        yield np.minimum(ramp, ramp[::-1])  # organ pipe
        # Period equal to the sample stride: every sampled value is one
        # phase of the period.
        yield np.tile(rng.normal(size=SAMPLE_STRIDE), n // SAMPLE_STRIDE + 1)[:n]
        yield rng.choice([-np.inf, np.inf, -1.5, 2.5, -0.0, 0.0], size=n)
        yield np.round(rng.normal(size=n) * 2.0)  # ties, signed zeros
    # The sampled values hold t values below the lower middle one, the
    # lower middle value itself, and only larger values after it: for
    # one t the bracket's top is the lower middle value, so the upper
    # one lies just outside the gathered values.
    for n in (256, 1000):
        h = n // 2
        sampled = np.arange(n // SAMPLE_STRIDE) * SAMPLE_STRIDE + SAMPLE_STRIDE // 2
        rest = np.setdiff1d(np.arange(n), sampled)
        for t in range(sampled.size):
            high = sampled.size - t - 1
            chosen = np.concatenate(
                [np.arange(t), [h - 1], np.arange(n - high, n)]
            )
            x = np.empty(n)
            x[sampled] = rng.permutation(chosen)
            x[rest] = rng.permutation(np.setdiff1d(np.arange(n), chosen))
            yield x


#: Runs every compiled and numpy selection entry on NaN-filled and
#: NaN-salted inputs; prints ``ok`` when each returned.
_NAN_SCRIPT = """
import numpy as np
from repro.phy import kernels

kernels.kernel_info()
for table in (kernels._compiled, kernels._NUMPY_IMPL):
    for n in (1, 2, 7, 8, 129, 1000, 7000):
        ramp = np.arange(n, dtype=float)
        for x in (np.full(n, np.nan), np.where(ramp % 3 == 0, np.nan, ramp)):
            iq = x + 1j * x[::-1]
            table["median"](x)
            table["mad_spread"](x)
            table["two_quantiles"](x, 0.1, 0.9)
            table["two_quantiles"](x, 0.01, 0.99)
            table["project_center"](iq)
            table["project_finish"](iq, 0.0, 0.0, 1.0, 0.0, 0.1, 0.9)
            table["project"](iq)
            table["schmitt_full"](x, 0.3, 0.0)
            table["cluster_histogram"](iq, 24)
            for guard in (True, False):
                table.get("iq_clusters", kernels._NUMPY_IMPL["iq_clusters"])(
                    iq, 24, 0.15, guard
                )
            table.get("fm0_chain", kernels._NUMPY_IMPL["fm0_chain"])(
                iq, 4500.0, 375.0, 0.3, 0.0
            )
print("ok")
"""

#: Exact ties for the selection property: signed zeros, small values
#: and the smallest subnormals.
_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 5e-324, -5e-324])
_FLOATS = st.floats(-1e150, 1e150, allow_nan=False, allow_subnormal=True)


class TestSelectionExactness:
    """Every compiled median and quantile against its numpy twin, byte
    for byte, where a selection algorithm can go wrong: signed-zero
    ties, inputs that defeat the sampled bracket, NaN."""

    def test_project_center_on_random_captures(self):
        # The centre sample makes z.real exactly +0.0, so (z**2).imag
        # holds signed zeros next to its median.
        table = _compiled_table()
        rng = np.random.default_rng(0xCE27)
        differ = 0
        for _ in range(20_000):
            n = int(rng.integers(1, 1200))
            iq = rng.normal(size=n) + 1j * rng.normal(size=n)
            differ += not _same_bytes(
                table["project_center"](iq), _NUMPY_IMPL["project_center"](iq)
            )
        assert differ == 0, f"{differ} of 20000 captures differ"

    def test_signed_zero_ties(self):
        table = _compiled_table()
        rng = np.random.default_rng(0x5160)
        differ = 0
        for _ in range(5_000):
            x = _signed_zero_ties(int(rng.integers(1, 400)), rng)
            differ += not _same_bytes(_selections(table, x), _selections(_NUMPY_IMPL, x))
        assert differ == 0, f"{differ} of 5000 inputs differ"

    def test_shapes_that_defeat_a_sampled_bracket(self):
        table = _compiled_table()
        cases = 0
        for x in _bracket_defeating_shapes():
            assert _same_bytes(_selections(table, x), _selections(_NUMPY_IMPL, x)), (
                x.size, x[:12]
            )
            if np.isfinite(x).all():
                assert table["median"](x) == np.median(x)
                assert table["two_quantiles"](x, 0.1, 0.9) == tuple(
                    np.quantile(x, [0.1, 0.9])
                )
                iq = x + 1j * x[::-1]
                assert _same_bytes(
                    table["project_center"](iq), _NUMPY_IMPL["project_center"](iq)
                )
            cases += 1
        assert cases == 8 * 106 + 256 // SAMPLE_STRIDE + 1000 // SAMPLE_STRIDE

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x=hnp.arrays(
            np.float64, st.integers(1, 300), elements=st.one_of(_TIES, _FLOATS)
        ),
        q=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_selection_property(self, x, q):
        table = _compiled_table()
        q0, q1 = sorted(q)
        assert _same_bytes(_selections(table, x), _selections(_NUMPY_IMPL, x))
        assert _same_bytes(
            table["two_quantiles"](x, q0, q1), _NUMPY_IMPL["two_quantiles"](x, q0, q1)
        )

    def test_every_selection_entry_returns_on_nan(self):
        # A partition whose NaN pivot never advances would hang, so the
        # run is a subprocess that must finish within seconds.
        _compiled_table()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _NAN_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"


def _noise_draws(rng):
    """``2 * n`` standard-normal draws for the noise kernel, signed
    zeros injected: scattered, as whole leading runs (the filter state
    is still zero there, so a zero's sign reaches the output) and as
    the whole draw; and draws small enough to underflow."""
    yield np.empty(0)  # n = 0
    yield rng.normal(size=2)  # n = 1
    for n in (1, 2, 3, 50, 980, 4100):
        d = rng.normal(size=2 * n)
        yield d
        zeros = d.copy()
        k = int(rng.integers(1, 2 * n + 1))
        zeros[rng.choice(2 * n, size=k, replace=False)] = rng.choice(
            [0.0, -0.0], size=k
        )
        yield zeros
        lead = d.copy()
        run = int(rng.integers(1, n + 1))
        lead[:run] = rng.choice([0.0, -0.0], size=run)
        lead[n : n + run] = rng.choice([0.0, -0.0], size=run)
        yield lead
        yield rng.choice([0.0, -0.0], size=2 * n)
        # Times a +-1e-150 scale these underflow: numpy's contracted
        # multiply gives each zero the sign of the exact product.
        yield d * 1e-200


class TestReceiverNoise:
    """The one-call noise kernel against its numpy twin, and the noise
    helper against the two-draw expression it replaced."""

    def test_kernel_matches_numpy_twin(self):
        table = _compiled_table()
        rng = np.random.default_rng(0x4015E)
        designs = [phy_cache.butter_lowpass_sos(4, 750.0 / (500_000.0 / 111 / 2.0))]
        designs += [
            butter(order, float(rng.uniform(0.01, 0.9)), output="sos")
            for order in (1, 2, 5)
        ]
        # A pass-through section: its zero coefficients let the sign of
        # a zero input reach the output.
        designs.append(np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]))
        for draws in _noise_draws(rng):
            for sos in designs:
                for scale in (1.6e-4, 1.0, -3.0, 0.0, 1e-150, -1e-150):
                    assert _same_bytes(
                        table["receiver_noise"](draws, scale, sos),
                        _NUMPY_IMPL["receiver_noise"](draws, scale, sos),
                    ), (draws.size, sos.shape, scale)

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    def test_one_draw_matches_the_two_draw_expression(self, backend):
        if backend == "cext":
            _compiled_table()
        psd, fs, cutoff, decimation = 1e-10, 500_000.0, 750.0, 111
        sos = phy_cache.butter_lowpass_sos(4, cutoff / (fs / decimation / 2.0))
        scale = math.sqrt(psd * fs / 2.0) / math.sqrt(2.0 * decimation)
        for n in (0, 1, 2, 980, 4100):
            got_rng = np.random.default_rng(n)
            with kernels.use_backend(backend):
                got = receiver_noise_baseband(n, psd, fs, cutoff, decimation, got_rng)
            want_rng = np.random.default_rng(n)
            noise = want_rng.standard_normal(n) + 1j * want_rng.standard_normal(n)
            noise *= scale
            want = sosfilt(sos, noise) if n else noise
            assert _same_bytes(got, want), n
            # The generator is left where the two draws left it.
            assert _same_bytes(got_rng.standard_normal(3), want_rng.standard_normal(3))


class TestDispatchedWrappers:
    """The public wrappers agree with the fallback regardless of the
    active backend (exercises the dispatch + lane-buffer plumbing)."""

    def test_wrappers_match_numpy(self):
        iq = _random_iq(700, 1)
        with kernels.use_backend("numpy"):
            want = kernels.project(iq)
            want_s = kernels.schmitt_full(want, 0.3, 0.0)
        assert _same_bytes(kernels.project(iq), want)
        assert _same_bytes(kernels.schmitt_full(want, 0.3, 0.0), want_s)
        for guard in (True, False):
            assert _same_bytes(
                kernels.iq_clusters(iq, 24, 0.15, guard),
                _NUMPY_IMPL["iq_clusters"](iq, 24, 0.15, guard),
            )

    def test_oversize_bins_route_to_numpy(self):
        iq = _random_iq(300, 0)
        big = kernels.MAX_HIST_BINS + 8
        for guard in (True, False):
            assert _same_bytes(
                kernels.iq_clusters(iq, big, 0.15, guard),
                _NUMPY_IMPL["iq_clusters"](iq, big, 0.15, guard),
            )
        hist, xe, ye = _NUMPY_IMPL["cluster_histogram"](iq, big)
        assert hist.shape == (big, big)
        smoothed, labels, n_peaks, smax = _NUMPY_IMPL["cluster_peaks"](hist, 0.15)
        assert labels.shape == (big, big)
        assert labels.dtype == np.int32
        assert n_peaks >= 1
        assert smax > 0

    def test_empty_and_degenerate_inputs(self):
        assert kernels.project(np.empty(0, dtype=complex)).size == 0
        for table in (_NUMPY_IMPL, kernels._active()):
            lo, hi = table["bit_grid"](100, 0.0, 0.0, 0.0)
            assert lo.size == 0 and hi.size == 0
        bits, viol = kernels.fm0_pairs(np.empty(0, dtype=np.uint8))
        assert bits.size == 0 and viol.size == 0
        for backend in ("numpy", kernels.backend()):
            with kernels.use_backend(backend):
                assert kernels.schmitt_full(np.empty(0), 0.3, 0.0).size == 0
                baseband, offset, raw, alignments = kernels.fm0_chain(
                    np.empty(0, dtype=complex), 4500.0, 375.0, 0.3, 0.0
                )
            assert baseband.dtype == np.complex128 and baseband.size == 0
            assert offset == 0.0 and raw.size == 0 and alignments == ()

    @pytest.mark.parametrize("rates", [(0.0, 375.0), (4500.0, 0.0), (-1.0, 1.0)])
    def test_fm0_chain_rejects_non_positive_rates(self, rates):
        with pytest.raises(ValueError, match="must be positive"):
            kernels.fm0_chain(_random_iq(50, 0), *rates, 0.3, 0.0)


class TestSelectionApi:
    def test_backend_name_is_known(self):
        assert kernels.backend() in ("cext", "numpy")

    def test_gate_forces_numpy(self):
        # The ambient default may itself be numpy (e.g. the CI
        # REPRO_PHY_KERNELS=0 leg) — the scope must restore it either way.
        ambient = kernels.backend()
        with kernels.use_backend("numpy"):
            assert kernels.backend() == "numpy"
        assert kernels.backend() == ambient

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        assert kernels.backend() == "numpy"
        monkeypatch.setenv(kernels.KERNELS_ENV, "1")
        loaded = kernels.kernel_info()["compiled_kernels"] > 0
        assert kernels.backend() == ("cext" if loaded else "numpy")
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        if loaded:
            with kernels.use_backend("cext"):  # override beats env
                assert kernels.backend() == "cext"

    def test_kernel_info_shape(self):
        info = kernels.kernel_info()
        assert info["backend"] in ("cext", "numpy")
        assert set(info["kernels"]) == set(_NUMPY_IMPL)
        assert isinstance(info["load_errors"], dict)
        assert info["compiled_kernels"] >= 0
        if "cext" in info["load_errors"]:
            assert info["compiled_kernels"] == 0

    def test_forcing_numpy_backend(self):
        with kernels.use_backend("numpy"):
            assert kernels.backend() == "numpy"

    def test_forcing_unavailable_backend_raises(self, monkeypatch):
        kernels.reset_selection()
        try:
            _block_cext(monkeypatch)
            with pytest.raises(RuntimeError):
                kernels.set_backend("cext")
        finally:
            kernels.reset_selection()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")


def _block_cext(monkeypatch):
    """Make the C backend unloadable, as on a host without ``cc``."""
    from repro.phy import _kernels_c

    def no_compiler():
        raise OSError("no C compiler")

    monkeypatch.setattr(_kernels_c, "load", no_compiler)


def _selection_under(monkeypatch, value):
    """``kernel_info()`` (minus the raw ``requested`` text) and the
    outcome of forcing ``cext``, on a fresh selection with
    ``REPRO_PHY_KERNELS=value``."""
    monkeypatch.setenv(kernels.KERNELS_ENV, value)
    kernels.reset_selection()
    info = kernels.kernel_info()
    del info["requested"]
    try:
        with kernels.use_backend("cext"):
            forced = kernels.backend()
    except RuntimeError:
        forced = "RuntimeError"
    return info, forced


class TestGracefulDegradation:
    @pytest.fixture
    def fresh_selection(self):
        """Drop the pinned backend, restore it after the test."""
        kernels.reset_selection()
        yield
        kernels.reset_selection()

    def test_cext_absent_falls_back_cleanly(self, monkeypatch,
                                            fresh_selection):
        # No compiler: selection must fall back without raising or
        # warning (the backend was not *requested*, it lost the probe).
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        _block_cext(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name = kernels.backend()
        assert name == "numpy"
        info = kernels.kernel_info()
        assert info["compiled_kernels"] == 0
        # The probe failure is recorded for diagnostics.
        assert "cext" in info["load_errors"]

    def test_requested_unavailable_warns_once(self, monkeypatch,
                                              fresh_selection):
        monkeypatch.setenv(kernels.KERNELS_ENV, "cext")
        _block_cext(monkeypatch)
        with pytest.warns(RuntimeWarning, match="cext"):
            kernels.backend()
        # Once per process: the second use stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.backend()
            kernels.schmitt_full(np.arange(5.0), 0.3, 0.0)

    def test_unrequested_fallback_reports_reason(self, monkeypatch,
                                                 fresh_selection):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        _block_cext(monkeypatch)
        assert kernels.kernel_info()["fallback_reason"].startswith(
            "cext unavailable: OSError"
        )
        # A requested numpy backend is no fallback.
        with kernels.use_backend("numpy"):
            assert kernels.kernel_info()["fallback_reason"] is None

    @pytest.mark.parametrize(
        "spelling", ["0", "false", "off", "no", "numpy", " NumPy "]
    )
    def test_numpy_spellings_are_one_request(self, monkeypatch,
                                             fresh_selection, spelling):
        # Every numpy spelling runs numpy and still loads the library,
        # so kernel_info() reports it and set_backend("cext") can force
        # it (the kernels-off CI leg runs the exactness battery on it).
        want = _selection_under(monkeypatch, "0")
        got = _selection_under(monkeypatch, spelling)
        assert got == want
        info, forced = got
        assert info["backend"] == "numpy"
        assert info["fallback_reason"] is None
        loaded = "cext" not in info["load_errors"]
        assert forced == ("cext" if loaded else "RuntimeError")

    def test_failed_abs_probe_falls_back_to_numpy_detector(
        self, monkeypatch, fresh_selection
    ):
        # A host whose numpy computes complex abs differently keeps the
        # other compiled kernels but runs the numpy collision detector.
        from repro.phy import _kernels_c

        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        monkeypatch.setattr(_kernels_c, "_abs_matches_numpy", lambda lib: False)
        table = _compiled_table()
        assert "iq_clusters" not in table
        info = kernels.kernel_info()
        assert info["backend"] == "cext"
        assert "iq_clusters" in info["composed"]
        for iq in _detector_battery():
            for guard in (True, False):
                assert _same_bytes(
                    kernels.iq_clusters(iq, 24, 0.15, guard),
                    _NUMPY_IMPL["iq_clusters"](iq, 24, 0.15, guard),
                )

    def test_failed_exp_probe_falls_back_to_numpy_chain(
        self, monkeypatch, fresh_selection
    ):
        # A host whose numpy computes complex exp differently keeps the
        # other compiled kernels but runs the numpy FM0 chain.
        from repro.phy import _kernels_c

        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        monkeypatch.setattr(_kernels_c, "_exp_matches_numpy", lambda lib: False)
        table = _compiled_table()
        assert "fm0_chain" not in table
        assert "project" in table
        info = kernels.kernel_info()
        assert info["backend"] == "cext"
        assert "fm0_chain" in info["composed"]
        for iq, fs, rate, hyst, drift in _chain_battery():
            if len(iq):
                assert _same_bytes(
                    kernels.fm0_chain(iq, fs, rate, hyst, drift),
                    _NUMPY_IMPL["fm0_chain"](iq, fs, rate, hyst, drift),
                )
