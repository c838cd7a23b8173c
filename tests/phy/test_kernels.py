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

Also covered: the ``REPRO_PHY_KERNELS`` gate / backend-override API,
``kernel_info`` diagnostics, the warn-once contract for a
requested-but-unavailable compiled backend, and clean numpy fallback
when it cannot be built.
"""

import warnings

import numpy as np
import pytest

from repro.phy import kernels
from repro.phy.kernels import _NUMPY_IMPL

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


class TestCompiledMatchesNumpyBytes:
    """Each compiled kernel vs the fallback, raw-byte equality."""

    def test_median_and_mad(self):
        table = _compiled_table()
        for trial in range(60):
            n = int(RNG.integers(1, 2000))
            x = RNG.normal(size=n) * 10.0 ** RNG.integers(-6, 7)
            if trial % 5 == 0:
                # Exact ties, kept non-negative: partition order among
                # equal-comparing elements is implementation-defined,
                # so mixed ±0.0 ties may legitimately differ in the
                # sign of a zero result (the pipeline feeds these
                # kernels abs-derived or continuous data).
                x = np.round(np.abs(x) * 10.0)
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
            x = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            assert _same_bytes(
                table["sosfilt_complex"](sos, x),
                _NUMPY_IMPL["sosfilt_complex"](sos, x),
            )
            real = RNG.normal(size=n)
            lo = np.exp(-1j * np.linspace(0.0, 20.0, n))
            dec = int(RNG.integers(1, 30))
            assert _same_bytes(
                table["mix_sosfilt_decimate"](real, lo, sos, dec),
                _NUMPY_IMPL["mix_sosfilt_decimate"](real, lo, sos, dec),
            )


class TestDispatchedWrappers:
    """The public wrappers agree with the fallback regardless of the
    active backend (exercises the dispatch + lane-buffer plumbing)."""

    def test_wrappers_match_numpy(self):
        iq = _random_iq(700, 1)
        p = np.real(iq)
        assert _same_bytes(kernels.median(p), _NUMPY_IMPL["median"](p))
        assert _same_bytes(
            kernels.two_percentiles(p, 1.0, 99.0),
            _NUMPY_IMPL["two_quantiles"](p, 0.01, 0.99),
        )
        with kernels.use_kernels(False):
            want = kernels.project(iq)
        assert _same_bytes(kernels.project(iq), want)
        with kernels.use_kernels(False):
            want_s = kernels.schmitt_full(want, 0.3, 0.0)
        assert _same_bytes(kernels.schmitt_full(want, 0.3, 0.0), want_s)

    def test_oversize_bins_route_to_numpy(self):
        iq = _random_iq(300, 0)
        big = kernels.MAX_HIST_BINS + 8
        hist, xe, ye = kernels.cluster_histogram(iq, big)
        assert hist.shape == (big, big)
        smoothed, labels, n_peaks, smax = kernels.cluster_peaks(hist, 0.15)
        assert labels.shape == (big, big)
        assert labels.dtype == np.int32
        assert n_peaks >= 1
        assert smax > 0

    def test_empty_and_degenerate_inputs(self):
        assert kernels.project(np.empty(0, dtype=complex)).size == 0
        lo, hi = kernels.bit_grid(100, 0.0, 0.0, 0.0)
        assert lo.size == 0 and hi.size == 0
        bits, viol = kernels.fm0_pairs(np.empty(0, dtype=np.uint8))
        assert bits.size == 0 and viol.size == 0


class TestSelectionApi:
    def test_backend_name_is_known(self):
        assert kernels.backend() in ("cext", "numpy")

    def test_gate_forces_numpy(self):
        # The ambient default may itself be off (e.g. the CI
        # REPRO_PHY_KERNELS=0 leg) — the scope must restore it either way.
        ambient = kernels.kernels_enabled()
        with kernels.use_kernels(False):
            assert kernels.backend() == "numpy"
            assert not kernels.kernels_enabled()
        assert kernels.kernels_enabled() == ambient

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        assert not kernels.kernels_enabled()
        assert kernels.backend() == "numpy"
        monkeypatch.setenv(kernels.KERNELS_ENV, "1")
        assert kernels.kernels_enabled()
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        with kernels.use_kernels(True):  # override beats env
            assert kernels.kernels_enabled()

    def test_kernel_info_shape(self):
        info = kernels.kernel_info()
        assert info["backend"] in ("cext", "numpy")
        assert set(info["kernels"]) == set(_NUMPY_IMPL)
        assert isinstance(info["load_errors"], dict)
        assert info["compiled_kernels"] >= 0
        if info["compiled_backend"] is None:
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
        assert info["compiled_backend"] is None
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
            kernels.median(np.arange(5.0))
