"""Tests for the resonance-calibration sweep."""

import numpy as np
import pytest

from repro.channel.resonance import (
    DEFAULT_MODES,
    PlateMode,
    ResonanceCalibrator,
)


class TestPlateMode:
    def test_peak_at_mode_frequency(self):
        mode = PlateMode(90_000.0, 1.0)
        freqs = np.linspace(80_000, 100_000, 2001)
        response = mode.response(freqs)
        peak = freqs[np.argmax(response)]
        assert peak == pytest.approx(90_000.0, abs=50)

    def test_amplitude_scales_response(self):
        weak = PlateMode(90_000.0, 0.5)
        strong = PlateMode(90_000.0, 1.0)
        f = np.array([90_000.0])
        assert strong.response(f)[0] == pytest.approx(2 * weak.response(f)[0])


class TestCalibration:
    def test_finds_90khz_carrier(self):
        cal = ResonanceCalibrator()
        carrier = cal.calibrate_carrier_hz()
        assert carrier == pytest.approx(90_000.0, abs=200)

    def test_noisy_sweep_still_converges(self, rng):
        cal = ResonanceCalibrator(noise_floor=0.02)
        carrier = cal.calibrate_carrier_hz(rng)
        assert carrier == pytest.approx(90_000.0, abs=500)

    def test_mode_discovery_matches_fdma_plan(self):
        # The secondary modes the sweep finds are the FDMA subcarriers.
        from repro.multireader import FdmaChannelPlan

        sweep = ResonanceCalibrator().sweep(n_points=1601)
        modes = sweep.find_modes()
        plan = FdmaChannelPlan()
        for f in plan.frequencies_hz:
            assert any(abs(m - f) < 600 for m in modes), f"mode {f} missing"

    def test_sweep_resolution_affects_only_precision(self):
        coarse = ResonanceCalibrator().sweep(n_points=51).peak_frequency_hz()
        fine = ResonanceCalibrator().sweep(n_points=2001).peak_frequency_hz()
        assert coarse == pytest.approx(fine, abs=1000)

    def test_dominant_mode_wins_even_when_others_present(self):
        # Swap amplitudes: make 84.5 kHz dominant and verify the
        # calibration follows the structure, not a hard-coded constant.
        modes = (PlateMode(90_000.0, 0.4), PlateMode(84_500.0, 1.0))
        cal = ResonanceCalibrator(modes=modes)
        assert cal.calibrate_carrier_hz() == pytest.approx(84_500.0, abs=300)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResonanceCalibrator(modes=())
        with pytest.raises(ValueError):
            ResonanceCalibrator().sweep(f_lo_hz=0.0)
        with pytest.raises(ValueError):
            ResonanceCalibrator().sweep(n_points=2)
        with pytest.raises(ValueError):
            ResonanceCalibrator().response_at(np.array([-1.0]))
