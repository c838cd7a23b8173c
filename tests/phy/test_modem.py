"""Tests for waveform synthesis."""

import numpy as np
import pytest

from repro.channel import acoustics
from repro.phy.modem import (
    BackscatterUplink,
    FskOokDownlink,
    carrier,
    raw_bits_to_levels,
    receiver_noise_baseband,
)
from phy.oracles import (
    naive_ook_waveform_reference,
    raw_bits_to_levels_reference,
)


class TestLevels:
    def test_sample_counts(self):
        levels = raw_bits_to_levels([1, 0, 1], 1000.0, 10_000.0)
        assert len(levels) == 30
        assert list(levels[:10]) == [1.0] * 10
        assert list(levels[10:20]) == [0.0] * 10

    def test_no_cumulative_drift(self):
        # 1000 bits at an awkward ratio must still land on the exact
        # total length.
        levels = raw_bits_to_levels([1] * 1000, 375.0, 500_000.0)
        assert len(levels) == round(1000 * 500_000 / 375)

    def test_invalid_bit_raises(self):
        with pytest.raises(ValueError):
            raw_bits_to_levels([2], 1000.0, 10_000.0)

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            raw_bits_to_levels([1], 0.0, 10.0)


class TestCarrier:
    def test_amplitude_and_frequency(self):
        fs = 500_000.0
        wave = carrier(5000, 0.5, fs, 90_000.0)
        assert np.max(np.abs(wave)) == pytest.approx(0.5, rel=1e-3)
        spectrum = np.abs(np.fft.rfft(wave))
        peak = np.fft.rfftfreq(5000, 1 / fs)[np.argmax(spectrum)]
        assert peak == pytest.approx(90_000.0, abs=200)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            carrier(-1, 1.0)


class TestBackscatterUplink:
    def test_component_has_two_amplitude_levels(self):
        up = BackscatterUplink()
        comp = up.tag_component([1, 0, 1, 1], 1000.0, 0.01, lead_in_s=0.0)
        env = np.abs(comp)
        hi = np.percentile(env, 98)
        ratio = up.pzt.absorptive_coefficient / up.pzt.reflective_coefficient
        assert hi == pytest.approx(0.01, rel=0.05)
        # The OFF level is the absorptive reflection, not silence.
        assert np.min(np.abs(comp[np.abs(comp) > 1e-6])) < 0.01 * ratio * 1.2

    def test_delay_prepends_silence(self):
        up = BackscatterUplink()
        comp = up.tag_component([1], 1000.0, 0.01, delay_s=1e-3, lead_in_s=0.0)
        n_delay = int(1e-3 * up.sample_rate_hz)
        assert np.all(comp[:n_delay] == 0.0)

    def test_lead_in_is_absorptive_level(self):
        up = BackscatterUplink()
        comp = up.tag_component([1], 1000.0, 0.01, lead_in_s=0.005)
        lead = comp[: int(0.004 * up.sample_rate_hz)]
        ratio = up.pzt.absorptive_coefficient / up.pzt.reflective_coefficient
        assert np.max(np.abs(lead)) == pytest.approx(0.01 * ratio, rel=0.05)

    def test_capture_sums_components_and_leak(self, rng):
        up = BackscatterUplink(leak_amplitude_v=0.2)
        c1 = up.tag_component([1, 0], 1000.0, 0.01, lead_in_s=0.0)
        cap = up.capture([c1], 1e-14, rng)
        assert np.max(np.abs(cap)) > 0.19  # leak dominates

    def test_capture_empty_raises_without_extra(self, rng):
        with pytest.raises(ValueError):
            BackscatterUplink().capture([], 1e-10, rng)

    def test_capture_noise_floor(self, rng):
        up = BackscatterUplink(leak_amplitude_v=0.0)
        cap = up.capture([], 1e-8, rng, extra_samples=100_000)
        expected_var = 1e-8 * up.sample_rate_hz / 2
        assert np.var(cap) == pytest.approx(expected_var, rel=0.05)


class TestFskOokDownlink:
    def test_on_off_contrast_at_envelope(self):
        dl = FskOokDownlink()
        wave = dl.beacon_waveform([1, 0, 1], 250.0)
        # ON segments reach the full amplitude; OFF segments sit at the
        # attenuated off-frequency drive.
        assert np.max(np.abs(wave)) == pytest.approx(1.0, rel=0.01)
        raw_bit = int(dl.sample_rate_hz / 250.0)
        off_segment = wave[2 * raw_bit + raw_bit // 4 : 3 * raw_bit - raw_bit // 4]
        assert np.max(np.abs(off_segment)) < 0.15

    def test_naive_ook_rings_longer_than_fsk(self):
        dl = FskOokDownlink()
        bits = [1, 0]
        fsk = dl.beacon_waveform(bits, 250.0)
        naive = dl.naive_ook_waveform(bits, 250.0)
        raw_bit = int(dl.sample_rate_hz / 250.0)
        # Look just after the first ON->OFF transition (~0.4 ms in).
        start = 2 * raw_bit + int(0.0002 * dl.sample_rate_hz)
        window = slice(start, start + 200)
        assert np.max(np.abs(naive[window])) > np.max(np.abs(fsk[window]))

    def test_link_gain_scales(self):
        dl = FskOokDownlink()
        full = dl.beacon_waveform([1], 250.0, link_gain=1.0)
        half = dl.beacon_waveform([1], 250.0, link_gain=0.5)
        assert np.max(np.abs(half)) == pytest.approx(np.max(np.abs(full)) / 2)


class TestVectorizedEquivalence:
    """The vectorized kernels must match the scalar oracles: bit-exact where the arithmetic is identical, and
    within a few ULPs where associativity differs."""

    def test_levels_bit_exact_awkward_ratios(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_bits = int(rng.integers(1, 200))
            bits = rng.integers(0, 2, size=n_bits).tolist()
            rate = float(rng.uniform(100.0, 5000.0))
            fs = float(rng.uniform(50_000.0, 500_000.0))
            fast = raw_bits_to_levels(bits, rate, fs)
            slow = raw_bits_to_levels_reference(bits, rate, fs)
            np.testing.assert_array_equal(fast, slow)

    def test_levels_bit_exact_paper_rates(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        for rate in (250.0, 375.0, 500.0, 1000.0, 2000.0):
            fast = raw_bits_to_levels(bits, rate, 500_000.0)
            slow = raw_bits_to_levels_reference(bits, rate, 500_000.0)
            np.testing.assert_array_equal(fast, slow)

    def test_naive_ook_matches_reference(self):
        dl = FskOokDownlink()
        rng = np.random.default_rng(7)
        for n_bits in (2, 5, 12):
            bits = rng.integers(0, 2, size=n_bits).tolist()
            fast = dl.naive_ook_waveform(bits, 250.0)
            slow = naive_ook_waveform_reference(dl, bits, 250.0)
            assert fast.shape == slow.shape
            scale = np.max(np.abs(slow)) or 1.0
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * scale)

    def test_tag_component_nonzero_phase_matches_direct_synthesis(self):
        # The angle-sum carrier path must agree with synthesising
        # cos(w t + phi) directly.
        from repro.phy.fm0 import fm0_encode

        up = BackscatterUplink()
        phase = 0.7
        comp = up.tag_component(
            [1, 0, 1], 1000.0, 0.01, phase_rad=phase, lead_in_s=0.0, tail_s=0.0
        )
        levels = raw_bits_to_levels(
            fm0_encode([1, 0, 1]), 1000.0, up.sample_rate_hz
        )
        lo = up.pzt.absorptive_coefficient / up.pzt.reflective_coefficient
        scale = (lo + levels * (1.0 - lo)) * 0.01
        t = np.arange(len(levels)) / up.sample_rate_hz
        expected = scale * np.cos(2 * np.pi * up.carrier_hz * t + phase)
        np.testing.assert_allclose(comp, expected, rtol=0, atol=1e-12)


class TestCaptureClean:
    def _components(self):
        uplink = BackscatterUplink()
        return uplink, [
            uplink.tag_component([1, 0, 1, 0], 3000.0, 0.01),
            uplink.tag_component([1, 1, 0, 0], 3000.0, 0.02, delay_s=0.001),
        ]

    def test_is_capture_without_noise(self, rng):
        uplink, components = self._components()
        clean = uplink.capture_clean(components, extra_samples=100)
        noisy = uplink.capture(
            components, 0.0, np.random.default_rng(0), extra_samples=100
        )
        np.testing.assert_array_equal(clean, noisy)

    def test_scratch_buffer_is_aliased(self):
        uplink, components = self._components()
        n = max(len(c) for c in components) + 100
        scratch = np.empty(2 * n)
        out = uplink.capture_clean(components, extra_samples=100, out=scratch)
        assert out.base is scratch
        assert len(out) == n
        np.testing.assert_array_equal(
            out, uplink.capture_clean(components, extra_samples=100)
        )

    def test_undersized_scratch_falls_back_to_fresh(self):
        uplink, components = self._components()
        scratch = np.empty(4)
        out = uplink.capture_clean(components, extra_samples=100, out=scratch)
        assert out.base is not scratch
        np.testing.assert_array_equal(
            out, uplink.capture_clean(components, extra_samples=100)
        )


class TestReceiverNoiseBaseband:
    PSD, FS, CUTOFF, D = 1e-10, 500_000.0, 750.0, 111

    def test_deterministic_per_rng_state(self):
        a = receiver_noise_baseband(
            1500, self.PSD, self.FS, self.CUTOFF, self.D,
            np.random.default_rng(5),
        )
        b = receiver_noise_baseband(
            1500, self.PSD, self.FS, self.CUTOFF, self.D,
            np.random.default_rng(5),
        )
        assert a.dtype == np.complex128
        np.testing.assert_array_equal(a, b)

    def test_power_tracks_reference_pipeline(self, rng):
        """The baseband draw must carry the same in-band power as
        mixing/filtering/decimating true passband noise (within the
        filter-shape difference)."""
        from repro.phy.iq import downconvert

        sigma = np.sqrt(self.PSD * self.FS / 2.0)
        n = 400_000
        passband = rng.normal(0.0, sigma, size=n)
        ref = downconvert(
            passband, self.FS, 90_000.0, cutoff_hz=self.CUTOFF,
            decimation=self.D,
        )[8:]
        fast = receiver_noise_baseband(
            len(ref) + 8, self.PSD, self.FS, self.CUTOFF, self.D, rng
        )[8:]
        ratio = np.mean(np.abs(fast) ** 2) / np.mean(np.abs(ref) ** 2)
        assert 0.7 < ratio < 1.4

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            receiver_noise_baseband(-1, self.PSD, self.FS, self.CUTOFF,
                                    self.D, rng)
        with pytest.raises(ValueError):
            receiver_noise_baseband(10, self.PSD, self.FS, self.CUTOFF,
                                    0, rng)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_out", 10.5, "n_out must be an integer"),
            ("n_out", True, "n_out must be an integer"),
            ("decimation", 2.5, "decimation must be an integer"),
            ("decimation", True, "decimation must be an integer"),
            ("noise_psd_v2_per_hz", -1e-10, "noise_psd_v2_per_hz must be"),
            ("noise_psd_v2_per_hz", float("nan"), "noise_psd_v2_per_hz must be"),
            ("noise_psd_v2_per_hz", float("inf"), "noise_psd_v2_per_hz must be"),
            ("sample_rate_hz", -500_000.0, "sample_rate_hz must be"),
            ("sample_rate_hz", float("nan"), "sample_rate_hz must be"),
        ],
    )
    def test_rejects_values_naming_the_field(self, rng, field, value, message):
        # A negative PSD used to fail as "math domain error", a NaN one
        # to return NaN noise, and a fractional size to truncate.
        args = dict(
            n_out=10, noise_psd_v2_per_hz=self.PSD, sample_rate_hz=self.FS,
            cutoff_hz=self.CUTOFF, decimation=self.D,
        )
        args[field] = value
        with pytest.raises(ValueError, match=message):
            receiver_noise_baseband(rng=rng, **args)
