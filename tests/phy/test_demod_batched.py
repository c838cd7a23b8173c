"""The batched chirp-OOK and FSK demodulators against their per-window
oracles.

``ChirpOok.demodulate`` and ``BinaryFsk.demodulate`` score every bit
window of every scan offset with one gather and one matrix product per
window length (:func:`repro.phy.modulation.offset_scan`).  The per-window
loops they replaced live in ``tests/phy/oracles.py``.  Scores may differ
from the oracle's at ulp level (summation order); the decoded bits must
not.
"""

import math

import numpy as np
import pytest

from phy.oracles import (
    bit_windows_reference,
    chirp_replica_reference,
    cook_demodulate_reference,
    fsk_demodulate_reference,
)
from repro.phy import cache as phy_cache
from repro.phy.cook import _chirp_replica
from repro.phy.fsk import _tone_basis
from repro.phy.iq import downconvert
from repro.phy.modem import BackscatterUplink, receiver_noise_baseband
from repro.phy.modulation import (
    LinkConfig,
    bit_edges,
    bit_windows,
    get_modulation,
    offset_scan,
)
from repro.phy.packets import UplinkPacket
from repro.phy.reader_dsp import ReaderReceiveChain
from repro.sim.random import RandomStreams

ORACLES = {"cook": cook_demodulate_reference, "fsk": fsk_demodulate_reference}

CONFIGS = [
    LinkConfig("cook", 750.0),
    LinkConfig("cook", 1500.0),
    LinkConfig("cook", 3000.0),
    LinkConfig("fsk", 125.0),
    LinkConfig("fsk", 250.0),
]
CONFIG_IDS = [c.label for c in CONFIGS]

#: Receiver noise PSDs (V^2/Hz): clean decode, marginal, and noise-bound.
NOISE_PSDS = (4e-13, 4e-11, 4e-10)

#: Baseband rates whose samples-per-bit is fractional, so the bit grid
#: mixes two window lengths: cook@3000 (decimation 9) and fsk@250
#: (decimation 19) at 500 kHz.
FRACTIONAL = [
    (500_000.0 / 9, 3000.0),
    (55_555.5, 3000.0),
    (500_000.0 / 19, 250.0),
    (26_315.79, 250.0),
]


def _projected(config, seed, noise_psd, bit_flips=()):
    """One frame under ``config`` through the real receive path, up to
    the projected baseband the demodulator sees."""
    uplink = BackscatterUplink()
    mod = get_modulation(config.modulation)
    rate = config.bitrate_bps
    fs = uplink.sample_rate_hz
    decimation = mod.decimation(fs, rate)
    rng = RandomStreams(seed).stream("demod-batched")
    component = uplink.tag_component(
        UplinkPacket(tid=seed % 16, payload=1000 + seed).to_bits(),
        rate,
        0.008,
        phase_rad=float(rng.uniform(0, 2 * np.pi)),
        delay_s=0.0015,
        lead_in_s=0.03,
        tail_s=0.012,
        bit_flips=bit_flips,
        modulation=config.modulation,
    )
    capture = uplink.capture_clean([component], extra_samples=2000)
    cutoff = mod.cutoff_hz(rate)
    iq = downconvert(capture, fs, uplink.carrier_hz, cutoff_hz=cutoff,
                     decimation=decimation)
    iq = iq + receiver_noise_baseband(len(iq), noise_psd, fs, cutoff,
                                      decimation, rng)
    return ReaderReceiveChain().project(iq), fs / decimation


def _both(config, projected, baseband_rate):
    mod = get_modulation(config.modulation)
    fast = mod.demodulate(projected, baseband_rate, config.bitrate_bps)
    slow = ORACLES[config.modulation](projected, baseband_rate, config.bitrate_bps)
    return fast, slow


class TestAgainstOracle:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("noise_psd", NOISE_PSDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decoded_bits_match(self, config, noise_psd, seed):
        projected, baseband_rate = _projected(config, seed, noise_psd)
        fast, slow = _both(config, projected, baseband_rate)
        assert fast == slow
        assert all(type(b) is int for b in fast)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_crc_failing_frame_matches(self, config):
        """With no clean frame anywhere, offsets compete on the second
        key (peak or tone separation) alone."""
        projected, baseband_rate = _projected(config, 3, 4e-13, bit_flips=(14,))
        fast, slow = _both(config, projected, baseband_rate)
        assert fast == slow

    def test_clean_capture_decodes_its_frame(self):
        from repro.phy.packets import find_ul_frames

        for config in CONFIGS:
            projected, baseband_rate = _projected(config, 4, 4e-13)
            fast, _ = _both(config, projected, baseband_rate)
            assert find_ul_frames(fast) == [UplinkPacket(tid=4, payload=1004)]


class TestEdgeCases:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_shorter_than_one_bit_is_empty(self, config):
        mod = get_modulation(config.modulation)
        fs = 500_000.0 / mod.decimation(500_000.0, config.bitrate_bps)
        spb = fs / config.bitrate_bps
        short = np.random.default_rng(0).normal(size=int(math.ceil(spb)) - 1)
        assert mod.demodulate(short, fs, config.bitrate_bps) == []
        assert mod.demodulate(np.empty(0), fs, config.bitrate_bps) == []

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_exactly_one_bit(self, config):
        mod = get_modulation(config.modulation)
        fs = 500_000.0 / mod.decimation(500_000.0, config.bitrate_bps)
        spb = fs / config.bitrate_bps
        one = np.random.default_rng(1).normal(size=int(math.ceil(spb)))
        fast, slow = _both(config, one, fs)
        assert fast == slow
        assert len(fast) == 1

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_all_zero_capture(self, config):
        mod = get_modulation(config.modulation)
        fs = 500_000.0 / mod.decimation(500_000.0, config.bitrate_bps)
        zeros = np.zeros(4000)
        fast, slow = _both(config, zeros, fs)
        assert fast == slow
        assert set(fast) == {0}

    @pytest.mark.parametrize("baseband_rate, rate", FRACTIONAL)
    @pytest.mark.parametrize("modulation", ["cook", "fsk"])
    def test_fractional_samples_per_bit(self, baseband_rate, rate, modulation):
        spb = baseband_rate / rate
        widths = {hi - lo for lo, hi in bit_windows(5000, spb, 0)}
        assert widths == {math.floor(spb), math.ceil(spb)}
        config = LinkConfig(modulation, rate)
        rng = np.random.default_rng(7)
        for _ in range(3):
            noise = rng.normal(size=int(rng.integers(800, 5000)))
            fast, slow = _both(config, noise, baseband_rate)
            assert fast == slow


    @pytest.mark.parametrize("modulation", ["cook", "fsk"])
    def test_below_one_sample_per_bit(self, modulation):
        """Empty windows are skipped, as in the scalar loop."""
        config = LinkConfig(modulation, 3000.0)
        x = np.random.default_rng(8).normal(size=50)
        fast, slow = _both(config, x, 2000.0)
        assert fast == slow


class TestBitGrid:
    def test_windows_match_the_scalar_loop(self):
        rng = np.random.default_rng(11)
        cases = [(5000, 55_555.5 / 3000.0), (7000, 26_315.79 / 250.0),
                 (64, 8.0), (100, 0.7), (0, 3.5), (10, 12.0)]
        for _ in range(200):
            cases.append((int(rng.integers(0, 3000)),
                          float(rng.uniform(0.6, 250.0))))
        for n, spb in cases:
            for offset in (0, 1, int(spb // 2), int(math.ceil(spb)) - 1, n + 3):
                assert bit_windows(n, spb, offset) == bit_windows_reference(
                    n, spb, offset
                ), (n, spb, offset)

    def test_edges_are_the_rint_grid(self):
        spb = 55_555.5 / 3000.0
        edges = bit_edges(1000, spb)
        assert edges.dtype == np.int64
        assert edges[-1] <= 1000 < int(np.rint(len(edges) * spb))
        assert edges.tolist() == [int(np.rint(i * spb)) for i in range(len(edges))]

    def test_rejects_non_positive_samples_per_bit(self):
        with pytest.raises(ValueError):
            bit_edges(100, 0.0)

    @pytest.mark.parametrize("baseband_rate, rate", FRACTIONAL)
    def test_offset_scan_scores_every_window(self, baseband_rate, rate):
        """Per offset, the scan scores exactly the oracle's windows, to
        ulp-level agreement with a per-window dot product."""
        spb = baseband_rate / rate
        x = np.random.default_rng(3).normal(size=3000)
        parts = offset_scan(
            x, spb, lambda n: _chirp_replica(n, baseband_rate, rate)[:, None]
        )
        step = max(1, int(spb // 16))
        offsets = range(0, int(math.ceil(spb)), step)
        assert len(parts) == len(offsets)
        for offset, scores in zip(offsets, parts):
            windows = bit_windows_reference(len(x), spb, offset)
            ref = [
                abs(complex((x[lo:hi] - x[lo:hi].mean())
                            @ chirp_replica_reference(hi - lo, baseband_rate, rate)))
                for lo, hi in windows
            ]
            np.testing.assert_allclose(scores[:, 0], ref, rtol=1e-12, atol=1e-12)


class TestCachedBases:
    def test_chirp_replica_is_read_only(self):
        replica = _chirp_replica(19, 500_000.0 / 9, 3000.0)
        with pytest.raises(ValueError):
            replica[0] = 0.0
        assert np.array_equal(replica,
                              chirp_replica_reference(19, 500_000.0 / 9, 3000.0))

    def test_tone_basis_is_read_only(self):
        basis = _tone_basis(105, 500_000.0 / 19)
        assert basis.shape == (105, 2)
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            basis[:, 1] *= 2.0


class TestTemplateHoldsNoPassband:
    """A cached ``TagTemplate`` keeps only its decimated basebands; the
    passband-rate profile is rebuilt when needed, bit for bit."""

    FS, F0 = 500_000.0, 90_000.0

    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        phy_cache.clear_caches()
        yield
        phy_cache.clear_caches()

    def _template(self, config):
        uplink = BackscatterUplink()
        mod = get_modulation(config.modulation)
        raw = mod.line_encode(UplinkPacket(tid=3, payload=77).to_bits())
        low = uplink.pzt.absorptive_coefficient / uplink.pzt.reflective_coefficient
        return phy_cache.tag_template(
            raw, config.bitrate_bps, self.FS, self.F0, low, 6000, 6000,
            config.modulation,
        )

    @pytest.mark.parametrize(
        "config",
        [LinkConfig("fm0_ook", 375.0), LinkConfig("cook", 3000.0),
         LinkConfig("fsk", 125.0)],
        ids=["fm0_ook@375", "cook@3000", "fsk@125"],
    )
    def test_rebuilt_products_are_byte_identical(self, config):
        mod = get_modulation(config.modulation)
        cutoff = mod.cutoff_hz(config.bitrate_bps)
        decimation = mod.decimation(self.FS, config.bitrate_bps)
        template = self._template(config)
        n_capture = template.n_body + 900
        bc, bs = (a.copy() for a in template.baseband(400, n_capture, cutoff,
                                                     decimation))
        passband = template.passband(0.01, 0.3, 400)

        reachable = [getattr(template, slot) for slot in type(template).__slots__]
        reachable += [a for pair in template._baseband.values() for a in pair]
        arrays = [a for a in reachable if isinstance(a, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) < template.n_body

        phy_cache.clear_caches()
        fresh = self._template(config)
        assert fresh is not template
        fresh_bc, fresh_bs = fresh.baseband(400, n_capture, cutoff, decimation)
        assert np.array_equal(fresh_bc, bc) and np.array_equal(fresh_bs, bs)
        assert np.array_equal(fresh.passband(0.01, 0.3, 400), passband)
        assert np.array_equal(template.passband(0.01, 0.3, 400), passband)
        assert len(template.profile) == template.n_body

        uplink = BackscatterUplink()
        direct = uplink.tag_component(
            UplinkPacket(tid=3, payload=77).to_bits(), config.bitrate_bps,
            0.01, phase_rad=0.3, delay_s=400 / self.FS, lead_in_s=6000 / self.FS,
            tail_s=6000 / self.FS, modulation=config.modulation,
        )
        assert np.array_equal(passband, direct)

    def test_size_diagnostic_counts_basebands_only(self):
        template = self._template(LinkConfig("fm0_ook", 375.0))
        template.baseband(0, template.n_body, 750.0, 111)
        sizes = phy_cache.cache_sizes()
        assert sizes["tag_template_samples"] == template.baseband_samples()
