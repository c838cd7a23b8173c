"""Tests for the reader receive chain."""

import numpy as np
import pytest

from repro.phy.modem import BackscatterUplink
from repro.phy.packets import UplinkPacket
from repro.phy.reader_dsp import BackPressureBuffer, ReaderReceiveChain


@pytest.fixture(scope="module")
def uplink():
    return BackscatterUplink()


@pytest.fixture(scope="module")
def chain():
    return ReaderReceiveChain()


def _roundtrip(uplink, chain, packet, rate, noise_psd, rng, amplitude=0.01, phase=0.7):
    comp = uplink.tag_component(
        packet.to_bits(), rate, amplitude, phase_rad=phase, lead_in_s=0.03
    )
    cap = uplink.capture([comp], noise_psd, rng, extra_samples=2000)
    return chain.decode(cap, rate)


class TestBackPressureBuffer:
    def test_push_pop_fifo(self):
        buf = BackPressureBuffer(capacity=3)
        for i in range(3):
            assert buf.push(i)
        assert buf.pop() == 0
        assert buf.pop() == 1

    def test_push_refused_when_full(self):
        buf = BackPressureBuffer(capacity=1)
        assert buf.push("a")
        assert not buf.push("b")
        buf.pop()
        assert buf.push("b")

    def test_pop_empty_returns_none(self):
        assert BackPressureBuffer().pop() is None

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            BackPressureBuffer(capacity=0)


class TestDecode:
    def test_noiseless_roundtrip(self, uplink, chain, rng):
        pkt = UplinkPacket(7, 3210)
        out = _roundtrip(uplink, chain, pkt, 375.0, 1e-14, rng)
        assert pkt in out.packets

    def test_realistic_noise_roundtrip(self, uplink, chain, rng):
        pkt = UplinkPacket(3, 123)
        decoded = 0
        for k in range(10):
            out = _roundtrip(
                uplink, chain, pkt, 375.0, 2.673e-10, rng, phase=0.6 * k
            )
            decoded += pkt in out.packets
        assert decoded >= 9

    def test_decode_at_3000bps(self, uplink, chain, rng):
        pkt = UplinkPacket(1, 55)
        out = _roundtrip(uplink, chain, pkt, 3000.0, 1e-12, rng, amplitude=0.02)
        assert pkt in out.packets

    def test_random_phase_immaterial(self, uplink, chain, rng):
        pkt = UplinkPacket(2, 99)
        for phase in (0.0, 1.0, 2.0, 3.0, 4.5, 6.0):
            out = _roundtrip(uplink, chain, pkt, 375.0, 1e-13, rng, phase=phase)
            assert pkt in out.packets, f"failed at phase {phase}"

    def test_noise_only_capture_decodes_nothing(self, uplink, chain, rng):
        cap = uplink.capture([], 2.673e-10, rng, extra_samples=120_000)
        out = chain.decode(cap, 375.0)
        assert out.packets == []

    def test_frequency_offset_reported(self, uplink, chain, rng):
        pkt = UplinkPacket(1, 1)
        out = _roundtrip(uplink, chain, pkt, 375.0, 1e-13, rng)
        assert abs(out.frequency_offset_hz) < 50.0

    def test_weak_signal_fails_gracefully(self, uplink, chain, rng):
        # 100x weaker than the noise floor: no decode, no crash.
        pkt = UplinkPacket(1, 1)
        out = _roundtrip(uplink, chain, pkt, 375.0, 2.673e-10, rng, amplitude=1e-5)
        assert out.packets == []


class TestBlocks:
    def test_schmitt_output_is_binary(self, chain, rng):
        projected = rng.normal(0, 1, 1000)
        out = chain.schmitt(projected)
        assert set(np.unique(out)) <= {0, 1}

    def test_schmitt_constant_input(self, chain):
        out = chain.schmitt(np.zeros(100))
        assert list(np.unique(out)) == [0]

    @pytest.mark.parametrize("rates", [(0.0, 4500.0), (375.0, 0.0)])
    def test_sample_raw_bits_rejects_non_positive_rates(self, chain, rates):
        p = np.sin(np.arange(200) / 3.0)
        with pytest.raises(ValueError, match="must be positive"):
            chain.sample_raw_bits(p, (p > 0).astype(np.int8), *rates)

    def test_sample_raw_bits_empty_without_transitions(self, chain):
        flat = np.ones(1000)
        assert chain.sample_raw_bits(flat, flat.astype(np.int8), 375.0, 4500.0) == []

    def test_invalid_hysteresis_raises(self):
        with pytest.raises(ValueError):
            ReaderReceiveChain(schmitt_hysteresis=1.5)

    def test_decimation_scales_with_rate(self, chain):
        assert chain._decimation_for(375.0) > chain._decimation_for(3000.0)
