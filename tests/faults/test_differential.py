"""Differential suite: the vectorised hot paths against their scalar
executable specifications *with fault injectors active* — corrupted
inputs and drifted thresholds must degrade both implementations
identically, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import cache as phy_cache
from repro.phy.modem import (
    BackscatterUplink,
    FskOokDownlink,
    raw_bits_to_levels,
)
from repro.phy.reader_dsp import ReaderReceiveChain
from repro.faults.injectors import flip_bits
from phy.oracles import (
    naive_ook_waveform_reference,
    raw_bits_to_levels_reference,
)

DIFF = settings(max_examples=20, deadline=None, derandomize=True)

bit_seqs = st.lists(st.integers(0, 1), min_size=4, max_size=48)
flip_sets = st.lists(st.integers(0, 63), max_size=6)


def schmitt_reference(projected, hysteresis, drift):
    """Scalar spec of the drifted hysteresis slicer: walk the samples,
    flip state only outside the dead band around the drifted centre."""
    spread = 1.4826 * float(np.median(np.abs(projected - np.median(projected))))
    if spread == 0.0:
        return np.zeros(len(projected), dtype=np.int8)
    center = drift * spread
    hi = center + hysteresis * spread
    lo = center - hysteresis * spread
    state = 1 if projected[0] > center else 0
    out = np.empty(len(projected), dtype=np.int8)
    for i, x in enumerate(projected):
        if x >= hi:
            state = 1
        elif x <= lo:
            state = 0
        out[i] = state
    return out


class TestLevelExpansionUnderFlips:
    @DIFF
    @given(bit_seqs, flip_sets)
    def test_vectorised_matches_reference_on_flipped_frames(self, bits, flips):
        corrupted = flip_bits(bits, flips)
        raw = phy_cache.fm0_raw(corrupted)
        vec = raw_bits_to_levels(raw, 375.0, 500_000.0)
        ref = raw_bits_to_levels_reference(list(raw), 375.0, 500_000.0)
        assert np.array_equal(vec, ref)

    @DIFF
    @given(bit_seqs, flip_sets, st.sampled_from([375.0, 1500.0, 3000.0]))
    def test_equivalence_holds_across_rates(self, bits, flips, rate):
        corrupted = flip_bits(bits, flips)
        raw = phy_cache.fm0_raw(corrupted)
        vec = raw_bits_to_levels(raw, rate, 500_000.0)
        ref = raw_bits_to_levels_reference(list(raw), rate, 500_000.0)
        assert np.array_equal(vec, ref)


class TestTagComponentBitFlips:
    @DIFF
    @given(bit_seqs, flip_sets)
    def test_flip_parameter_equals_manual_preflip(self, bits, flips):
        """The ``bit_flips`` fast-path parameter must be exactly the
        composition of flip_bits with the unfaulted synthesis."""
        uplink = BackscatterUplink()
        via_param = uplink.tag_component(
            bits, 375.0, 0.01, lead_in_s=0.001, tail_s=0.001, bit_flips=flips
        )
        via_manual = uplink.tag_component(
            flip_bits(bits, flips), 375.0, 0.01, lead_in_s=0.001, tail_s=0.001
        )
        assert np.array_equal(via_param, via_manual)

    def test_empty_flip_tuple_is_the_identity(self):
        uplink = BackscatterUplink()
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        a = uplink.tag_component(bits, 375.0, 0.01, lead_in_s=0.001, tail_s=0.001)
        b = uplink.tag_component(
            bits, 375.0, 0.01, lead_in_s=0.001, tail_s=0.001, bit_flips=()
        )
        assert np.array_equal(a, b)

    def test_flip_actually_changes_the_waveform(self):
        uplink = BackscatterUplink()
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        clean = uplink.tag_component(bits, 375.0, 0.01, lead_in_s=0.001,
                                     tail_s=0.001)
        faulty = uplink.tag_component(bits, 375.0, 0.01, lead_in_s=0.001,
                                      tail_s=0.001, bit_flips=(2,))
        assert not np.array_equal(clean, faulty)


class TestRingTailUnderFlips:
    @DIFF
    @given(st.lists(st.integers(0, 1), min_size=4, max_size=16), flip_sets)
    def test_naive_ook_matches_reference_on_flipped_frames(self, bits, flips):
        downlink = FskOokDownlink()
        corrupted = flip_bits(bits, flips)
        vec = downlink.naive_ook_waveform(corrupted, 250.0)
        ref = naive_ook_waveform_reference(downlink, corrupted, 250.0)
        np.testing.assert_allclose(vec, ref, rtol=0, atol=1e-9)


class TestSchmittUnderDrift:
    @DIFF
    @given(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=200,
        ),
        st.sampled_from([-0.25, 0.0, 0.2]),
    )
    def test_vectorised_matches_scalar_spec(self, samples, drift):
        projected = np.asarray(samples)
        chain = ReaderReceiveChain(threshold_drift=drift)
        vec = chain.schmitt(projected)
        ref = schmitt_reference(projected, chain.schmitt_hysteresis, drift)
        assert np.array_equal(vec, ref)

    def test_zero_drift_is_bit_identical_to_default_chain(self, rng):
        projected = rng.normal(0.0, 1.0, size=5000)
        default = ReaderReceiveChain()
        explicit = ReaderReceiveChain(threshold_drift=0.0)
        assert np.array_equal(default.schmitt(projected),
                              explicit.schmitt(projected))

    def test_extreme_drift_freezes_the_slicer(self, rng):
        projected = rng.normal(0.0, 1.0, size=2000)
        pinned = ReaderReceiveChain(threshold_drift=0.99).schmitt(projected)
        # Centre far above the signal: almost everything slices low.
        assert pinned.mean() < 0.5
        balanced = ReaderReceiveChain().schmitt(projected)
        assert abs(balanced.mean() - 0.5) < 0.2

    def test_drift_bounds_validated(self):
        with pytest.raises(ValueError, match="drift"):
            ReaderReceiveChain(threshold_drift=1.0)
        with pytest.raises(ValueError, match="drift"):
            ReaderReceiveChain(threshold_drift=-1.5)
