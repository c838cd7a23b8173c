"""Cross-cutting property-based tests (hypothesis).

These check the *invariants* the system's correctness rests on, over
randomly generated configurations — complementing the per-module
example-based tests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.slot_schedule import offsets_conflict
from repro.core.state_machine import TagState

TAG_POOL = [f"tag{i}" for i in range(1, 13)]

period_sets = st.lists(
    st.sampled_from([4, 8, 16, 32]), min_size=2, max_size=6
).filter(lambda ps: sum(1.0 / p for p in ps) <= 1.0)


def build_network(periods, seed, **cfg):
    mapping = {TAG_POOL[i]: p for i, p in enumerate(periods)}
    return SlottedNetwork(
        mapping, config=NetworkConfig(seed=seed, ideal_channel=True, **cfg)
    )


class TestProtocolSafety:
    """Invariants of the converged protocol state."""

    @settings(max_examples=15, deadline=None)
    @given(period_sets, st.integers(min_value=0, max_value=10_000))
    def test_converged_offsets_are_conflict_free(self, periods, seed):
        net = build_network(periods, seed)
        t = net.run_until_converged(max_slots=100_000)
        assert t is not None
        macs = list(net.tags.values())
        for i in range(len(macs)):
            for j in range(i + 1, len(macs)):
                a, b = macs[i], macs[j]
                assert not offsets_conflict(a.period, a.offset, b.period, b.offset)

    @settings(max_examples=15, deadline=None)
    @given(period_sets, st.integers(min_value=0, max_value=10_000))
    def test_reader_commitments_match_tag_state(self, periods, seed):
        net = build_network(periods, seed)
        net.run_until_converged(max_slots=100_000)
        committed = net.reader.committed_assignments
        # Every settled tag's ground-truth offset is what the reader
        # committed for it (ideal channel: counters never desync).
        for name, mac in net.tags.items():
            if mac.state is TagState.SETTLE and name in committed:
                assert committed[name].offset == mac.offset % mac.period

    @settings(max_examples=10, deadline=None)
    @given(period_sets, st.integers(min_value=0, max_value=1000))
    def test_decoded_tag_always_among_transmitters(self, periods, seed):
        net = build_network(periods, seed)
        records = net.run(300)
        for r in records:
            if r.decoded is not None:
                assert r.n_transmitters >= 1

    @settings(max_examples=10, deadline=None)
    @given(period_sets, st.integers(min_value=0, max_value=1000))
    def test_slot_indices_contiguous(self, periods, seed):
        net = build_network(periods, seed)
        records = net.run(100)
        assert [r.slot for r in records] == list(range(100))

    @settings(max_examples=10, deadline=None)
    @given(period_sets, st.integers(min_value=0, max_value=1000))
    def test_no_acks_on_collisions_ever(self, periods, seed):
        net = build_network(periods, seed)
        records = net.run(400)
        for r in records:
            if r.collision_detected:
                assert not r.acked


class TestChannelInvariants:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(TAG_POOL),
        st.floats(min_value=50.0, max_value=5000.0),
    )
    def test_snr_monotone_decreasing_in_rate(self, medium, tag, rate):
        assert medium.uplink_snr_db(tag, rate) > medium.uplink_snr_db(
            tag, rate * 2.0
        )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(TAG_POOL),
        st.floats(min_value=50.0, max_value=5000.0),
        st.integers(min_value=1, max_value=256),
    )
    def test_packet_success_is_probability(self, medium, tag, rate, bits):
        p = medium.uplink_packet_success(tag, rate, bits)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(TAG_POOL))
    def test_backscatter_weaker_than_carrier(self, medium, tag):
        # Round-trip reflected energy cannot exceed the one-way carrier.
        assert medium.backscatter_amplitude_v(tag) < medium.carrier_amplitude_v(tag)


class TestEnergyInvariants:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_net_power_nonnegative(self, harvester, vp):
        assert harvester.net_charging_power_w(vp) >= 0.0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.floats(min_value=0.32, max_value=3.0))
    def test_energy_conservation_over_full_charge(self, harvester, vp):
        # average power x charge time == stored energy, exactly.
        t = harvester.charge_time_s(vp)
        p = harvester.net_charging_power_w(vp)
        e = harvester.supercap.stored_energy_j(harvester.thresholds.high_v)
        assert p * t == pytest.approx(e, rel=1e-9)


class TestLatticeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.4, max_value=2.7),  # angle between generators
    )
    def test_fit_recovers_random_parallelograms(self, origin, m1, m2, angle):
        from repro.ext.parallel import fit_lattice

        v1 = complex(m1, 0)
        v2 = m2 * complex(np.cos(angle), np.sin(angle))
        centers = [origin, origin + v1, origin + v2, origin + v1 + v2]
        fit = fit_lattice(centers)
        assert fit is not None
        points = {
            fit.origin + b1 * fit.v1 + b2 * fit.v2
            for b1 in (0, 1)
            for b2 in (0, 1)
        }
        for c in centers:
            assert min(abs(c - p) for p in points) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
            unique=True,
        )
    )
    def test_fit_never_crashes_and_labels_are_valid(self, centers):
        from repro.ext.parallel import fit_lattice

        fit = fit_lattice(centers)
        if fit is not None:
            for c in centers:
                b1, b2 = fit.label(c)
                assert b1 in (0, 1) and b2 in (0, 1)


class TestMarkovProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3).filter(
            lambda ps: sum(1.0 / p for p in ps) <= 1.0
        )
    )
    def test_transitions_always_stochastic(self, periods):
        from repro.analysis.markov import SlotAllocationChain

        chain = SlotAllocationChain(periods)
        states, trans = chain.explore()
        for s in states[:200]:
            assert sum(trans[s].values()) == pytest.approx(1.0, abs=1e-9)


class TestWaveformRoundtripFuzz:
    """Fuzz the full uplink waveform path with random frames."""

    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=4095),
        st.floats(min_value=0.0, max_value=6.28),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_any_frame_roundtrips_at_default_rate(self, tid, payload, phase, seed):
        from repro.phy.modem import BackscatterUplink
        from repro.phy.packets import UplinkPacket
        from repro.phy.reader_dsp import ReaderReceiveChain

        rng = np.random.default_rng(seed)
        uplink = BackscatterUplink()
        chain = ReaderReceiveChain()
        packet = UplinkPacket(tid, payload)
        component = uplink.tag_component(
            packet.to_bits(), 375.0, 0.02, phase_rad=phase, lead_in_s=0.03
        )
        capture = uplink.capture([component], 2.673e-10, rng, extra_samples=2000)
        assert packet in chain.decode(capture, 375.0).packets


class TestFdmaProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from([4, 8, 16, 32]), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=4),
    )
    def test_channel_assignment_is_balanced_partition(self, periods, n_channels):
        from fractions import Fraction

        from repro.core.slot_schedule import slot_utilization
        from repro.multireader import assign_channels

        mapping = {f"t{i}": p for i, p in enumerate(periods)}
        groups = assign_channels(mapping, n_channels)
        # Partition: every tag exactly once.
        seen = sorted(t for g in groups for t in g)
        assert seen == sorted(mapping)
        # LPT balance bound: max load <= min load + the largest share.
        loads = [float(slot_utilization(g.values())) if g else 0.0 for g in groups]
        largest_share = max(1.0 / p for p in periods)
        assert max(loads) <= min(loads) + largest_share + 1e-12
