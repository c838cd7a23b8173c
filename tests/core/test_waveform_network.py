"""Tests for the waveform-fidelity network (DSP-in-the-loop MAC)."""

import zlib

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.state_machine import TagState
from repro.core.waveform_network import WaveformNetwork, stable_name_hash
from repro.phy.modulation import LinkConfig


@pytest.fixture(scope="module")
def converged_net(medium):
    net = WaveformNetwork(
        {"tag5": 4, "tag8": 4, "tag9": 8},
        medium=medium,
        config=NetworkConfig(seed=3),
    )
    t = net.run_until_converged(streak=16, max_slots=400)
    assert t is not None
    return net


class TestValidation:
    def test_unknown_plan_modulation_rejected_at_construction(self, medium):
        # Caught when the network is built, not at the tag's first
        # transmission.
        with pytest.raises(ValueError, match="'tag5'.*'qam4096'"):
            WaveformNetwork(
                {"tag5": 4, "tag8": 4},
                medium=medium,
                uplink_plan={"tag5": LinkConfig("qam4096", 375.0)},
            )


class TestConvergenceThroughRealDsp:
    def test_converges(self, converged_net):
        assert all(
            mac.state is TagState.SETTLE for mac in converged_net.tags.values()
        )

    def test_goodput_matches_utilization(self, converged_net):
        records = converged_net.run(40)
        decoded = sum(1 for r in records if r.decoded is not None)
        # U = 1/4 + 1/4 + 1/8 = 0.625 -> ~25 decodes in 40 slots.
        assert decoded == pytest.approx(25, abs=3)

    def test_no_collisions_after_convergence(self, converged_net):
        tail = converged_net.records[-30:]
        assert not any(r.truly_collided for r in tail)

    def test_decoded_tids_map_to_transmitters(self, converged_net):
        for log in converged_net.slot_logs:
            if len(log.transmitters) == 1 and log.decoded_tids:
                mac = converged_net.tags[log.transmitters[0]]
                assert mac.tid in log.decoded_tids

    def test_single_transmitter_slots_show_two_clusters(self, converged_net):
        singles = [
            log
            for log in converged_net.slot_logs
            if len(log.transmitters) == 1 and log.decoded_tids
        ]
        assert singles
        ok = sum(1 for log in singles if log.n_clusters == 2)
        assert ok / len(singles) > 0.8

    def test_collision_slots_show_extra_clusters(self, converged_net):
        multi = [
            log for log in converged_net.slot_logs if len(log.transmitters) >= 2
        ]
        if multi:  # convergence implies early collisions existed
            detected = sum(1 for log in multi if log.n_clusters > 2)
            assert detected / len(multi) > 0.5


class TestCrossFidelityAgreement:
    def test_convergence_same_order_of_magnitude(self, medium):
        periods = {"tag5": 4, "tag8": 4, "tag9": 8}
        wf_times = []
        sl_times = []
        for seed in (1, 2, 3):
            wf = WaveformNetwork(
                periods, medium=medium, config=NetworkConfig(seed=seed)
            )
            wf_times.append(wf.run_until_converged(streak=16, max_slots=500))
            sl = SlottedNetwork(
                periods, medium=medium, config=NetworkConfig(seed=seed)
            )
            sl_times.append(sl.run_until_converged(streak=16, max_slots=500))
        assert all(t is not None for t in wf_times)
        # Same protocol, same channel statistics: the medians should
        # agree within a small factor (different RNG consumption order).
        import numpy as np

        assert np.median(wf_times) < 5 * np.median(sl_times) + 32
        assert np.median(sl_times) < 5 * np.median(wf_times) + 32

    def test_payload_override(self, medium):
        net = WaveformNetwork(
            {"tag8": 2},
            medium=medium,
            config=NetworkConfig(seed=0),
            payloads={"tag8": 1234},
        )
        net.run(8)
        assert any(
            log.decoded_tids for log in net.slot_logs
        )  # the tag's frames decode through the chain


class TestStablePayloads:
    def test_name_hash_is_crc32(self):
        assert stable_name_hash("tag8") == zlib.crc32(b"tag8")

    def test_name_hash_independent_of_pythonhashseed(self):
        import subprocess
        import sys

        cmd = (
            "from repro.core.waveform_network import stable_name_hash;"
            "print(stable_name_hash('tag11'))"
        )
        values = {
            subprocess.run(
                [sys.executable, "-c", cmd],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("0", "1", "31337")
        }
        assert len(values) == 1

    def test_default_payloads_reproducible_across_instances(self, medium):
        def payloads(seed):
            net = WaveformNetwork(
                {"tag8": 2}, medium=medium, config=NetworkConfig(seed=seed)
            )
            return [net._payload_for("tag8") for _ in range(3)]

        assert payloads(5) == payloads(5)


class TestLinkBudgetCache:
    def test_cached_after_first_use(self, medium):
        net = WaveformNetwork(
            {"tag8": 2}, medium=medium, config=NetworkConfig(seed=0)
        )
        assert net._link_cache == {}
        first = net._link_budget("tag8")
        assert net._link_cache["tag8"] == first

    def test_serves_stale_value_until_invalidated(self, medium, monkeypatch):
        net = WaveformNetwork(
            {"tag8": 2}, medium=medium, config=NetworkConfig(seed=0)
        )
        before = net._link_budget("tag8")
        monkeypatch.setattr(
            type(medium),
            "backscatter_amplitude_v",
            lambda self, name: 123.0,
        )
        assert net._link_budget("tag8") == before  # cache still serving
        medium.invalidate_channel_cache()
        amplitude_v, _ = net._link_budget("tag8")
        assert amplitude_v != before[0]

    def test_matches_direct_medium_walk(self, medium):
        from repro.experiments.fig12_uplink import WAVEFORM_AMPLITUDE_CALIBRATION

        net = WaveformNetwork(
            {"tag8": 2}, medium=medium, config=NetworkConfig(seed=0)
        )
        amplitude_v, delay_s = net._link_budget("tag8")
        assert amplitude_v == pytest.approx(
            WAVEFORM_AMPLITUDE_CALIBRATION
            * medium.backscatter_amplitude_v("tag8")
        )
        assert delay_s == pytest.approx(medium.propagation_delay_s("tag8"))

    def test_follows_channel_generation_without_explicit_invalidate(self):
        from repro.channel.medium import AcousticMedium

        medium = AcousticMedium()
        net = WaveformNetwork(
            {"tag4": 2}, medium=medium, config=NetworkConfig(seed=0)
        )
        before = net._link_budget("tag4")
        # A strain sweep that reports its mutation to the medium: the
        # generation counter must drop the stale budget on its own.  (tag8 anchors the
        # reference round-trip loss, so probe a non-reference tag.)
        medium.biw.set_joint_loss_offset_db(6.0)
        medium.invalidate_channel_cache()
        after = net._link_budget("tag4")
        assert after[0] != before[0]
        assert after[0] == pytest.approx(
            net._link_budget("tag4")[0]
        )  # re-cached under the new generation

    def test_mid_run_medium_mutation_degrades_decodes(self):
        """Regression: before the generation counter, a mid-run BiW
        mutation kept serving pre-mutation amplitudes until someone
        dropped the link cache by hand."""
        from repro.channel.medium import AcousticMedium

        def decoded_after_mutation(offset_db: float) -> int:
            medium = AcousticMedium()
            net = WaveformNetwork(
                {"tag4": 2}, medium=medium, config=NetworkConfig(seed=1)
            )
            net.run(10)
            medium.biw.set_joint_loss_offset_db(offset_db)
            medium.invalidate_channel_cache()
            records = net.run(20)
            return sum(1 for r in records if r.decoded == "tag4")

        unhurt = decoded_after_mutation(0.0)
        crushed = decoded_after_mutation(60.0)
        assert unhurt > 0
        assert crushed == 0  # 60 dB of extra joint loss must be felt
