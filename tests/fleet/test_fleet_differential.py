"""Differential suite: the batch engine's correctness contract.

Every per-network slot log the fleet engine emits must be
*byte-identical* to the log of a sequential
:class:`~repro.core.network.SlottedNetwork` run under the same seed —
across dense and sparse topologies, real and ideal channels, protocol
ablations, staggered activation, mid-run RESET, and the energy tier's
supercapacitor physics.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.energy_network import EnergyAwareNetwork
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.fleet import FleetEngine, specs_for_seeds

SEEDS = [1, 7, 23]

DENSE_PERIODS = {
    "tag1": 4,
    "tag2": 4,
    "tag3": 8,
    "tag4": 8,
    "tag5": 16,
    "tag6": 16,
}
SPARSE_PERIODS = {"tag1": 16, "tag2": 32, "tag3": 32}


def sequential_records(periods, seed, n_slots, config=None, **net_kwargs):
    cfg = replace(config or NetworkConfig(), seed=seed)
    net = SlottedNetwork(periods, config=cfg, **net_kwargs)
    net.run(n_slots)
    return net.records


def fleet_records(periods, seeds, n_slots, config=None, **engine_kwargs):
    engine = FleetEngine(
        periods, specs_for_seeds(seeds), config=config, **engine_kwargs
    )
    for _ in range(n_slots):
        engine.step_all()
    return [engine.records(spec.name) for spec in engine.specs]


class TestPlainScenarios:
    @pytest.mark.parametrize("periods", [DENSE_PERIODS, SPARSE_PERIODS])
    def test_real_channel_matches_sequential(self, periods):
        batch = fleet_records(periods, SEEDS, 400)
        for seed, records in zip(SEEDS, batch):
            assert records == sequential_records(periods, seed, 400)

    @pytest.mark.parametrize("periods", [DENSE_PERIODS, SPARSE_PERIODS])
    def test_ideal_channel_matches_sequential(self, periods):
        cfg = NetworkConfig(ideal_channel=True)
        batch = fleet_records(periods, SEEDS, 400, config=cfg)
        for seed, records in zip(SEEDS, batch):
            assert records == sequential_records(periods, seed, 400, config=cfg)

    @pytest.mark.parametrize(
        "config",
        [
            NetworkConfig(enable_empty_flag=False),
            NetworkConfig(enable_future_avoidance=False),
            NetworkConfig(enable_beacon_loss_timer=False),
            NetworkConfig(beacon_loss_probability=0.05),
        ],
        ids=["no-empty-flag", "no-future-avoidance", "no-loss-timer", "lossy"],
    )
    def test_ablations_match_sequential(self, config):
        batch = fleet_records(DENSE_PERIODS, SEEDS, 300, config=config)
        for seed, records in zip(SEEDS, batch):
            assert records == sequential_records(
                DENSE_PERIODS, seed, 300, config=config
            )

    def test_staggered_activation_matches_sequential(self):
        activation = {"tag2": 50, "tag5": 120, "tag6": 200}
        batch = fleet_records(
            DENSE_PERIODS, SEEDS, 400, activation_slot=activation
        )
        for seed, records in zip(SEEDS, batch):
            assert records == sequential_records(
                DENSE_PERIODS, seed, 400, activation_slot=activation
            )

    def test_mid_run_reset_matches_sequential(self):
        engine = FleetEngine(DENSE_PERIODS, specs_for_seeds(SEEDS))
        for slot in range(400):
            if slot == 150:
                engine.request_reset()
            engine.step_all()
        for seed, spec in zip(SEEDS, engine.specs):
            net = SlottedNetwork(
                DENSE_PERIODS, config=NetworkConfig(seed=seed)
            )
            for slot in range(400):
                if slot == 150:
                    net.reset()
                net.step()
            assert engine.records(spec.name) == net.records

    def test_selective_reset_hits_only_named_networks(self):
        engine = FleetEngine(DENSE_PERIODS, specs_for_seeds(SEEDS))
        for slot in range(300):
            if slot == 100:
                engine.request_reset([engine.specs[1].name])
            engine.step_all()
        for i, (seed, spec) in enumerate(zip(SEEDS, engine.specs)):
            net = SlottedNetwork(
                DENSE_PERIODS, config=NetworkConfig(seed=seed)
            )
            for slot in range(300):
                if slot == 100 and i == 1:
                    net.reset()
                net.step()
            assert engine.records(spec.name) == net.records


class TestEnergyFaultedTier:
    """Fault schedules on the energy tier, which the fleet engine does
    not carry: a faulted :class:`EnergyAwareNetwork` runs on its own."""

    @staticmethod
    def _schedule():
        from repro.faults.schedule import FaultEvent, FaultSchedule

        return FaultSchedule(
            [
                FaultEvent(slot=60, duration=30, kind="brownout", target="tag2"),
                FaultEvent(
                    slot=120,
                    duration=40,
                    kind="harvester_collapse",
                    target="tag4",
                ),
                FaultEvent(
                    slot=200, duration=15, kind="noise_burst", magnitude=12.0
                ),
                FaultEvent(slot=260, duration=25, kind="brownout", target="tag5"),
            ]
        )

    def test_injected_brownout_counts_dark_slots(self):
        """The injected-brownout window shows up in the energy ledger:
        the targeted tag rides harvest-only physics while dark."""
        faulted = EnergyAwareNetwork(
            DENSE_PERIODS,
            config=NetworkConfig(seed=SEEDS[0]),
            faults=self._schedule(),
        )
        faulted.run(400)
        plain = EnergyAwareNetwork(
            DENSE_PERIODS, config=NetworkConfig(seed=SEEDS[0])
        )
        plain.run(400)
        assert (
            faulted.energy_log["tag2"].slots_dark
            > plain.energy_log["tag2"].slots_dark
        )

    def test_empty_schedule_is_zero_cost_off(self):
        """An empty FaultSchedule leaves the energy tier's log
        byte-identical to the unfaulted network — the controller seam
        adds no observable behaviour of its own."""
        from repro.faults.schedule import FaultSchedule

        for seed in SEEDS:
            faulted = EnergyAwareNetwork(
                DENSE_PERIODS,
                config=NetworkConfig(seed=seed),
                faults=FaultSchedule([]),
            )
            faulted.run(300)
            assert faulted.records == sequential_energy_records(
                DENSE_PERIODS, seed, 300
            )


def sequential_energy_records(periods, seed, n_slots, **kwargs):
    net = EnergyAwareNetwork(
        periods, config=NetworkConfig(seed=seed), **kwargs
    )
    net.run(n_slots)
    return net.records


class TestEnergyTier:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"sensor_samples_per_slot": 40.0},
            {"initial_capacitor_v": 2.4},
        ],
        ids=["default", "sensing", "precharged"],
    )
    def test_energy_mode_matches_sequential(self, kwargs):
        names = sorted(DENSE_PERIODS)
        engine = FleetEngine(
            DENSE_PERIODS, specs_for_seeds(SEEDS), energy=True, **kwargs
        )
        for _ in range(400):
            engine.step_all()
        for i, (seed, spec) in enumerate(zip(SEEDS, engine.specs)):
            net = EnergyAwareNetwork(
                DENSE_PERIODS, config=NetworkConfig(seed=seed), **kwargs
            )
            net.run(400)
            assert engine.records(spec.name) == net.records
            # Bit-identical physics, not just matching outcomes.
            voltages = np.asarray(
                [net.devices[t].capacitor_v for t in names]
            )
            assert (engine.devices.capacitor_v[i] == voltages).all()
            for j, t in enumerate(names):
                log = net.energy_log[t]
                assert engine.devices.activations[i, j] == log.activations
                assert engine.devices.brownouts[i, j] == log.brownouts
                assert engine.devices.slots_dark[i, j] == log.slots_dark
                assert engine.devices.slots_lit[i, j] == log.slots_lit
