"""Parity suite: compiled kernels vs the numpy fallback, end to end.

The per-kernel exactness battery (``test_kernels.py``) pins each
compiled kernel byte-identical to its numpy reference; this suite pins
the *composition*: whole waveform-tier runs — slot logs and MAC
records — must be byte-identical with kernels on and off
(``REPRO_PHY_KERNELS=0``), across seeds, slot densities, fault
schedules, and all three modulations (FM0-OOK plus the chirp-OOK and
FSK matched-correlator chains of the adaptive PHY).  Any ulp of drift
anywhere in the receive chain eventually flips a marginal decode and
shows up here.
"""

import pytest

from repro.core.network import NetworkConfig
from repro.core.waveform_network import WaveformNetwork
from repro.faults import FaultEvent, FaultSchedule
from repro.phy import cache as phy_cache
from repro.phy import kernels
from repro.phy.modulation import LinkConfig

SEEDS = [1, 7, 23]
SCENARIOS = ["dense", "sparse", "faulted"]
MODULATIONS = ["fm0_ook", "cook", "fsk"]

RUN_SLOTS = 40


@pytest.fixture(autouse=True)
def isolated_caches():
    phy_cache.clear_caches()
    yield
    phy_cache.clear_caches()


def _fault_schedule():
    return FaultSchedule(
        [
            FaultEvent(slot=4, duration=6, kind="attenuation", target="tag5",
                       magnitude=12.0),
            FaultEvent(slot=10, duration=8, kind="bit_flip", target="tag8",
                       magnitude=3.0),
            FaultEvent(slot=18, duration=5, kind="noise_burst", target="*",
                       magnitude=6.0),
        ]
    )


def _uplink_plan(scenario: str, modulation: str):
    """Pin every tag of the scenario to the modulation under test
    (FM0 is the stock chain — no standing plan needed)."""
    if modulation == "fm0_ook":
        return None
    bitrate = 3000.0 if modulation == "cook" else 125.0
    tags = ("tag3", "tag12") if scenario == "sparse" else (
        "tag5", "tag8", "tag9"
    )
    return {tag: LinkConfig(modulation, bitrate) for tag in tags}


def _run(scenario: str, seed: int, modulation: str) -> WaveformNetwork:
    config = NetworkConfig(seed=seed)
    kwargs = {}
    plan = _uplink_plan(scenario, modulation)
    if plan is not None:
        kwargs["uplink_plan"] = plan
    if scenario == "dense":
        net = WaveformNetwork({"tag5": 4, "tag8": 4, "tag9": 8},
                              config=config, **kwargs)
    elif scenario == "sparse":
        net = WaveformNetwork({"tag3": 8, "tag12": 16}, config=config,
                              **kwargs)
    elif scenario == "faulted":
        net = WaveformNetwork({"tag5": 4, "tag8": 4, "tag9": 8},
                              config=config, faults=_fault_schedule(),
                              **kwargs)
    else:  # pragma: no cover - scenario typo guard
        raise AssertionError(scenario)
    net.run(RUN_SLOTS)
    return net


def _signature(net: WaveformNetwork):
    return (
        list(net.records),
        [
            (log.slot, tuple(log.transmitters), tuple(log.decoded_tids),
             log.n_clusters)
            for log in net.slot_logs
        ],
    )


class TestSlotLogsByteIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_kernels_on_matches_off(self, modulation, scenario, seed):
        if kernels.backend() == "numpy":  # pragma: no cover
            pytest.skip("no compiled backend: both legs would be numpy")
        with kernels.use_backend("cext"):
            on = _signature(_run(scenario, seed, modulation))
        phy_cache.clear_caches()
        with kernels.use_backend("numpy"):
            off = _signature(_run(scenario, seed, modulation))
        assert on == off

    def test_decodes_happen_at_all(self):
        """Parity on empty logs would be vacuous — pin that the dense
        FM0 scenario actually decodes packets under kernels."""
        net = _run("dense", 1, "fm0_ook")
        assert any(log.decoded_tids for log in net.slot_logs)

    def test_modulated_plans_actually_apply(self):
        for modulation in ("cook", "fsk"):
            net = _run("dense", 1, modulation)
            plan = net.uplink_plan
            assert all(
                cfg.modulation == modulation for cfg in plan.values()
            ), plan
            assert any(log.decoded_tids for log in net.slot_logs)


class TestReferencePathParity:
    """Kernels must also hold parity on the reference (template-less)
    synthesis path — the one REPRO_PHY_FAST=0 users run."""

    @pytest.mark.parametrize("seed", [1, 23])
    def test_reference_path_kernels_on_matches_off(self, seed):
        if kernels.backend() == "numpy":  # pragma: no cover
            pytest.skip("no compiled backend: both legs would be numpy")
        with phy_cache.fast_path(False):
            with kernels.use_backend("cext"):
                on = _signature(_run("dense", seed, "fm0_ook"))
            phy_cache.clear_caches()
            with kernels.use_backend("numpy"):
                off = _signature(_run("dense", seed, "fm0_ook"))
        assert on == off
