"""Fixed-rate differential suite.

A network adapts exactly when it is given an uplink plan or a rate
controller, and a fixed-rate slot is the one-group case of the
per-``LinkConfig`` path.  The contract pinned here: a standing plan
that maps every tag to the stock FM0 link is **byte-identical** to no
plan at all — same records, same slot logs, same RNG consumption — on
both the slot-level and the waveform-fidelity tiers.  This is what lets
every pre-adaptive baseline, golden trace, and calibration constant in
the repo stay valid while the adaptive machinery ships alongside.

Scenarios and seeds mirror ``test_fast_path_differential``.
"""

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.waveform_network import WaveformNetwork
from repro.faults import FaultEvent, FaultSchedule
from repro.phy import cache as phy_cache
from repro.phy.modulation import LinkConfig
from repro.phy.rate import DEFAULT_LADDER, RateController

SEEDS = [1, 7, 23]
SCENARIOS = ["dense", "sparse", "faulted"]


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


_PERIODS = {
    "dense": {"tag5": 4, "tag8": 4, "tag9": 8},
    "sparse": {"tag3": 8, "tag12": 16},
    "faulted": {"tag5": 4, "tag8": 4, "tag9": 8},
}


def _build(cls, scenario: str, seed: int, **kwargs):
    periods = _PERIODS[scenario]
    if scenario == "faulted":
        kwargs["faults"] = _fault_schedule()
    return cls(periods, config=NetworkConfig(seed=seed), **kwargs)


def _fm0_plan(scenario: str):
    return {tag: LinkConfig("fm0_ook", 375.0) for tag in _PERIODS[scenario]}


def _signature(net):
    sig = [
        (r.slot, r.n_transmitters, r.decoded, r.collision_detected,
         r.acked, r.empty_flag)
        for r in net.records
    ]
    for log in getattr(net, "slot_logs", ()):
        sig.append((log.slot, tuple(log.transmitters),
                    tuple(log.decoded_tids), log.n_clusters))
    return sig


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_slotted_adaptive_off_is_byte_identical(scenario, seed):
    """Adaptation off: a plan pinning every tag to the fixed-rate FM0
    link replays the plan-less run."""
    baseline = _build(SlottedNetwork, scenario, seed)
    baseline.run(200)
    planned = _build(SlottedNetwork, scenario, seed,
                     uplink_plan=_fm0_plan(scenario))
    planned.run(200)
    assert _signature(planned) == _signature(baseline)
    assert planned.uplink_plan == _fm0_plan(scenario)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_waveform_adaptive_off_is_byte_identical(scenario, seed):
    """The same on the waveform tier, through both the template fast
    path and the reference synthesis pipeline."""
    for fast in (True, False):
        with phy_cache.fast_path(fast):
            baseline = _build(WaveformNetwork, scenario, seed)
            baseline.run(24)
            planned = _build(WaveformNetwork, scenario, seed,
                             uplink_plan=_fm0_plan(scenario))
            planned.run(24)
        assert _signature(planned) == _signature(baseline), fast


@pytest.mark.parametrize("seed", SEEDS)
def test_slotted_adaptive_on_differs_and_converges(seed):
    """Sanity inverse: with a live controller the plan actually moves
    (the tests above are not vacuously comparing two legacy runs)."""
    net = _build(
        SlottedNetwork, "dense", seed,
        rate_controller=RateController(DEFAULT_LADDER),
        uplink_plan={"tag5": LinkConfig("cook", 3000.0),
                     "tag8": LinkConfig("fsk", 125.0)},
    )
    net.run(200)
    plan = net.uplink_plan
    assert plan["tag8"] == LinkConfig("cook", 3000.0)
    assert plan["tag5"] == LinkConfig("fm0_ook", 3000.0)
    assert plan["tag9"] == LinkConfig("fm0_ook", 3000.0)
