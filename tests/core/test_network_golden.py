"""Golden traces for the network tiers no other suite pins against a
fixed document: the energy-coupled slot loop (faulted and sensing
runs), the fixed-rate FM0 waveform loop (dense and faulted, on the
template fast path and on the ``REPRO_PHY_FAST=0`` reference pipeline),
and the waveform loop under a standing uplink plan with a live rate
controller and faults.

Each scenario replays byte-for-byte against a checked-in JSON document:
slot records, waveform slot logs, energy lifecycle counters, final
capacitor voltages (as exact float reprs), fault traces and rate-control
histories.  Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python -m pytest tests/core/test_network_golden.py --regen-golden

and review the golden diff like any other code change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.energy_network import EnergyAwareNetwork
from repro.core.network import NetworkConfig
from repro.core.waveform_network import WaveformNetwork
from repro.faults import FaultEvent, FaultSchedule
from repro.phy import cache as phy_cache
from repro.phy.modulation import LinkConfig
from repro.phy.rate import DEFAULT_LADDER, RateController

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

SEED = 7

ENERGY_PERIODS = {
    "tag1": 4,
    "tag2": 4,
    "tag3": 8,
    "tag4": 8,
    "tag5": 16,
    "tag6": 16,
    "tag11": 8,
}
WAVEFORM_PERIODS = {"tag5": 4, "tag8": 4, "tag9": 8}

ENERGY_SLOTS = 400
WAVEFORM_SLOTS = 40

@pytest.fixture(autouse=True)
def isolated_caches():
    phy_cache.clear_caches()
    yield
    phy_cache.clear_caches()


def _energy_faults() -> FaultSchedule:
    return FaultSchedule(
        [
            FaultEvent(slot=30, duration=20, kind="beacon_loss", target="tag1",
                       magnitude=0.5),
            FaultEvent(slot=60, duration=30, kind="brownout", target="tag2"),
            FaultEvent(slot=100, duration=10, kind="ack_corrupt",
                       target="tag3"),
            FaultEvent(slot=120, duration=40, kind="harvester_collapse",
                       target="tag4"),
            FaultEvent(slot=150, duration=20, kind="envelope_drift",
                       target="*", magnitude=4.0),
            FaultEvent(slot=200, duration=15, kind="noise_burst",
                       magnitude=12.0),
            FaultEvent(slot=240, duration=6, kind="crc_corrupt",
                       target="tag1"),
            FaultEvent(slot=260, duration=25, kind="brownout", target="tag5"),
            FaultEvent(slot=300, duration=1, kind="reader_restart"),
        ]
    )


def _waveform_faults() -> FaultSchedule:
    return FaultSchedule(
        [
            FaultEvent(slot=4, duration=6, kind="attenuation", target="tag5",
                       magnitude=12.0),
            FaultEvent(slot=10, duration=8, kind="bit_flip", target="tag8",
                       magnitude=3.0),
            FaultEvent(slot=18, duration=5, kind="noise_burst", target="*",
                       magnitude=6.0),
            FaultEvent(slot=24, duration=4, kind="brownout", target="tag9"),
            FaultEvent(slot=30, duration=6, kind="crc_corrupt",
                       target="tag5"),
        ]
    )


def _records(net):
    return [
        [r.slot, r.n_transmitters, r.decoded, r.collision_detected, r.acked,
         r.empty_flag]
        for r in net.records
    ]


def _slot_logs(net):
    return [
        [log.slot, list(log.transmitters), list(log.decoded_tids),
         log.n_clusters]
        for log in net.slot_logs
    ]


def _mac_state(net):
    return {
        name: [mac.state.name, mac.offset, mac.slot_counter,
               mac.beacons_received, mac.beacons_missed, mac.transmissions,
               mac.power_cycles]
        for name, mac in sorted(net.tags.items())
    }


def _energy_doc(net) -> dict:
    return {
        "records": _records(net),
        "mac": _mac_state(net),
        "energy_log": {
            name: [log.activations, log.brownouts, log.slots_dark,
                   log.slots_lit]
            for name, log in sorted(net.energy_log.items())
        },
        "capacitor_v": {
            name: repr(device.capacitor_v)
            for name, device in sorted(net.devices.items())
        },
        "fault_trace": (
            None if net.faults is None else net.faults.trace.signature()
        ),
    }


def run_energy_faulted() -> dict:
    # Tags start unpowered and charge in from the physics; tag11's
    # sensing budget browns it out once on top of the injected faults.
    net = EnergyAwareNetwork(
        ENERGY_PERIODS,
        config=NetworkConfig(seed=SEED),
        sensor_samples_per_slot=40.0,
        faults=_energy_faults(),
    )
    net.run(ENERGY_SLOTS)
    return _energy_doc(net)


def run_energy_sensing() -> dict:
    # ~60 samples/slot exceeds tag11's harvest budget: it browns out,
    # cold-boots and rejoins repeatedly.
    net = EnergyAwareNetwork(
        ENERGY_PERIODS,
        config=NetworkConfig(seed=SEED),
        sensor_samples_per_slot=60.0,
    )
    net.run(ENERGY_SLOTS)
    return _energy_doc(net)


def _waveform_doc(net) -> dict:
    return {
        "records": _records(net),
        "slot_logs": _slot_logs(net),
        "mac": _mac_state(net),
        "fault_trace": (
            None if net.faults is None else net.faults.trace.signature()
        ),
    }


def run_waveform_fm0() -> dict:
    config = NetworkConfig(seed=SEED)
    dense = WaveformNetwork(WAVEFORM_PERIODS, config=config)
    dense.run(WAVEFORM_SLOTS)
    faulted = WaveformNetwork(
        WAVEFORM_PERIODS, config=config, faults=_waveform_faults()
    )
    faulted.run(WAVEFORM_SLOTS)
    return {"dense": _waveform_doc(dense), "faulted": _waveform_doc(faulted)}


def run_waveform_adaptive() -> dict:
    controller = RateController(DEFAULT_LADDER)
    net = WaveformNetwork(
        WAVEFORM_PERIODS,
        config=NetworkConfig(seed=SEED),
        faults=_waveform_faults(),
        rate_controller=controller,
        uplink_plan={"tag5": LinkConfig("cook", 3000.0),
                     "tag8": LinkConfig("fsk", 125.0)},
    )
    net.run(WAVEFORM_SLOTS)
    doc = _waveform_doc(net)
    doc["uplink_plan"] = {
        name: config.label for name, config in sorted(net.uplink_plan.items())
    }
    doc["rate_history"] = {
        name: controller.history(name) for name in sorted(WAVEFORM_PERIODS)
    }
    return doc


RUNNERS = {
    "energy_faulted": run_energy_faulted,
    "energy_sensing": run_energy_sensing,
    "waveform_fm0": run_waveform_fm0,
    "waveform_adaptive": run_waveform_adaptive,
}


def _canonical(doc) -> dict:
    """Round-trip through JSON so tuples compare equal to lists."""
    return json.loads(json.dumps(doc, sort_keys=True))


def _signature(body: dict) -> str:
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_or_regen(name: str, regen: bool) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if regen:
        body = _canonical(RUNNERS[name]())
        doc = {
            "scenario": name,
            "seed": SEED,
            "body": body,
            "signature": _signature(body),
        }
        path.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return doc
    if not path.exists():
        pytest.fail(f"golden file {path} missing — run pytest with --regen-golden")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["energy_faulted", "energy_sensing"])
def test_energy_matches_golden(name, regen_golden):
    doc = load_or_regen(name, regen_golden)
    body = _canonical(RUNNERS[name]())
    assert _signature(body) == doc["signature"]
    assert body == doc["body"]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_waveform_fm0_matches_golden(fast, regen_golden, monkeypatch):
    doc = load_or_regen("waveform_fm0", regen_golden)
    monkeypatch.setenv(phy_cache.FAST_PATH_ENV, "1" if fast else "0")
    assert phy_cache.fast_path_enabled() is fast
    body = _canonical(run_waveform_fm0())
    assert body == doc["body"]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_waveform_adaptive_matches_golden(fast, regen_golden, monkeypatch):
    doc = load_or_regen("waveform_adaptive", regen_golden)
    monkeypatch.setenv(phy_cache.FAST_PATH_ENV, "1" if fast else "0")
    body = _canonical(run_waveform_adaptive())
    assert body == doc["body"]


def test_goldens_are_not_vacuous(regen_golden):
    """The pinned runs must exercise what they claim to pin."""
    faulted = load_or_regen("energy_faulted", regen_golden)["body"]
    assert sum(log[1] for log in faulted["energy_log"].values()) > 0
    assert sum(m[6] for m in faulted["mac"].values()) > 0
    assert faulted["fault_trace"] is not None
    sensing = load_or_regen("energy_sensing", regen_golden)["body"]
    assert sensing["energy_log"]["tag11"][1] > 1
    fm0 = load_or_regen("waveform_fm0", regen_golden)["body"]
    for scenario in ("dense", "faulted"):
        assert any(log[2] for log in fm0[scenario]["slot_logs"])
    adaptive = load_or_regen("waveform_adaptive", regen_golden)["body"]
    assert any(len(h) > 1 for h in adaptive["rate_history"].values())
