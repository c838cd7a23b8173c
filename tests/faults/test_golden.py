"""Golden-trace regression: four canonical scenarios under fixed
seeds must replay byte-for-byte against checked-in JSON documents.

Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python -m pytest tests/faults/test_golden.py --regen-golden

and review the golden diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.faults.scenarios import (
    SCENARIO_NAMES,
    SCENARIO_SEED,
    SCENARIO_SLOTS,
    run_scenario,
    scenario_schedule,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

_RUN_CACHE = {}


def scenario_run(name):
    """Each scenario executes once per test session (module cache)."""
    if name not in _RUN_CACHE:
        _RUN_CACHE[name] = run_scenario(name)
    return _RUN_CACHE[name]


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_or_regen(name: str, regen: bool) -> dict:
    run = scenario_run(name)
    path = golden_path(name)
    if regen:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        doc = run.to_jsonable()
        path.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return doc
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing — run pytest with --regen-golden"
        )
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
class TestGoldenScenarios:
    def test_trace_signature_matches_golden(self, name, regen_golden):
        doc = load_or_regen(name, regen_golden)
        run = scenario_run(name)
        assert run.trace.signature() == doc["trace_signature"], (
            f"scenario {name!r} drifted from its golden trace; if the "
            "change is intentional, regenerate with --regen-golden"
        )

    def test_full_trace_matches_golden(self, name, regen_golden):
        doc = load_or_regen(name, regen_golden)
        run = scenario_run(name)
        assert run.trace.to_jsonable() == doc["trace"]

    def test_schedule_signature_matches_golden(self, name, regen_golden):
        doc = load_or_regen(name, regen_golden)
        assert scenario_schedule(name).signature() == doc["schedule_signature"]

    def test_golden_metadata_pins_the_setup(self, name, regen_golden):
        doc = load_or_regen(name, regen_golden)
        assert doc["scenario"] == name
        assert doc["seed"] == SCENARIO_SEED
        assert doc["n_slots"] == SCENARIO_SLOTS


class TestScenarioMachinery:
    def test_all_scenarios_covered(self):
        assert set(SCENARIO_NAMES) == {
            "ideal",
            "lossy",
            "fault_burst",
            "supervised",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_scenario("nope")
        with pytest.raises(KeyError):
            scenario_schedule("nope")

    def test_repeat_runs_are_byte_identical(self):
        a = run_scenario("fault_burst")
        b = run_scenario("fault_burst")
        assert a.trace.canonical_bytes() == b.trace.canonical_bytes()

    def test_supervised_differs_from_vanilla_burst(self):
        # Same seed + schedule: any divergence is the policies acting.
        burst = scenario_run("fault_burst")
        healed = scenario_run("supervised")
        assert burst.trace.signature() != healed.trace.signature()

    def test_fault_burst_actually_disturbs_the_network(self):
        ideal = scenario_run("ideal")
        burst = scenario_run("fault_burst")
        # Same seed + topology: any divergence comes from the injection.
        assert ideal.trace.signature() != burst.trace.signature()
        assert burst.trace.count("fault.apply") == len(
            scenario_schedule("fault_burst")
        )

    def test_golden_dir_has_no_stray_scenarios(self):
        # "multireader" is pinned by tests/multireader/test_golden.py,
        # "relay_rescue" by tests/relay/test_relay_golden.py,
        # "adaptive_uplink" by tests/phy/test_adaptive_golden.py, the
        # energy and waveform traces by tests/core/test_network_golden.py.
        stray = (
            {p.stem for p in GOLDEN_DIR.glob("*.json")}
            - set(SCENARIO_NAMES)
            - {"multireader", "relay_rescue", "adaptive_uplink"}
            - {"energy_faulted", "energy_sensing", "waveform_fm0",
               "waveform_adaptive"}
        )
        assert not stray, f"unexpected golden files: {sorted(stray)}"
