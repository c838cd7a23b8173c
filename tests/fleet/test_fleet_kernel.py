"""Exactness battery for the compiled fleet step.

``repro.phy.kernels.fleet_run`` runs a fleet engine's slots in one C
call (``step_all`` is its one-slot run), and its RNG banks seed and
refill through the compiled PCG64 entries.  The contract is stronger
than equal slot logs: after any build or run, every array of engine
state — tag firmware, reader ledger and rings, both RNG banks
(generator states, buffers and cursors), the slot log, the capture
verdicts (the medium's memo and the engine's table) and the summaries
— must equal the numpy backend's byte for byte, so that the two can be
swapped mid-run.  The banks are shrunk
here so that refills happen every few slots, and the overloaded roster
lists a long-period tag before short ones, so that its eviction victim
is not simply the lowest tid.
"""

from functools import partial

import numpy as np
import pytest

from repro import telemetry
from repro.core.network import NetworkConfig
from repro.experiments.configs import pattern
from repro.fleet import FleetEngine, specs_for_seeds
from repro.fleet import engine as engine_module
from repro.fleet.rng import OffsetBank, UniformBank
from repro.phy import kernels

ROSTERS = {
    # Table 3's c5: the stock deployment's 12 tags at utilisation 1.
    "stock12": pattern("c5").tag_periods(),
    "dense6": {
        "tag1": 4, "tag2": 4, "tag3": 8, "tag4": 8, "tag5": 16, "tag6": 16,
    },
    "sparse3": {"tag1": 16, "tag2": 32, "tag3": 32},
    # Utilisation 1.5 forces evictions; tag1/tag2 have the longest
    # periods, so the (period, name) victim is not the lowest tid.
    "overloaded": {
        "tag1": 8, "tag2": 8, "tag3": 2, "tag4": 4, "tag5": 4, "tag6": 4,
    },
    "long_period": {"tag1": 4, "tag2": 4, "tag3": 256, "tag4": 512},
}

CONFIGS = {
    "real": NetworkConfig(),
    "ideal": NetworkConfig(ideal_channel=True),
    "no_empty_flag": NetworkConfig(enable_empty_flag=False),
    "no_avoidance": NetworkConfig(enable_future_avoidance=False),
    "no_loss_timer": NetworkConfig(
        enable_beacon_loss_timer=False, beacon_loss_probability=0.05
    ),
    "loss_0.05": NetworkConfig(beacon_loss_probability=0.05),
    "loss_0.2_nack1": NetworkConfig(beacon_loss_probability=0.2, nack_threshold=1),
    "nack5": NetworkConfig(nack_threshold=5),
}

#: Configs run on the stock uniform bank (rare uniform refills, so the
#: offset bank's own watermark decides when it refills); the others
#: draw from a 16-draw bank, refilled every slot or two.
STOCK_UNIFORM_BANK = ("ideal", "nack5")

SEEDS = list(range(24))
N_SLOTS = 400


@pytest.fixture(autouse=True)
def compiled_backend():
    kernels.kernel_info()  # forces selection
    if kernels._compiled is None:
        pytest.skip(f"no compiled kernel backend ({kernels._load_errors})")


@pytest.fixture
def small_banks(monkeypatch):
    """Shrink the engine's RNG banks: refills every few slots."""

    def shrink(uniform_block):
        if uniform_block is not None:
            monkeypatch.setattr(
                engine_module, "UniformBank", partial(UniformBank, block=uniform_block)
            )
        monkeypatch.setattr(engine_module, "OffsetBank", partial(OffsetBank, block=8))

    return shrink


def engine_state(engine):
    """Every piece of the engine's array state, as comparable values."""
    tags, reader = engine.tags, engine.reader
    state = {f"tags.{name}": getattr(tags, name) for name in vars(tags)}
    for name in (
        "pending_ack", "pending_reset", "last_empty", "appeared", "committed",
        "evicting", "_ring_decoded", "_ring_collision", "_ring_activity",
        "commits_this_slot", "evictions_this_slot",
    ):
        state[f"reader.{name}"] = getattr(reader, name)
    for bank in ("_uniforms", "_offsets"):
        state[f"{bank}.buf"] = getattr(engine, bank)._buf
        state[f"{bank}.cursor"] = getattr(engine, bank)._cursor
        state[f"{bank}.states"] = getattr(engine, bank)._states
    for name, _ in engine.log.FIELDS:
        state[f"log.{name}"] = getattr(engine.log, name)
    # Capture verdicts: the medium's memo and the table both steps read.
    state["capture_verdicts"] = engine._medium.capture_verdicts(
        engine.config.ul_raw_rate_bps
    )
    state["capture_tid"] = engine._capture_tid
    state["capture_p"] = engine._capture_p
    state["summaries"] = engine.summaries()
    return {
        key: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray)
        else value
        for key, value in state.items()
    }


def differing(a, b):
    return sorted(key for key in a if a[key] != b[key])


def run_fleet(periods, config, backends, activation=None, resets=()):
    """Build a fleet on ``backends[0]`` and step it N_SLOTS slots, on
    ``backends[k]`` in the k-th equal stretch of the run; ``resets``
    maps slot -> networks to reset (None: all).  Returns the engine and
    its eviction count."""
    with kernels.use_backend(backends[0]):
        engine = FleetEngine(
            periods, specs_for_seeds(SEEDS), config=config, activation_slot=activation
        )
    stretch = -(-N_SLOTS // len(backends))
    evictions = 0
    for slot in range(N_SLOTS):
        if slot in resets:
            engine.request_reset(resets[slot])
        with kernels.use_backend(backends[slot // stretch]):
            engine.step_all()
        evictions += engine.reader.evictions_this_slot
    return engine, evictions


def staggered(periods):
    names = sorted(periods)
    return {names[1]: 37, names[-1]: 120}


EVENTS = {130: None, 260: ["net3", "net17"]}


class TestStateMatchesNumpyStep:
    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("roster", list(ROSTERS))
    def test_whole_state_is_byte_identical(self, roster, config, small_banks):
        small_banks(None if config in STOCK_UNIFORM_BANK else 16)
        periods = ROSTERS[roster]
        runs = {}
        for backend in ("numpy", "cext"):
            engine, evictions = run_fleet(
                periods, CONFIGS[config], [backend], staggered(periods), EVENTS
            )
            assert (engine._compiled_stepper is not None) == (backend == "cext")
            runs[backend] = engine_state(engine), evictions
        (numpy_state, numpy_evictions), (cext_state, cext_evictions) = runs.values()
        assert differing(numpy_state, cext_state) == []
        assert cext_evictions == numpy_evictions

    @pytest.mark.parametrize("roster", ["stock12", "long_period"])
    def test_built_state_is_byte_identical(self, roster, small_banks):
        # Seeding and the first fills: the RNG banks are the whole
        # difference between two builds.
        small_banks(16)
        built = []
        for backend in ("numpy", "cext"):
            with kernels.use_backend(backend):
                built.append(engine_state(FleetEngine(
                    ROSTERS[roster], specs_for_seeds(SEEDS), config=CONFIGS["real"]
                )))
        assert differing(*built) == []

    def test_overloaded_roster_evicts(self):
        _, evictions = run_fleet(ROSTERS["overloaded"], CONFIGS["real"], ["cext"])
        assert evictions > 0

    @pytest.mark.parametrize("roster", ["stock12", "overloaded"])
    def test_backend_switch_mid_run(self, roster, small_banks):
        # The log grows (64 -> 128 -> 256 -> 512 rows) in both lanes'
        # stretches, so the compiled step must re-point its row.
        small_banks(16)
        periods = ROSTERS[roster]
        reference, _ = run_fleet(periods, CONFIGS["real"], ["numpy"], resets=EVENTS)
        switched, _ = run_fleet(
            periods, CONFIGS["real"], ["cext", "numpy", "cext", "numpy", "cext"],
            resets=EVENTS,
        )
        assert differing(engine_state(reference), engine_state(switched)) == []

    def test_telemetry_snapshots_match(self):
        snapshots = []
        for backend in ("numpy", "cext"):
            with telemetry.collecting() as registry:
                run_fleet(ROSTERS["overloaded"], CONFIGS["real"], [backend],
                          resets=EVENTS)
            snapshots.append(registry.snapshot().to_jsonable())
        assert snapshots[0] == snapshots[1]
        metrics = snapshots[1]["metrics"]
        assert "mac.reader.evictions" in metrics
        assert "mac.reader.commits" in metrics


class TestRouting:
    def test_kernel_info_lists_the_entry_and_its_numpy_route(self):
        info = kernels.kernel_info()
        assert "fleet_run" in info["kernels"]
        assert "energy-mode" in info["routes"]["fleet_run"]
        assert "fleet_run" in kernels._compiled

    def test_energy_fleets_keep_the_numpy_step(self):
        engine = FleetEngine(
            ROSTERS["sparse3"], specs_for_seeds([0, 1]), energy=True
        )
        with kernels.use_backend("cext"):
            for _ in range(20):
                engine.step_all()
        assert engine._compiled_stepper is None
