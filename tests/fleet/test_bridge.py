"""Differential battery for the compiled fleet run and the bridge.

``SlottedNetwork.run_until_converged`` runs a fresh plain network on a
one-network fleet engine when the compiled backend is active
(:mod:`repro.fleet.bridge`) and writes the engine's state back.  The
contract: the network then holds exactly what its own Python slot loop
(the numpy backend's path) would have left — every tag and reader
field, the slot log in the same list objects, and both random streams,
which the next 600 Python slots and a final draw of each stream read.

``FleetEngine.run`` and ``FleetEngine.run_until_converged`` go through
``kernels.fleet_run``; after them every engine field must equal what
as many ``step_all`` calls leave, including the log's capacity and
generation, with refills, capture resolutions, log growth and backend
switches landing mid-run.
"""

from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
from fleet.test_fleet_kernel import engine_state

from repro import telemetry
from repro.channel.biw import onvo_l60
from repro.channel.medium import AcousticMedium
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.configs import pattern
from repro.fleet import FleetEngine, bridge, specs_for_seeds
from repro.fleet import engine as engine_module
from repro.fleet.rng import OffsetBank, UniformBank
from repro.phy import kernels
from repro.phy.modulation import LinkConfig
from repro.phy.rate import RateController

PATTERNS = [f"c{i}" for i in range(1, 10)]

CONFIGS = {
    "loss_0.02": NetworkConfig(beacon_loss_probability=0.02),
    "no_empty_flag": NetworkConfig(enable_empty_flag=False),
    "no_avoidance": NetworkConfig(enable_future_avoidance=False),
    "no_loss_timer": NetworkConfig(
        enable_beacon_loss_timer=False, beacon_loss_probability=0.05
    ),
    "nack1": NetworkConfig(nack_threshold=1, beacon_loss_probability=0.01),
    "nack5": NetworkConfig(nack_threshold=5),
}

#: Long enough for most patterns to converge, short enough that c5's
#: slower seeds also cover the None return.
MAX_SLOTS = 2500
AFTER_SLOTS = 600


@pytest.fixture(autouse=True)
def compiled_backend():
    kernels.kernel_info()  # forces selection
    if kernels._compiled is None:
        pytest.skip(f"no compiled kernel backend ({kernels._load_errors})")


@pytest.fixture
def engines_built(monkeypatch):
    """Count the fleet engines the bridge builds."""
    built = []

    class Spy(FleetEngine):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bridge, "FleetEngine", Spy)
    return built


def network_state(net):
    """Every field of the network's tags and reader, and its slot log."""
    tags = {
        name: (
            {k: v for k, v in vars(tag).items() if k != "machine"},
            {k: v for k, v in vars(tag.machine).items() if k != "_pick"},
        )
        for name, tag in net.tags.items()
    }
    reader = {k: v for k, v in vars(net.reader).items() if k != "records"}
    return {
        "tags": tags,
        "reader": reader,
        "records": [astuple(r) for r in net.records],
        "reader_records": [astuple(r) for r in net.reader.records],
    }


def stream_draws(net):
    """The next draws of the slot stream and of every offset picker."""
    slots = [net._slot_rng.random() for _ in range(3000)]
    picks = {
        name: [tag.machine._pick(tag.period) for _ in range(200)]
        for name, tag in net.tags.items()
    }
    return slots, picks


def converge(backend, periods, config, activation=None, max_slots=MAX_SLOTS):
    """Build a network, converge it on ``backend``, run 600 Python
    slots; returns its result and state at each point."""
    with kernels.use_backend(backend):
        net = SlottedNetwork(periods, config=config, activation_slot=activation)
        records, reader_records = net.records, net.reader.records
        accepted = bridge.decline_reason(net) is None
        slots = net.run_until_converged(max_slots=max_slots)
        converged = network_state(net)
        net.run(AFTER_SLOTS)
        assert net.records is records
        assert net.reader.records is reader_records
        assert all(a is b for a, b in zip(net.records, net.reader.records))
        return accepted, slots, converged, network_state(net), stream_draws(net)


def assert_bridge_matches_loop(periods, config, activation=None, max_slots=MAX_SLOTS):
    accepted, *loop = converge("numpy", periods, config, activation, max_slots)
    assert not accepted
    accepted, *fleet = converge("cext", periods, config, activation, max_slots)
    assert accepted
    for name, a, b in zip(("result", "converged", "after", "streams"), loop, fleet):
        assert a == b, name
    return loop[0]


class TestBridgeMatchesPythonLoop:
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "real"])
    @pytest.mark.parametrize("seed", [0, 1000])
    @pytest.mark.parametrize("name", PATTERNS)
    def test_patterns(self, name, seed, ideal, engines_built):
        config = NetworkConfig(seed=seed, ideal_channel=ideal)
        assert_bridge_matches_loop(pattern(name).tag_periods(), config)
        assert len(engines_built) == 1

    @pytest.mark.parametrize("name, seed", [("c2", 3), ("c4", 11)])
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_configs(self, config, name, seed):
        config = replace(CONFIGS[config], seed=seed)
        assert_bridge_matches_loop(pattern(name).tag_periods(), config)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_staggered_activation(self, seed):
        periods = pattern("c3").tag_periods()
        names = sorted(periods)
        activation = {names[0]: 40, names[3]: 7, names[-1]: 150}
        config = NetworkConfig(seed=seed, ideal_channel=seed == 1)
        assert_bridge_matches_loop(periods, config, activation)

    @pytest.mark.parametrize("max_slots", [0, 1, 5, 100])
    def test_budget_runs_out(self, max_slots):
        config = NetworkConfig(seed=2)
        result = assert_bridge_matches_loop(
            pattern("c5").tag_periods(), config, max_slots=max_slots
        )
        assert result is None

    def test_converges_on_the_streak_slot(self):
        config = NetworkConfig(seed=4, ideal_channel=True)
        with kernels.use_backend("cext"):
            net = SlottedNetwork(pattern("c2").tag_periods(), config=config)
            slots = net.run_until_converged(streak=8)
        assert slots == len(net.records) == net.reader.slot_index
        assert not any(r.collision_detected for r in net.records[-8:])


def _wide_roster_network(config):
    biw = onvo_l60()
    for k in range(13, 18):
        biw.add_mount(f"tag{k}", "middle_floor")
    periods = {f"tag{k}": 32 for k in range(1, 18)}
    return SlottedNetwork(periods, medium=AcousticMedium(biw=biw), config=config)


class _Hook:
    def on_beacon_loss(self, tag):
        return False

    def on_power_cycle(self, tag):
        pass

    def feedback(self, tag, beacon):
        return beacon

    def to_reader(self, tag):
        return True


def _poke_medium(net):
    # The network's loss table no longer matches its channel.
    net._beacon_loss["tag5"] = 0.25


#: Each decline: how the network is built or prepared, and the reason.
DECLINES = {
    "numpy": (None, "the compiled fleet_run is not active"),
    "subclass": (None, "not a plain SlottedNetwork"),
    "telemetry": (None, "telemetry is active"),
    "faults": (None, "a fault schedule"),
    "parked": (lambda net: net.park_tag("tag3"), "a parked tag"),
    "uplink_plan": (None, "an uplink plan or rate controller"),
    "rate_controller": (None, "an uplink plan or rate controller"),
    "recovery_hook": (
        lambda net: net.tags["tag2"].attach_recovery(_Hook()), "a tag hook"
    ),
    "uplink_hook": (lambda net: net.tags["tag6"].attach_uplink(_Hook()), "a tag hook"),
    "wide_roster": (None, "more than 16 tags"),
    "stepped": (lambda net: net.step(), "a slot was stepped"),
    "reset": (lambda net: net.reset(), "a RESET is pending"),
    "tag_field": (
        lambda net: setattr(net.tags["tag4"], "rejoin_holdoff", 2),
        "a tag field is off its constructed value",
    ),
    "slot_stream": (
        lambda net: net._slot_rng.random(), "the slot stream has been drawn from"
    ),
    "loss_table": (
        _poke_medium, "the beacon-loss table no longer matches the channel"
    ),
}


class TestDeclines:
    def _network(self, case):
        from repro.faults.schedule import FaultEvent, FaultSchedule

        config = NetworkConfig(seed=9)
        periods = pattern("c2").tag_periods()
        if case == "subclass":
            return type("Sub", (SlottedNetwork,), {})(periods, config=config)
        if case == "faults":
            faults = FaultSchedule(
                [FaultEvent(slot=20, duration=10, kind="brownout", target="tag1")]
            )
            return SlottedNetwork(periods, config=config, faults=faults)
        if case == "uplink_plan":
            plan = {name: LinkConfig("fm0_ook", 375.0) for name in periods}
            return SlottedNetwork(periods, config=config, uplink_plan=plan)
        if case == "rate_controller":
            return SlottedNetwork(
                periods, config=config, rate_controller=RateController()
            )
        if case == "wide_roster":
            return _wide_roster_network(replace(config, ideal_channel=True))
        net = SlottedNetwork(periods, config=config)
        prepare = DECLINES.get(case, (None,))[0]
        if prepare is not None:
            prepare(net)
        return net

    def _records(self, case, backend):
        with kernels.use_backend(backend):
            net = self._network(case)
            if case == "telemetry":
                with telemetry.collecting():
                    reason = bridge.decline_reason(net)
                    slots = net.run_until_converged(max_slots=3000)
            else:
                reason = bridge.decline_reason(net)
                slots = net.run_until_converged(max_slots=3000)
        return reason, slots, [astuple(r) for r in net.records]

    @pytest.mark.parametrize("case", list(DECLINES))
    def test_declined_network_keeps_the_python_loop(self, case, engines_built):
        backend = "numpy" if case == "numpy" else "cext"
        reason, *result = self._records(case, backend)
        assert reason == DECLINES[case][1]
        assert engines_built == []
        assert result == list(self._records(case, "numpy")[1:])

    def test_fresh_network_is_accepted(self):
        with kernels.use_backend("cext"):
            assert bridge.decline_reason(self._network("plain")) is None


# -- FleetEngine.run and run_until_converged ----------------------------------

ROSTERS = {
    "stock12": pattern("c5").tag_periods(),
    "overloaded": {
        "tag1": 8, "tag2": 8, "tag3": 2, "tag4": 4, "tag5": 4, "tag6": 4,
    },
}


@pytest.fixture
def small_banks(monkeypatch):
    """Shrink the engine's RNG banks: refills every few slots."""
    monkeypatch.setattr(engine_module, "UniformBank", partial(UniformBank, block=32))
    monkeypatch.setattr(engine_module, "OffsetBank", partial(OffsetBank, block=8))


def full_state(engine):
    """engine_state plus the log's capacity and generation."""
    state = engine_state(engine)
    state["log.capacity"] = len(engine.log.buffers()[0])
    state["log.generation"] = engine.log.generation
    state["slot"] = engine.slots_elapsed
    return state


def differing(a, b):
    return sorted(key for key in a if a[key] != b[key])


def build(periods, config, seeds=range(12), backend="cext"):
    with kernels.use_backend(backend):
        return FleetEngine(periods, specs_for_seeds(seeds), config=config)


#: Run lengths crossing the log's 64, 128, 256 and 512-row growths,
#: with an empty run among them.
CHUNKS = [37, 0, 50, 1, 150, 300]


class TestRunMatchesStepAll:
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "real"])
    @pytest.mark.parametrize("roster", list(ROSTERS))
    @pytest.mark.parametrize("backend", ["cext", "numpy"])
    def test_chunked_runs(self, backend, roster, ideal, small_banks):
        config = NetworkConfig(ideal_channel=ideal)
        stepped = build(ROSTERS[roster], config, range(6), backend=backend)
        ran = build(ROSTERS[roster], config, range(6), backend=backend)
        with kernels.use_backend(backend):
            for chunk in CHUNKS:
                for _ in range(chunk):
                    stepped.step_all()
                ran.run(chunk)
                assert differing(full_state(stepped), full_state(ran)) == []
        assert full_state(ran)["log.generation"] == 4

    def test_refills_and_resolves_land_mid_run(self, small_banks, monkeypatch):
        calls = {"refill": 0, "resolve": 0}
        engine = build(ROSTERS["overloaded"], NetworkConfig())
        for name in ("_refill_banks", "_resolve_mask"):
            method = getattr(engine, name)

            def spy(*args, _method=method, _key=name[1:].split("_")[0]):
                calls[_key] += 1
                return _method(*args)

            monkeypatch.setattr(engine, name, spy)
        with kernels.use_backend("cext"):
            assert kernels.fleet_run(engine, 300) == 300
        assert calls["refill"] > 10 and calls["resolve"] > 0

    def test_backend_switch_between_runs(self, small_banks):
        config = NetworkConfig()
        stepped = build(ROSTERS["overloaded"], config, backend="numpy")
        ran = build(ROSTERS["overloaded"], config, backend="cext")
        for backend, chunk in zip(["cext", "numpy", "cext", "numpy"], [90, 70, 200, 40]):
            with kernels.use_backend(backend):
                ran.run(chunk)
            with kernels.use_backend("numpy"):
                for _ in range(chunk):
                    stepped.step_all()
        assert differing(full_state(stepped), full_state(ran)) == []

    def test_telemetry_counts_every_slot(self):
        snapshots = []
        for run in (True, False):
            engine = build(ROSTERS["overloaded"], NetworkConfig())
            with telemetry.collecting() as registry, kernels.use_backend("cext"):
                if run:
                    engine.run(200)
                else:
                    for _ in range(200):
                        engine.step_all()
            snapshots.append(registry.snapshot().to_jsonable())
        assert snapshots[0] == snapshots[1]

    def test_energy_fleet_runs_the_numpy_step(self):
        periods = {"tag1": 16, "tag2": 32, "tag3": 32}
        engines = [
            FleetEngine(periods, specs_for_seeds([0, 1]), energy=True)
            for _ in range(2)
        ]
        with kernels.use_backend("cext"):
            engines[0].run(120)
            for _ in range(120):
                engines[1].step_all()
        assert engines[0]._compiled_stepper is None
        assert differing(*(full_state(e) for e in engines)) == []


def sequential_convergence(periods, config, seed, streak=32, max_slots=MAX_SLOTS):
    with kernels.use_backend("numpy"):
        net = SlottedNetwork(periods, config=replace(config, seed=seed))
        return net.run_until_converged(streak=streak, max_slots=max_slots)


class TestRunUntilConverged:
    @pytest.mark.parametrize("backend", ["cext", "numpy"])
    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
    def test_ten_networks_match_sequential(self, name, backend):
        periods = pattern(name).tag_periods()
        config = NetworkConfig(ideal_channel=name != "c3")
        seeds = [1000 * k for k in range(10)]
        engine = build(periods, config, seeds, backend=backend)
        with kernels.use_backend(backend):
            result = engine.run_until_converged(max_slots=MAX_SLOTS)
        expected = [sequential_convergence(periods, config, s) for s in seeds]
        assert list(result.values()) == expected
        finished = [t for t in expected if t is not None]
        assert engine.slots_elapsed == (
            MAX_SLOTS if None in expected else max(finished)
        )

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "real"])
    def test_backends_leave_the_same_engine(self, ideal, small_banks):
        config = NetworkConfig(ideal_channel=ideal)
        states = []
        for backend in ("numpy", "cext"):
            engine = build(ROSTERS["stock12"], config, range(4), backend=backend)
            with kernels.use_backend(backend):
                result = engine.run_until_converged(streak=16, max_slots=1500)
            states.append((result, full_state(engine)))
        assert states[0][0] == states[1][0]
        assert differing(states[0][1], states[1][1]) == []

    @pytest.mark.parametrize("backend", ["cext", "numpy"])
    def test_second_call_counts_from_its_own_start(self, backend):
        periods = pattern("c2").tag_periods()
        config = NetworkConfig(seed=6)
        engine = build(periods, config, [6], backend=backend)
        with kernels.use_backend("numpy"):
            net = SlottedNetwork(periods, config=config)
            expected = [net.run_until_converged(streak=s) for s in (32, 40, 1)]
        with kernels.use_backend(backend):
            got = [engine.run_until_converged(streak=s)["net0"] for s in (32, 40, 1)]
        assert got == expected
        assert engine.records("net0") == net.records

    def test_unconverged_networks_read_none(self):
        engine = build(ROSTERS["overloaded"], NetworkConfig(), range(3))
        with kernels.use_backend("cext"):
            result = engine.run_until_converged(streak=5000, max_slots=700)
        assert result == dict.fromkeys(["net0", "net1", "net2"])
        assert engine.slots_elapsed == 700

    def test_kernel_info_lists_the_run_route(self):
        info = kernels.kernel_info()
        assert "fleet_run" in info["kernels"] and "fleet_run" in kernels._compiled
        assert "energy-mode" in info["routes"]["fleet_run"]


def test_stepping_after_a_run_continues_the_sequential_log():
    periods = ROSTERS["overloaded"]
    engine = build(periods, NetworkConfig(), [8])
    with kernels.use_backend("cext"):
        engine.run(77)
        for _ in range(40):
            engine.step_all()
        engine.run(90)
    with kernels.use_backend("numpy"):
        net = SlottedNetwork(periods, config=NetworkConfig(seed=8))
        net.run(207)
    assert engine.records("net0") == net.records
    assert np.array_equal(engine.log.collision[:, 0], [r.collision_detected for r in net.records])
