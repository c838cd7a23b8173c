"""Figs. S, R and T read their tallies from the simulation's own
ledgers (the supervisor's ``actions``/``violations``, the fault trace,
the network's ``handoffs``).  With a registry active, each tally must
equal the counter delta the experiment used to read from it; with no
registry, the experiments must run with telemetry off."""

import pytest

from repro import telemetry
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments import figR_recovery, figS_degradation, figT_multireader
from repro.resilience import NetworkSupervisor


def _run_with_deltas(module, name, counters, run):
    """Run ``run()`` under a fresh registry with ``module.name`` wrapped
    so every call records the delta of each counter in ``counters``.
    Returns ``(run's result, [(call's result, deltas), ...])``."""
    calls = []
    real = getattr(module, name)
    with telemetry.collecting() as registry, pytest.MonkeyPatch.context() as mp:

        def wrapped(*args, **kwargs):
            before = registry.snapshot()
            out = real(*args, **kwargs)
            after = registry.snapshot()
            calls.append(
                (out, {c: int(after.total(c) - before.total(c)) for c in counters})
            )
            return out

        mp.setattr(module, name, wrapped)
        result = run()
    return result, calls


LEVELS = [name for name, _ in figS_degradation.degradation_levels()]


@pytest.fixture(scope="module")
def figS_run():
    return _run_with_deltas(
        figS_degradation,
        "_measure",
        ("resilience.policy_actions", "resilience.violations"),
        figS_degradation.run_figS,
    )


@pytest.mark.parametrize("index", range(len(LEVELS)), ids=LEVELS)
def test_figS_tallies_equal_registry_deltas(figS_run, index):
    trials, calls = figS_run
    trial = trials[index]
    (_, _, b_actions, b_violations), baseline = calls[2 * index]
    (_, _, actions, violations), supervised = calls[2 * index + 1]
    assert trial.level == LEVELS[index]
    assert (b_actions, b_violations) == (0, 0)
    assert baseline == {"resilience.policy_actions": 0, "resilience.violations": 0}
    assert (actions, violations) == (
        supervised["resilience.policy_actions"],
        supervised["resilience.violations"],
    )
    assert (trial.policy_actions, trial.invariant_violations) == (actions, violations)


def test_figS_summary_same_with_registry_active(figS_run):
    trials, _ = figS_run
    assert figS_degradation.summarize_figS(
        trials
    ) == figS_degradation.summarize_figS(figS_degradation.run_figS())


def test_supervisor_ledgers_equal_registry_under_violations():
    # The Fig. S ladder never violates an invariant, so corrupt a run
    # until the escalation ladder fires to tally real violations.
    net = SlottedNetwork(
        figR_recovery.RECOVERY_PERIODS,
        config=NetworkConfig(seed=2, ideal_channel=True),
    )
    sup = NetworkSupervisor(net, policy_grace=2, restart_grace=2)
    sup.run(150)
    with telemetry.collecting() as registry:
        for _ in range(3):
            net.reader._evicting["ghost"] = 0
            sup.run(5)
        snap = registry.snapshot()
    assert len(sup.violations) >= 3
    assert len(sup.violations) == snap.total("resilience.violations")
    assert len(sup.actions) == snap.total("resilience.policy_actions")


def test_figR_tallies_equal_registry_deltas():
    bursts = figR_recovery.DEFAULT_BURSTS
    trials, calls = _run_with_deltas(
        figR_recovery,
        "_run_once",
        ("faults.applied", "faults.cleared"),
        lambda: figR_recovery.run_figR(bursts=bursts, measure_slots=100),
    )
    # Each burst runs the measured network, then its replay.
    assert len(calls) == 2 * len(bursts)
    for trial, (_, measured) in zip(trials, calls[::2]):
        assert trial.faults_applied == measured["faults.applied"] == 1
        assert trial.faults_cleared == measured["faults.cleared"] == 1


def test_figT_tallies_equal_registry_deltas():
    trials, calls = _run_with_deltas(
        figT_multireader,
        "_measure",
        ("multireader.handoffs",),
        figT_multireader.run_figT,
    )
    handoffs = [out[4] for out, _ in calls]
    assert handoffs == [d["multireader.handoffs"] for _, d in calls]
    assert sum(handoffs) > 0
    assert handoffs[::2] == [t.planned_handoffs for t in trials]
    assert handoffs[1::2] == [t.shared_handoffs for t in trials]


@pytest.mark.parametrize(
    "run, slots",
    [
        (figS_degradation.run_figS, 20_268),
        (lambda: figR_recovery.run_figR(bursts=(1, 8), measure_slots=100), 2_818),
        (figT_multireader.run_figT, None),
    ],
    ids=["figS", "figR", "figT"],
)
def test_no_registry_runs_with_telemetry_off(monkeypatch, run, slots):
    seen = []
    step = SlottedNetwork.step

    def spy(self):
        seen.append(telemetry.active())
        return step(self)

    monkeypatch.setattr(SlottedNetwork, "step", spy)
    assert telemetry.active() is None
    run()
    assert seen and all(tel is None for tel in seen)
    if slots is not None:
        assert len(seen) == slots
