"""Fig. R — Recovery time after injected beacon-loss bursts.

A repo-original experiment built on the fault-injection subsystem
(:mod:`repro.faults`): a converged six-tag network is hit with a
network-wide beacon-loss burst of 1..8 slots — every tag's Sec. 5.4
watchdog fires for the burst's duration, throwing them back to
MIGRATE — and we measure **slots-to-reconverge**: how long after the
burst clears until the reader again sees a full streak of
collision-free slots (:func:`repro.analysis.recovery.slots_to_reconverge`).

Every trial also replays itself under the same seed and checks the
fault trace's SHA-256 signature matches — the determinism contract of
the fault layer, asserted on every run of the experiment, not only in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.recovery import recovery_report, slots_to_reconverge
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.trace import TraceRecorder

#: Six tags at utilisation 11/16: disturbed allocations take visible
#: (but bounded) work to heal.
RECOVERY_PERIODS: Dict[str, int] = {
    "tag1": 4,
    "tag2": 8,
    "tag3": 8,
    "tag4": 16,
    "tag5": 16,
    "tag6": 16,
}

#: Slots of fault-free warm-up before the burst lands (ample for this
#: topology to converge from a cold start).
WARMUP_SLOTS = 600

#: Slots simulated after the burst clears.
MEASURE_SLOTS = 4000

#: Collision-free streak that counts as "recovered" (matches the
#: paper's convergence streak, Sec. 6.4).
RECOVERY_STREAK = 32

#: Burst lengths swept (slots of network-wide beacon loss).
DEFAULT_BURSTS: Sequence[int] = tuple(range(1, 9))


@dataclass(frozen=True)
class RecoveryTrial:
    """One burst length's outcome."""

    burst_slots: int
    slots_to_reconverge: Optional[int]
    collisions_after_clear: int
    trace_signature: str
    replay_identical: bool
    #: Fault events the controller applied/cleared during the measured
    #: run, counted from its fault trace (the same events it adds to
    #: ``faults.applied`` / ``faults.cleared`` when a registry is active).
    faults_applied: int = 0
    faults_cleared: int = 0


def _run_once(schedule: FaultSchedule, seed: int, n_slots: int) -> tuple:
    recorder = TraceRecorder()
    net = SlottedNetwork(
        RECOVERY_PERIODS,
        config=NetworkConfig(seed=seed, ideal_channel=True),
        faults=schedule,
        fault_recorder=recorder,
    )
    net.run(n_slots)
    return net, recorder


def run_figR(
    seed: int = 0,
    bursts: Sequence[int] = DEFAULT_BURSTS,
    warmup_slots: int = WARMUP_SLOTS,
    measure_slots: int = MEASURE_SLOTS,
    streak: int = RECOVERY_STREAK,
) -> List[RecoveryTrial]:
    """Sweep beacon-loss burst lengths; each trial verifies its own
    same-seed replay reproduces an identical fault trace."""
    trials: List[RecoveryTrial] = []
    for burst in bursts:
        if burst < 1:
            raise ValueError("burst length must be >= 1 slot")
        schedule = FaultSchedule(
            [
                FaultEvent(
                    slot=warmup_slots, duration=burst, kind="beacon_loss", target="*"
                )
            ]
        )
        n_slots = warmup_slots + burst + measure_slots
        net, recorder = _run_once(schedule, seed, n_slots)
        report = recovery_report(net.records, schedule.last_clear_slot, streak)
        _, replay = _run_once(schedule, seed, n_slots)
        trials.append(
            RecoveryTrial(
                burst_slots=burst,
                slots_to_reconverge=report.slots_to_reconverge,
                collisions_after_clear=report.collisions_after_clear,
                trace_signature=recorder.signature(),
                replay_identical=replay.signature() == recorder.signature(),
                faults_applied=recorder.count("fault.apply"),
                faults_cleared=recorder.count("fault.clear"),
            )
        )
    return trials


def format_figR(trials: List[RecoveryTrial]) -> str:
    """Render the burst-length sweep as an aligned table."""
    lines = [
        f"{'burst':>6}{'reconverge':>12}{'collisions':>12}{'replay':>8}  signature"
    ]
    for t in trials:
        reconverge = (
            str(t.slots_to_reconverge) if t.slots_to_reconverge is not None else "never"
        )
        replay = "ok" if t.replay_identical else "DRIFT"
        lines.append(
            f"{t.burst_slots:>6}{reconverge:>12}{t.collisions_after_clear:>12}"
            f"{replay:>8}  {t.trace_signature[:16]}"
        )
    return "\n".join(lines)
