"""Fig. M — Multi-hop relaying vs. direct-only on a junction ladder.

A repo-original experiment for the :mod:`repro.relay` subsystem.  The
paper's link budget (Sec. 4.2) charges every junction crossing twice on
the round-trip uplink but only once on the one-way downlink — so a tag
a few bulkheads deep still hears beacons while its own backscatter dies
on the way home.  This sweep measures what relaying buys in exactly
that regime: the :func:`repro.channel.deep_structure` ladder mounts six
tags at junction depths 0–5, and the same population runs twice under
the same seed:

* **direct** — :class:`~repro.relay.RelaySlottedNetwork` with
  ``relaying_enabled=False`` plus the PR 3 recovery ladder: byte-wise
  the plain network, the degradation baseline;
* **relayed** — relaying on, with
  :class:`~repro.resilience.RelayFallbackPolicy` engaging routes when
  the link health monitor gives up on a direct link.

The acceptance shape: tags at depth ≥ 3 deliver (strictly) more with
relaying, while shallow tags — which never engage a route — are no
worse.  (In practice they improve too: in the direct arm the dead tags
never commit and keep retrying at random offsets, polluting the
contention space; engaging routes retires that thrash.)  Delivery is
measured over the trailing window only, so the absent-detection and
route-engagement transient is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.channel import deep_structure
from repro.channel.medium import AcousticMedium
from repro.core.network import NetworkConfig
from repro.relay import RelaySlottedNetwork
from repro.resilience import (
    NetworkSupervisor,
    RelayFallbackPolicy,
    default_policies,
)

#: Default seed; any seed works (the depth-3+ tags' direct uplink is
#: physics-dead, not unlucky), this one keeps the shallow tags' two
#: arms visually close.
DEFAULT_SEED = 3

#: Every ladder tag on the same period: equal offered load per depth.
FIGM_PERIOD = 8

#: Total slots simulated per arm.
N_SLOTS = 600

#: Trailing slots delivery is averaged over (excludes route engagement).
MEASURE_SLOTS = 400

#: Relayed delivery may trail direct by at most this much for shallow
#: tags (they never engage a route; the slack is pure sampling noise).
SHALLOW_TOLERANCE = 0.02

#: Junction depth at which the direct uplink is dead and relaying must
#: strictly win.
DEEP_DEPTH = 3


@dataclass(frozen=True)
class RelayDepthTrial:
    """One tag's paired direct/relayed outcome."""

    tag: str
    depth: int
    direct_delivery: float
    relayed_delivery: float
    route: Optional[Tuple[str, ...]]
    hops: int
    relayed_frames: int
    dropped_frames: int

    @property
    def verdict(self) -> bool:
        """Deep tags must strictly improve; shallow tags must be no
        worse (up to sampling slack)."""
        if self.depth >= DEEP_DEPTH:
            return self.relayed_delivery > self.direct_delivery
        return self.relayed_delivery >= self.direct_delivery - SHALLOW_TOLERANCE


def _build(seed: int, relaying: bool) -> Tuple[RelaySlottedNetwork, NetworkSupervisor]:
    medium = AcousticMedium(biw=deep_structure(), reference_tag="tag1")
    periods = {name: FIGM_PERIOD for name in medium.biw.mounts if name != "reader"}
    net = RelaySlottedNetwork(
        periods,
        config=NetworkConfig(seed=seed),
        medium=medium,
        relaying_enabled=relaying,
    )
    policies = default_policies()
    if relaying:
        policies.append(RelayFallbackPolicy())
    return net, NetworkSupervisor(net, policies=policies)


def _delivery(net: RelaySlottedNetwork, measure_slots: int) -> Dict[str, float]:
    expected = measure_slots / FIGM_PERIOD
    counts = {name: 0 for name in net.tags}
    for record in net.records[-measure_slots:]:
        if record.decoded is not None and record.acked:
            counts[record.decoded] += 1
    return {name: counts[name] / expected for name in counts}


def run_figM(
    seed: int = DEFAULT_SEED,
    n_slots: int = N_SLOTS,
    measure_slots: int = MEASURE_SLOTS,
) -> List[RelayDepthTrial]:
    """Run both arms on the junction ladder, one trial per tag."""
    direct_net, direct_sup = _build(seed, relaying=False)
    for _ in range(n_slots):
        direct_sup.step()
    relay_net, relay_sup = _build(seed, relaying=True)
    for _ in range(n_slots):
        relay_sup.step()

    direct = _delivery(direct_net, measure_slots)
    relayed = _delivery(relay_net, measure_slots)
    biw = relay_net.medium.biw
    trials: List[RelayDepthTrial] = []
    for name in sorted(direct, key=lambda n: biw.junction_depth(n)):
        route = relay_net.routes.get(name)
        trials.append(
            RelayDepthTrial(
                tag=name,
                depth=biw.junction_depth(name),
                direct_delivery=direct[name],
                relayed_delivery=relayed[name],
                route=route.chain if route is not None else None,
                hops=route.hops if route is not None else 0,
                relayed_frames=route.delivered if route is not None else 0,
                dropped_frames=route.dropped if route is not None else 0,
            )
        )
    return trials


def format_figM(trials: Sequence[RelayDepthTrial]) -> str:
    """Render the sweep as an aligned table."""
    lines = [
        f"{'tag':>6}{'depth':>6}{'direct':>8}{'relayed':>8}{'hops':>6}"
        f"{'fwd':>6}{'drop':>6}  route / verdict"
    ]
    for t in trials:
        route = ">".join(t.route) if t.route else "-"
        if t.depth >= DEEP_DEPTH:
            verdict = "rescued" if t.verdict else "STILL DARK"
        else:
            verdict = "no worse" if t.verdict else "REGRESSED"
        lines.append(
            f"{t.tag:>6}{t.depth:>6}{t.direct_delivery:>8.3f}"
            f"{t.relayed_delivery:>8.3f}{t.hops:>6}{t.relayed_frames:>6}"
            f"{t.dropped_frames:>6}  {route} ({verdict})"
        )
    deep = [t for t in trials if t.depth >= DEEP_DEPTH]
    rescued = sum(1 for t in deep if t.verdict)
    lines.append("")
    lines.append(
        f"{rescued}/{len(deep)} junction-shadowed tags (depth >= "
        f"{DEEP_DEPTH}) rescued by relaying"
    )
    return "\n".join(lines)
