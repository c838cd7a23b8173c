"""Telemetry-driven per-tag rate control for the adaptive PHY.

:class:`RateController` walks each tag up and down a ladder of
``(modulation, bitrate)`` rungs (:data:`DEFAULT_LADDER`) from link-
quality observations: either fed directly per slot by the MAC loop, or
consumed in windows from the ``phy.link.quality_db`` telemetry
histograms (:meth:`RateController.update_from_snapshot`) that the
networks publish when a collection is active.

The control law is deliberately boring — and therefore provable:

* **downgrade immediately** when quality falls more than
  ``down_margin_db`` below the current rung's floor, straight to the
  best rung whose floor the link still clears;
* **upgrade patiently**: only after ``dwell`` consecutive observations
  clear a higher rung's floor by ``up_margin_db``, and then jump
  straight to the best such rung.

The asymmetry (fast down, slow up) plus the margin gap is the
hysteresis band; the derandomized property suite pins monotonicity in
SNR, the no-oscillation bound, and label-permutation determinism.

A network adapts exactly when it is given an ``uplink_plan`` or a
``rate_controller``; with neither, every tag rides the fixed-rate FM0
link, and an FM0-only plan is byte-identical to no plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.phy.modulation import LinkConfig, get_modulation

#: Histogram metric the networks publish and the controller consumes.
QUALITY_METRIC = "phy.link.quality_db"

#: Linear bucket edges (dB) for the link-quality histograms.  Quality
#: can sit at or below 0 dB under faults, so the log-spaced helper does
#: not apply here.
QUALITY_HISTOGRAM_BOUNDS_DB: Tuple[float, ...] = tuple(
    float(b) for b in range(-6, 40, 3)
)


@dataclass(frozen=True)
class RateStep:
    """One ladder rung: a link config and the quality floor it needs."""

    config: LinkConfig
    min_quality_db: float


#: The shipped ladder, ordered worst-link to best-link.  Floors are
#: calibrated against the analytic link budget so that a rung is only
#: offered where its packet success stays in the paper's <2.5% loss
#: regime (at floor + up-margin); data rates are strictly increasing
#: up the ladder, so "best qualifying rung" is also "fastest".
DEFAULT_LADDER: Tuple[RateStep, ...] = (
    RateStep(LinkConfig("fm0_ook", 93.75), float("-inf")),
    RateStep(LinkConfig("fsk", 125.0), 6.5),
    RateStep(LinkConfig("fsk", 250.0), 9.0),
    RateStep(LinkConfig("fm0_ook", 750.0), 14.5),
    RateStep(LinkConfig("fm0_ook", 1500.0), 17.5),
    RateStep(LinkConfig("fm0_ook", 3000.0), 19.5),
    RateStep(LinkConfig("cook", 3000.0), 25.5),
)


@dataclass
class _TagState:
    index: int
    observations: int = 0
    pending_target: int = -1
    streak: int = 0
    switches: int = 0
    history: List[Tuple[int, str]] = field(default_factory=list)


class RateController:
    """Hysteretic per-tag (modulation, bitrate) selection.

    Parameters
    ----------
    ladder:
        Rungs ordered by increasing quality floor (and, conventionally,
        increasing data rate).  The first rung's floor should be
        ``-inf`` so every link has a home.
    up_margin_db / down_margin_db:
        Hysteresis margins around each rung floor; the upgrade bar is
        ``floor + up_margin_db``, the downgrade trigger
        ``floor - down_margin_db``.
    dwell:
        Consecutive qualifying observations required before an upgrade
        commits (downgrades are immediate).
    initial:
        Optional starting rung for newly-seen tags (must be a config in
        the ladder); defaults to the bottom rung.
    """

    def __init__(
        self,
        ladder: Sequence[RateStep] = DEFAULT_LADDER,
        *,
        up_margin_db: float = 1.0,
        down_margin_db: float = 1.5,
        dwell: int = 2,
        initial: Optional[LinkConfig] = None,
    ) -> None:
        if not ladder:
            raise ValueError("rate ladder must have at least one rung")
        if up_margin_db < 0 or down_margin_db < 0:
            raise ValueError("hysteresis margins must be non-negative")
        if dwell < 1:
            raise ValueError("dwell must be at least one observation")
        floors = [step.min_quality_db for step in ladder]
        if floors != sorted(floors):
            raise ValueError("ladder floors must be non-decreasing")
        for step in ladder:
            mod = get_modulation(step.config.modulation)
            if step.config.bitrate_bps not in mod.rates_bps:
                raise ValueError(
                    f"{step.config.label}: rate not offered by "
                    f"modulation {mod.name!r}"
                )
        self.ladder: Tuple[RateStep, ...] = tuple(ladder)
        self.up_margin_db = float(up_margin_db)
        self.down_margin_db = float(down_margin_db)
        self.dwell = int(dwell)
        if initial is None:
            self._initial_index = 0
        else:
            matches = [
                i for i, step in enumerate(self.ladder)
                if step.config == initial
            ]
            if not matches:
                raise ValueError(f"initial config {initial.label} not in ladder")
            self._initial_index = matches[0]
        self._tags: Dict[str, _TagState] = {}

    # -- observation path --------------------------------------------------

    def _state(self, tag: str) -> _TagState:
        state = self._tags.get(tag)
        if state is None:
            state = _TagState(index=self._initial_index)
            state.history.append(
                (0, self.ladder[self._initial_index].config.label)
            )
            self._tags[tag] = state
        return state

    def observe(self, tag: str, quality_db: float) -> LinkConfig:
        """Feed one link-quality sample; returns the (new) config."""
        state = self._state(tag)
        state.observations += 1
        current = self.ladder[state.index]
        if quality_db < current.min_quality_db - self.down_margin_db:
            # Immediate downgrade to the best rung the link still
            # clears (the bottom rung's -inf floor always matches).
            target = max(
                i
                for i, step in enumerate(self.ladder)
                if step.min_quality_db <= quality_db
            )
            if target < state.index:
                self._switch(state, target)
            state.pending_target = -1
            state.streak = 0
            return self.ladder[state.index].config
        # Upgrade candidate: best rung cleared with margin.
        target = max(
            i
            for i, step in enumerate(self.ladder)
            if step.min_quality_db + self.up_margin_db <= quality_db
            or i == 0
        )
        if target <= state.index:
            state.pending_target = -1
            state.streak = 0
            return self.ladder[state.index].config
        if target == state.pending_target:
            state.streak += 1
        else:
            state.pending_target = target
            state.streak = 1
        if state.streak >= self.dwell:
            self._switch(state, target)
            state.pending_target = -1
            state.streak = 0
        return self.ladder[state.index].config

    def _switch(self, state: _TagState, target: int) -> None:
        state.index = target
        state.switches += 1
        state.history.append(
            (state.observations, self.ladder[target].config.label)
        )

    # -- queries -----------------------------------------------------------

    def config_for(self, tag: str) -> LinkConfig:
        """Current config for ``tag`` (initial rung if never observed)."""
        state = self._tags.get(tag)
        index = self._initial_index if state is None else state.index
        return self.ladder[index].config

    def plan(self) -> Dict[str, LinkConfig]:
        """Current config per observed tag, sorted by tag name."""
        return {
            tag: self.ladder[state.index].config
            for tag, state in sorted(self._tags.items())
        }

    def switch_count(self, tag: str) -> int:
        state = self._tags.get(tag)
        return 0 if state is None else state.switches

    def history(self, tag: str) -> List[Tuple[int, str]]:
        """(observation count, config label) at init and each switch."""
        state = self._tags.get(tag)
        return [] if state is None else list(state.history)

    # -- telemetry consumption ---------------------------------------------

    def update_from_snapshot(
        self, snapshot, metric: str = QUALITY_METRIC
    ) -> Dict[str, LinkConfig]:
        """Feed one windowed mean per tag from a telemetry snapshot.

        Reads the ``metric`` histogram family, takes each labelset's
        running mean (``sum / count``), and observes it for the
        labelset's ``tag``.  Labelsets are visited in sorted key order,
        so the outcome is independent of collection order.
        """
        from repro.telemetry.instruments import parse_labelset_key

        decisions: Dict[str, LinkConfig] = {}
        series: Mapping[str, Mapping[str, float]] = snapshot.series(metric)
        for key in sorted(series):
            entry = series[key]
            count = entry.get("count", 0)
            if not count:
                continue
            tag = dict(parse_labelset_key(key)).get("tag")
            if tag is None:
                continue
            decisions[tag] = self.observe(tag, entry["sum"] / count)
        return decisions


__all__ = [
    "QUALITY_METRIC",
    "QUALITY_HISTOGRAM_BOUNDS_DB",
    "DEFAULT_LADDER",
    "RateStep",
    "RateController",
]
