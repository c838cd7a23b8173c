"""Simultaneous multi-reader operation over one BiW.

:class:`MultiReaderNetwork` composes one real
:class:`~repro.core.network.SlottedNetwork` *cell* per reader, stepped
in lockstep over the same wall-clock slots — frequency division, not
the time interleave of
:meth:`~repro.multireader.deployment.MultiReaderDeployment.build_networks`.
Every reader emits continuously on its planned carrier; each cell's
medium carries the other readers' carriers as
:class:`~repro.channel.medium.ForeignCarrier` interference terms, so a
bad plan (or the shared-carrier baseline) degrades decodes through the
ordinary SINR path rather than through any bolted-on penalty.

Tags are *homed* on one reader.  Overlap-zone tags (second-best
carrier within the deployment margin) are provisioned on every
covering reader but parked everywhere except home; when the home
cell's :class:`~repro.resilience.health.LinkHealthMonitor` sees the
tag miss ``handoff_miss_threshold`` consecutive expected slots, the
tag is re-homed to the strongest alternative — the old reader releases
its assignment (the PR 3 slot-lease seam) and the tag cold-boots into
the new cell as a late arrival.

Zero-cost-off contract: a single-reader deployment builds exactly one
cell with no foreign carriers, no monitors and no parked tags, and its
slot log is byte-identical to a plain ``SlottedNetwork`` run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.channel.medium import ForeignCarrier
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.reader_protocol import SlotRecord
from repro.multireader.deployment import (
    OVERLAP_MARGIN_DB,
    MultiReaderDeployment,
)
from repro.multireader.planner import CarrierPlan, plan_carriers

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule
    from repro.multireader.faults import MultiReaderFaultSchedule
    from repro.resilience.health import LinkHealthMonitor

#: Consecutive missed expected slots on the home reader before an
#: overlap tag is re-homed (the LinkHealthMonitor demotion signal).
HANDOFF_MISS_THRESHOLD = 8

#: Minimum slots between successive handoffs of the same tag, so a
#: marginal tag cannot ping-pong every window.
HANDOFF_COOLDOWN_SLOTS = 32

#: Clamp for SIR histogram samples (dB): keeps the clean-channel inf
#: sentinel out of the telemetry export.
_SIR_CLAMP_DB = (-40.0, 80.0)


class MultiReaderNetwork:
    """Lockstep frequency-division cells with overlap-zone handoff."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        deployment: Optional[MultiReaderDeployment] = None,
        config: Optional[NetworkConfig] = None,
        plan: Optional[CarrierPlan] = None,
        faults: "Optional[FaultSchedule]" = None,
        reader_faults: "Optional[MultiReaderFaultSchedule]" = None,
        overlap_margin_db: float = OVERLAP_MARGIN_DB,
        handoff_miss_threshold: int = HANDOFF_MISS_THRESHOLD,
        handoff_cooldown_slots: int = HANDOFF_COOLDOWN_SLOTS,
        home_override: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not tag_periods:
            raise ValueError("need at least one tag")
        if handoff_miss_threshold < 1:
            raise ValueError("handoff threshold must be >= 1 slot")
        if handoff_cooldown_slots < 0:
            raise ValueError("handoff cooldown must be non-negative")
        self.deployment = (
            deployment if deployment is not None else MultiReaderDeployment()
        )
        self.config = config if config is not None else NetworkConfig()
        self.plan = (
            plan if plan is not None else plan_carriers(self.deployment)
        )
        for reader in self.deployment.readers:
            if reader not in self.plan.assignment:
                raise KeyError(f"plan misses reader {reader!r}")
        mounted = self.deployment.biw.mounts
        for tag in tag_periods:
            if tag not in mounted:
                raise KeyError(f"tag {tag!r} is not mounted on the BiW")

        #: tag -> covering readers (strongest first); length > 1 marks
        #: an overlap-zone tag.
        self.coverage: Dict[str, List[str]] = {
            t: self.deployment.covering_readers(t, overlap_margin_db)
            for t in sorted(tag_periods)
        }
        self.home: Dict[str, str] = {}
        override = dict(home_override or {})
        for tag in self.coverage:
            home = override.pop(tag, None)
            if home is None:
                home = self.coverage[tag][0]
            elif home not in self.deployment.readers:
                raise KeyError(f"home override names unknown reader {home!r}")
            self.home[tag] = home
        if override:
            raise KeyError(f"home override names unknown tags {sorted(override)}")

        self.handoff_miss_threshold = handoff_miss_threshold
        self.handoff_cooldown_slots = handoff_cooldown_slots
        self.handoffs = 0
        #: (slot, tag, from_reader, to_reader) per completed handoff.
        self.handoff_log: List[Tuple[int, str, str, str]] = []
        self._last_handoff: Dict[str, int] = {}
        self._slot = 0

        # -- cells: one real SlottedNetwork per reader with tags --------
        self.cells: Dict[str, SlottedNetwork] = {}
        for idx, reader in enumerate(self.deployment.readers):
            cell_tags = {
                t: p
                for t, p in tag_periods.items()
                if self.home[t] == reader or reader in self.coverage[t]
            }
            if not cell_tags:
                continue
            medium = self.deployment.medium_for(reader)
            cfg = replace(self.config, seed=self.config.seed + 104_729 * idx)
            cell = SlottedNetwork(cell_tags, medium, cfg, faults=faults)
            for tag in cell_tags:
                if self.home[tag] != reader:
                    cell.park_tag(tag)
            self.cells[reader] = cell
        for tag, home in self.home.items():
            if home not in self.cells:
                raise KeyError(
                    f"tag {tag!r} homed on reader {home!r} which has no cell"
                )

        # -- carrier plan -> interference terms --------------------------
        self._freq_overrides: Dict[str, float] = {}
        self.refresh_interference()

        # -- handoff machinery: only for genuine overlap ------------------
        self._overlap = sorted(
            t for t, covering in self.coverage.items() if len(covering) > 1
        )
        self._monitors: Dict[str, "LinkHealthMonitor"] = {}
        if self._overlap and len(self.cells) > 1:
            from repro.resilience.health import LinkHealthMonitor

            self._monitors = {
                reader: LinkHealthMonitor(cell)
                for reader, cell in self.cells.items()
            }

        self._reader_faults = None
        if reader_faults is not None:
            from repro.multireader.faults import MultiReaderFaultController

            self._reader_faults = MultiReaderFaultController(
                reader_faults, self
            )

    # -- carrier bookkeeping -------------------------------------------------

    @property
    def reader_faults(self):
        """The bound reader-fault controller, or None."""
        return self._reader_faults

    @property
    def primary_frequency_hz(self) -> float:
        """The palette's strongest carrier (the stock 90 kHz mode)."""
        return self.plan.carriers[0][0]

    def planned_frequency_hz(self, reader: str) -> float:
        """The carrier the plan assigned to ``reader``."""
        return self.plan.frequency_for(reader)

    def actual_frequency_hz(self, reader: str) -> float:
        """What ``reader`` actually emits: the plan, unless a fault
        override (drift, stale planner) is active."""
        return self._freq_overrides.get(reader, self.plan.frequency_for(reader))

    def set_frequency_overrides(self, overrides: Mapping[str, float]) -> None:
        """Replace the per-reader actual-carrier overrides (fault
        injection) and refresh every cell's interference terms."""
        for reader in overrides:
            if reader not in self.cells:
                raise KeyError(f"override names unknown reader {reader!r}")
        self._freq_overrides = dict(overrides)
        self.refresh_interference()

    def _response_for_frequency(self, reader: str, frequency_hz: float) -> float:
        """Plate-mode response at an actual carrier: an exact palette
        match uses that mode's response; a drifted in-between carrier
        keeps its planned mode's response (drift is small against the
        mode bandwidth)."""
        for freq, response in self.plan.carriers:
            if freq == frequency_hz:
                return response
        return self.plan.response_for(reader)

    def refresh_interference(self) -> None:
        """Recompute every cell's local carrier and foreign-carrier
        terms from the plan plus any fault overrides.  Idempotent: when
        nothing changed, no medium generation bumps, no beacon-loss
        rederivation — the single-reader path stays byte-identical."""
        for reader, cell in self.cells.items():
            local_hz = self.actual_frequency_hz(reader)
            changed = cell.medium.set_carrier(
                local_hz, self._response_for_frequency(reader, local_hz)
            )
            foreign = tuple(
                ForeignCarrier(
                    source=other,
                    frequency_hz=self.actual_frequency_hz(other),
                    response=self._response_for_frequency(
                        other, self.actual_frequency_hz(other)
                    ),
                )
                for other in self.cells
                if other != reader
            )
            changed = cell.medium.set_foreign_carriers(foreign) or changed
            if changed:
                cell.refresh_beacon_loss()
        self._emit_sir_telemetry()

    def _emit_sir_telemetry(self) -> None:
        tel = telemetry.active()
        if tel is None:
            return
        lo, hi = _SIR_CLAMP_DB
        for reader, cell in self.cells.items():
            for tag in cell.tags:
                if tag in cell.parked_tags:
                    continue
                sir = cell.medium.uplink_sir_db(
                    tag, self.config.ul_raw_rate_bps
                )
                tel.observe(
                    "multireader.sir_db",
                    min(max(sir, lo), hi),
                    reader=reader,
                )

    # -- execution -----------------------------------------------------------

    def step(self) -> Dict[str, SlotRecord]:
        """Advance every cell one wall-clock slot; returns this slot's
        record per reader."""
        if self._reader_faults is not None:
            self._reader_faults.on_slot_start(self._slot)
        records: Dict[str, SlotRecord] = {}
        monitors = self._monitors
        for reader, cell in self.cells.items():
            monitor = monitors.get(reader) if monitors else None
            if monitor is not None:
                monitor.snapshot_expectations()
            record = cell.step()
            if monitor is not None:
                monitor.observe(record)
            records[reader] = record
        if monitors:
            self._maybe_handoff()
        self._slot += 1
        return records

    def run(self, n_slots: int) -> None:
        """Run ``n_slots`` wall-clock slots across every cell.

        The single-reader, no-monitor, no-fault case delegates the
        whole loop to the lone cell — the multi-reader wrapper adds
        zero per-slot work on the paper's stock topology.
        """
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        if (
            len(self.cells) == 1
            and not self._monitors
            and self._reader_faults is None
        ):
            next(iter(self.cells.values())).run(n_slots)
            self._slot += n_slots
            return
        for _ in range(n_slots):
            self.step()

    # -- handoff -------------------------------------------------------------

    def _link_strength(self, reader: str, tag: str) -> float:
        return self.deployment.propagation.link(
            reader, tag
        ).amplitude_v * self._response_for_frequency(
            reader, self.actual_frequency_hz(reader)
        )

    def _maybe_handoff(self) -> None:
        for tag in self._overlap:
            home = self.home[tag]
            health = self._monitors[home].tags[tag]
            if health.consecutive_missed < self.handoff_miss_threshold:
                continue
            last = self._last_handoff.get(tag)
            if (
                last is not None
                and self._slot - last < self.handoff_cooldown_slots
            ):
                continue
            candidates = [
                r for r in self.coverage[tag] if r != home and r in self.cells
            ]
            if not candidates:
                continue
            target = max(
                candidates, key=lambda r: (self._link_strength(r, tag), r)
            )
            self._perform_handoff(tag, home, target)

    def force_handoff(self, tag: str, target: str) -> None:
        """Administratively re-home ``tag`` to ``target`` (tests,
        operator override).  The target must hold a cell provisioning
        the tag."""
        if target not in self.cells:
            raise KeyError(f"unknown reader {target!r}")
        if tag not in self.cells[target].tags:
            raise KeyError(f"reader {target!r} does not provision {tag!r}")
        home = self.home[tag]
        if home == target:
            return
        self._perform_handoff(tag, home, target)

    def _perform_handoff(self, tag: str, old: str, new: str) -> None:
        old_cell = self.cells[old]
        new_cell = self.cells[new]
        # Release the stale lease so the old reader's scheduler forgets
        # the tag (the PR 3 SlotLeasePolicy seam), then silence it there.
        old_cell.reader.release_assignment(tag)
        old_cell.park_tag(tag)
        new_cell.unpark_tag(tag)
        # Re-homing is a cold boot into the new cell: all protocol state
        # is gone and the tag re-competes as a late arrival (Sec. 5.5),
        # like a brown-out reboot.
        new_cell.tags[tag].cold_boot()
        for monitor in self._monitors.values():
            if tag in monitor.tags:
                monitor.tags[tag].consecutive_missed = 0
        self.home[tag] = new
        self._last_handoff[tag] = self._slot
        self.handoffs += 1
        self.handoff_log.append((self._slot, tag, old, new))
        tel = telemetry.active()
        if tel is not None:
            tel.inc("multireader.handoffs", tag=tag, src=old, dst=new)

    # -- reporting -----------------------------------------------------------

    @property
    def slots_elapsed(self) -> int:
        return self._slot

    @property
    def overlap_tags(self) -> Tuple[str, ...]:
        """Tags provisioned on more than one reader."""
        return tuple(self._overlap)

    def records_for(self, reader: str) -> List[SlotRecord]:
        """One cell's slot log."""
        return self.cells[reader].records

    def aggregate_goodput(self, last_n_slots: Optional[int] = None) -> float:
        """Decoded packets per wall-clock slot summed over cells — the
        capacity the reader fleet actually delivers.  ``last_n_slots``
        restricts the window (e.g. post-warmup measurement)."""
        total = 0.0
        for cell in self.cells.values():
            records = cell.records
            if last_n_slots is not None:
                records = records[-last_n_slots:]
            if records:
                total += sum(
                    1 for r in records if r.decoded is not None
                ) / len(records)
        return total

    def sir_report(self) -> Dict[str, Dict[str, float]]:
        """reader -> {homed tag -> uplink SIR (dB)} under the current
        carriers; ``inf`` marks a clean (single-reader) channel."""
        out: Dict[str, Dict[str, float]] = {}
        for reader, cell in self.cells.items():
            parked = cell.parked_tags
            out[reader] = {
                tag: cell.medium.uplink_sir_db(tag, self.config.ul_raw_rate_bps)
                for tag in sorted(cell.tags)
                if tag not in parked
            }
        return out

    def worst_sir_db(self) -> float:
        """The weakest homed-tag SIR across all cells."""
        worst = math.inf
        for per_tag in self.sir_report().values():
            for sir in per_tag.values():
                worst = min(worst, sir)
        return worst
