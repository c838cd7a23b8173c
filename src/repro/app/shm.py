"""Structural-health-monitoring application layer.

The paper's system exists to answer questions like "is the battery-pack
structure deforming?" and "is this weld aging?" (Secs. 1, 2.1, 6.5).
This module is the reader-side application that turns the MAC's decoded
packets into those answers:

* :class:`StrainField` — a synthetic ground truth: per-location strain
  evolving over time (baseline drift for aging, step events for impact
  damage), which tags sample through their ADC chains.
* :func:`collect_reports` — pairs the network's slot records with the
  tags' sensor chains to produce the report stream the reader sees.
* :class:`ShmMonitor` — per-tag report history, staleness detection
  (a settled tag that stops reporting is itself an alarm: it browned
  out, fell off, or its mount failed), threshold alarms, and trend
  (aging-rate) estimation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.reader_protocol import SlotRecord
from repro.hardware.strain import StrainSensorModule


class AlarmKind(enum.Enum):
    THRESHOLD = "threshold"  # instantaneous strain beyond the limit
    TREND = "trend"  # aging rate beyond the limit
    STALE = "stale"  # expected reports stopped arriving


@dataclass(frozen=True)
class Alarm:
    """One raised alarm."""

    kind: AlarmKind
    tag: str
    slot: int
    value: float
    limit: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[slot {self.slot}] {self.kind.value} alarm on {self.tag}: "
            f"{self.value:.4g} (limit {self.limit:.4g})"
        )


@dataclass(frozen=True)
class Report:
    """One delivered sensor reading."""

    slot: int
    tag: str
    code: int  # raw ADC payload
    voltage_v: float  # reconstructed bridge voltage


class StrainField:
    """Synthetic structural ground truth.

    Per-tag strain (dimensionless) as a function of the slot index:
    a static baseline, a linear aging drift, and optional step events
    (impact damage) injected with :meth:`inject_event`.
    """

    def __init__(
        self,
        baseline: Optional[Mapping[str, float]] = None,
        drift_per_slot: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._baseline: Dict[str, float] = dict(baseline or {})
        self._drift: Dict[str, float] = dict(drift_per_slot or {})
        self._events: List = []  # (slot, tag, delta)

    def inject_event(self, slot: int, tag: str, delta_strain: float) -> None:
        """A step change at ``slot`` (e.g. impact damage near ``tag``)."""
        self._events.append((slot, tag, delta_strain))

    def strain_at(self, tag: str, slot: int) -> float:
        value = self._baseline.get(tag, 0.0)
        value += self._drift.get(tag, 0.0) * slot
        for ev_slot, ev_tag, delta in self._events:
            if ev_tag == tag and slot >= ev_slot:
                value += delta
        return value


def collect_reports(
    records: Sequence[SlotRecord],
    field: StrainField,
    sensors: Mapping[str, StrainSensorModule],
) -> List[Report]:
    """Turn decoded slots into sensor reports.

    For every slot whose packet decoded, the transmitting tag sampled
    its bridge at that instant; the reader reconstructs the voltage
    from the 12-bit payload exactly as Sec. 6.5 does.
    """
    reports: List[Report] = []
    for record in records:
        tag = record.decoded
        if tag is None or tag not in sensors:
            continue
        sensor = sensors[tag]
        strain = field.strain_at(tag, record.slot)
        # The tag's chain: bridge -> amplifier -> ADC code.
        diff = sensor.bridge.differential_voltage_v(strain)
        code = sensor.adc.sample(sensor.amplifier.output_v(diff))
        reports.append(
            Report(
                slot=record.slot,
                tag=tag,
                code=code,
                voltage_v=sensor.reconstruct_voltage_v(code),
            )
        )
    return reports


class ShmMonitor:
    """Reader-side monitoring logic over the report stream."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        sensors: Mapping[str, StrainSensorModule],
        voltage_limit_v: float = 1.35,
        trend_limit_v_per_slot: float = 5.0e-4,
        staleness_periods: float = 3.0,
        trend_window: int = 16,
    ) -> None:
        if voltage_limit_v <= 0:
            raise ValueError("voltage limit must be positive")
        if staleness_periods <= 1:
            raise ValueError("staleness threshold must exceed one period")
        self.tag_periods = dict(tag_periods)
        self.sensors = dict(sensors)
        self.voltage_limit_v = voltage_limit_v
        self.trend_limit = trend_limit_v_per_slot
        self.staleness_periods = staleness_periods
        self.trend_window = trend_window
        self.history: Dict[str, List[Report]] = {t: [] for t in tag_periods}
        self.alarms: List[Alarm] = []
        self._alarmed_stale: Dict[str, bool] = {t: False for t in tag_periods}

    # -- ingestion -----------------------------------------------------------

    def ingest(self, report: Report) -> List[Alarm]:
        """Process one report; returns any alarms it raised."""
        if report.tag not in self.history:
            return []
        self.history[report.tag].append(report)
        self._alarmed_stale[report.tag] = False
        raised: List[Alarm] = []
        mid_rail = self.sensors[report.tag].amplifier.offset_v
        deviation = abs(report.voltage_v - mid_rail)
        if report.voltage_v >= self.voltage_limit_v or deviation >= (
            self.voltage_limit_v - mid_rail
        ):
            raised.append(
                Alarm(
                    AlarmKind.THRESHOLD,
                    report.tag,
                    report.slot,
                    report.voltage_v,
                    self.voltage_limit_v,
                )
            )
        trend = self.trend_v_per_slot(report.tag)
        if trend is not None and abs(trend) >= self.trend_limit:
            raised.append(
                Alarm(
                    AlarmKind.TREND,
                    report.tag,
                    report.slot,
                    trend,
                    self.trend_limit,
                )
            )
        self.alarms.extend(raised)
        return raised

    def check_staleness(self, current_slot: int) -> List[Alarm]:
        """Flag tags whose reports stopped arriving.

        A tag is stale when more than ``staleness_periods`` of its
        reporting periods have elapsed since its last report (and it
        has reported at least once).  Raised once per dark stretch.
        """
        raised: List[Alarm] = []
        for tag, period in self.tag_periods.items():
            reports = self.history[tag]
            if not reports or self._alarmed_stale[tag]:
                continue
            silence = current_slot - reports[-1].slot
            limit = self.staleness_periods * period
            if silence > limit:
                alarm = Alarm(
                    AlarmKind.STALE, tag, current_slot, float(silence), limit
                )
                raised.append(alarm)
                self.alarms.append(alarm)
                self._alarmed_stale[tag] = True
        return raised

    # -- analytics ----------------------------------------------------------------

    def trend_v_per_slot(self, tag: str) -> Optional[float]:
        """Least-squares slope of the recent voltage history (the aging
        rate), or None with fewer than four points."""
        reports = self.history.get(tag, [])[-self.trend_window :]
        if len(reports) < 4:
            return None
        slots = np.array([r.slot for r in reports], dtype=float)
        volts = np.array([r.voltage_v for r in reports])
        slope = np.polyfit(slots, volts, 1)[0]
        return float(slope)

    def latest(self, tag: str) -> Optional[Report]:
        reports = self.history.get(tag, [])
        return reports[-1] if reports else None

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tag dashboard: report count, last voltage, trend."""
        out: Dict[str, Dict[str, float]] = {}
        for tag, reports in self.history.items():
            trend = self.trend_v_per_slot(tag)
            out[tag] = {
                "reports": float(len(reports)),
                "last_voltage_v": reports[-1].voltage_v if reports else float("nan"),
                "trend_v_per_slot": trend if trend is not None else float("nan"),
            }
        return out

