"""Complete tag firmware: the Sec. 4.3 architecture as one object.

Binds the three interrupt-driven tasks the paper enumerates into the
pipeline a real tag runs:

1. **DL demodulation** — comparator edges drive
   :class:`~repro.hardware.firmware.PieEdgeDemodulator`;
2. **network operation** — a decoded beacon raises the software
   interrupt that steps the :class:`~repro.core.tag_protocol.TagMac`
   state machine;
3. **UL modulation** — a transmit decision schedules the
   :class:`~repro.hardware.firmware.Fm0ModulatorIsr` GPIO timeline
   after the 20 ms turnaround.

A single :class:`InterruptEnergyMeter` accounts every ISR, so a
firmware run yields both the protocol behaviour *and* the energy bill,
tying Sec. 4.3 to Table 2 in one execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.tag_protocol import TagMac
from repro.hardware.firmware import (
    Fm0ModulatorIsr,
    GpioEvent,
    InterruptEnergyMeter,
    PieEdgeDemodulator,
)
from repro.hardware.mcu import McuClock
from repro.phy.packets import DownlinkBeacon, UplinkPacket

#: Turnaround between beacon end and UL start (Fig. 14a).
TURNAROUND_S = 0.020


@dataclass(frozen=True)
class ScheduledTransmission:
    """One UL frame the firmware has queued on its GPIO."""

    packet: UplinkPacket
    gpio_events: Tuple[GpioEvent, ...]

    @property
    def start_s(self) -> float:
        return self.gpio_events[0].time_s if self.gpio_events else 0.0


class TagFirmware:
    """The tag's MCU program, end to end."""

    def __init__(
        self,
        mac: TagMac,
        dl_raw_rate_bps: float = 250.0,
        ul_raw_rate_bps: float = 375.0,
        payload_source: Optional[Callable[[], int]] = None,
        clock: Optional[McuClock] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.mac = mac
        self.meter = InterruptEnergyMeter()
        self.demodulator = PieEdgeDemodulator(
            raw_rate_bps=dl_raw_rate_bps,
            clock=clock,
            on_beacon=self._on_beacon,
            meter=self.meter,
            rng=rng,
        )
        self.modulator = Fm0ModulatorIsr(ul_raw_rate_bps, meter=self.meter)
        self._payload = payload_source if payload_source is not None else lambda: 0
        self._beacon_end_s = 0.0
        self.transmissions: List[ScheduledTransmission] = []
        #: The MAC's transmit verdict for every beacon and watchdog
        #: expiry, in order.
        self.decisions: List[bool] = []

    # -- interrupt entry points ------------------------------------------------

    def on_comparator_edge(self, time_s: float, level: int) -> None:
        """Pin-change interrupt from the DL front end (Fig. 6a)."""
        self._beacon_end_s = time_s
        self.demodulator.on_edge(time_s, level)

    def on_watchdog(self) -> None:
        """The beacon-loss timer expired (Sec. 5.4 refinement)."""
        self.decisions.append(self.mac.on_beacon_loss())

    # -- internal ----------------------------------------------------------------

    def _on_beacon(self, beacon: DownlinkBeacon) -> None:
        """The software interrupt: run the network state machine."""
        transmit = self.mac.on_beacon(beacon)
        self.decisions.append(transmit)
        if transmit:
            packet = UplinkPacket(tid=self.mac.tid, payload=self._payload() & 0xFFF)
            events = self.modulator.transmit(
                packet.to_bits(), start_s=self._beacon_end_s + TURNAROUND_S
            )
            self.transmissions.append(
                ScheduledTransmission(packet, tuple(events))
            )

    # -- reporting ----------------------------------------------------------------

    def average_current_a(self, elapsed_s: float) -> float:
        """Total MCU current over a run (the Table 2 cross-check)."""
        return self.meter.average_current_a(elapsed_s)

    @property
    def beacons_decoded(self) -> int:
        return len(self.demodulator.beacons)
