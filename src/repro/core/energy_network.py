"""Energy-coupled network simulation.

:class:`SlottedNetwork` treats tag power as solved (the Sec. 6.2
static argument: duty-cycled consumption < worst-case harvest).  This
module closes the loop dynamically: every tag owns a
:class:`~repro.hardware.tag_device.TagDevice` whose supercapacitor is
charged by its mount's harvest rate and drained by the actual per-slot
activity (beacon RX every slot, TX airtime in its scheduled slots,
optional sensor sampling, IDLE otherwise).

Tags begin unpowered and join as their capacitors reach HTH — the
late-arrival spread of Sec. 5.5 emerges from the physics instead of
being configured.  A tag whose budget is violated (e.g. sampling its
strain ADC every slot) browns out at LTH, goes dark, recharges the
15.2% resume band, and re-joins — the full lifecycle the paper's
hardware design enables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.channel.medium import AcousticMedium, SlotObservation
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.reader_protocol import SlotRecord
from repro.hardware.mcu import McuMode
from repro.hardware.strain import SAMPLING_POWER_W
from repro.hardware.tag_device import TagDevice
from repro.phy.fm0 import fm0_frame_duration_s
from repro.phy.packets import UL_FRAME_BITS

if TYPE_CHECKING:  # avoid importing the fault layer unless it is used
    from repro.faults.schedule import FaultSchedule
    from repro.sim.trace import TraceRecorder

#: Beacon receive window per slot (s): ~26 raw bits at 250 bps.
BEACON_RX_S = 0.104


@dataclass
class TagEnergyLog:
    """Per-tag energy lifecycle statistics."""

    activations: int = 0
    brownouts: int = 0
    slots_dark: int = 0
    slots_lit: int = 0

    @property
    def availability(self) -> float:
        total = self.slots_dark + self.slots_lit
        return self.slots_lit / total if total else 0.0


class EnergyAwareNetwork(SlottedNetwork):
    """Slot allocation with live supercapacitor accounting.

    Runs the base slot loop unchanged: an unpowered tag sits the slot
    out exactly like a parked one (no reception, no RNG draws), and the
    physics settles after the reader's verdict.  An injected brownout
    on a *powered* tag forces the MCU dark for the window
    (harvest-only physics) while the capacitor keeps charging.
    """

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        medium: Optional[AcousticMedium] = None,
        config: Optional[NetworkConfig] = None,
        sensor_samples_per_slot: float = 0.0,
        sensor_sample_duration_s: float = 1.0e-3,
        initial_capacitor_v: float = 0.0,
        faults: "Optional[FaultSchedule]" = None,
        fault_recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        super().__init__(
            tag_periods,
            medium,
            config,
            faults=faults,
            fault_recorder=fault_recorder,
        )
        if sensor_samples_per_slot < 0:
            raise ValueError("sample count must be non-negative")
        self.sensor_samples_per_slot = sensor_samples_per_slot
        self.sensor_sample_duration_s = sensor_sample_duration_s
        self.devices: Dict[str, TagDevice] = {}
        self.energy_log: Dict[str, TagEnergyLog] = {}
        for name in self.tags:
            device = TagDevice(
                self.medium.carrier_amplitude_v(name),
                initial_capacitor_v=initial_capacitor_v,
            )
            self.devices[name] = device
            self.energy_log[name] = TagEnergyLog()
            # All tags start below HTH: everyone is a (physics-driven)
            # late arrival except those pre-charged above threshold.
            self.tags[name].late_arrival = not device.powered
            if not device.powered:
                self._parked.add(name)
        self._ul_airtime_s = fm0_frame_duration_s(
            UL_FRAME_BITS, self.config.ul_raw_rate_bps
        )

    # -- energy accounting -----------------------------------------------------

    def _advance_device(self, name: str, transmitted: bool) -> bool:
        """Advance one tag's device through a slot; returns powered."""
        device = self.devices[name]
        log = self.energy_log[name]
        was_powered = device.powered
        slot = self.config.slot_duration_s
        if not was_powered:
            device.advance(slot)
            log.slots_dark += 1
            if device.powered:
                log.activations += 1
            return device.powered

        # Powered: beacon RX window, optional sensing, TX if scheduled,
        # IDLE for the remainder.
        powered = device.advance(BEACON_RX_S, McuMode.RX)
        remaining = slot - BEACON_RX_S
        if powered and self.sensor_samples_per_slot > 0:
            # The ~1 mW ADC+preamp burst (Sec. 6.5) drawn as a discrete
            # energy withdrawal.
            sense_s = self.sensor_samples_per_slot * self.sensor_sample_duration_s
            powered = device.drain_energy(SAMPLING_POWER_W * sense_s)
        if powered and transmitted:
            powered = device.advance(self._ul_airtime_s, McuMode.TX)
            remaining -= self._ul_airtime_s
        if powered and remaining > 0:
            powered = device.advance(remaining, McuMode.IDLE)
        log.slots_lit += 1
        if was_powered and not powered:
            # A brown-out is a cold boot: the cutoff disconnects the MCU
            # entirely, so the tag returns as a fresh late arrival —
            # EMPTY-gated and re-competing — the Sec. 5.5 lifecycle.
            log.brownouts += 1
            self.tags[name].cold_boot()
        return powered

    # -- slot settlement -------------------------------------------------

    def _close_slot(self, observation: SlotObservation) -> SlotRecord:
        """Log the verdict, then charge/drain every device: TX energy
        for the tags that reached the air, harvest-only for tags an
        injected brownout holds dark, and the powered set of the next
        slot follows the capacitors."""
        record = super()._close_slot(observation)
        transmitted = observation.transmitters
        ctl = self._faults
        parked = self._parked
        for name, device in self.devices.items():
            if ctl is not None and name not in parked and ctl.tag_offline(name):
                # MCU forced off: the harvester still charges the
                # capacitor, but no RX/TX/IDLE consumption happens.
                device.advance(self.config.slot_duration_s)
                self.energy_log[name].slots_dark += 1
            elif self._advance_device(name, name in transmitted):
                parked.discard(name)
            else:
                parked.add(name)
        return record

    # -- reporting -----------------------------------------------------------------

    def availability(self) -> Dict[str, float]:
        """Fraction of slots each tag spent powered."""
        return {n: log.availability for n, log in self.energy_log.items()}

    def total_brownouts(self) -> int:
        return sum(log.brownouts for log in self.energy_log.values())
