"""Event-driven (real-time) network execution.

:class:`SlottedNetwork` abstracts each slot into one synchronous
exchange.  This module runs the *same* MAC objects (``TagMac``,
``ReaderMac``) on the discrete-event engine with physical timing
instead: beacon airtime at 250 bps, per-tag acoustic propagation and
envelope-detector delays, the tag's polite 20 ms turnaround, the 171 ms
UL frame airtime, and genuine watchdog timers that fire only when an
expected beacon fails to arrive (Sec. 5.4).

Its purpose is validation: the slot-level simulator's results are
trustworthy because this higher-fidelity execution reproduces them (see
``tests/core/test_realtime.py``), and it doubles as a reference for how
the protocol maps onto firmware timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.channel.medium import AcousticMedium, SlotObservation
from repro.core.network import (
    NetworkConfig,
    derive_beacon_loss,
    ideal_observation,
    slot_count,
)
from repro.core.reader_protocol import ReaderMac, SlotRecord
from repro.core.tag_protocol import TagMac
from repro.phy.envelope import EnvelopeDetector
from repro.phy.fm0 import fm0_frame_duration_s
from repro.phy.packets import UL_FRAME_BITS, DownlinkBeacon
from repro.phy.pie import pie_duration_s
from repro.sim.engine import EventHandle, Simulator
from repro.sim.random import BufferedPicker, RandomStreams
from repro.sim.trace import TraceRecorder

#: Tag turnaround between beacon end and UL start (Fig. 14a).
TAG_TURNAROUND_S = 0.020

#: Watchdog margin beyond the expected beacon arrival before a tag
#: declares the beacon lost.
WATCHDOG_MARGIN_S = 0.050


@dataclass
class _TagRuntime:
    """Per-tag event-driven state."""

    mac: TagMac
    rx_delay_s: float  # propagation + envelope-crossing delay
    beacon_loss_p: float
    watchdog: Optional[EventHandle] = None
    transmitting_until: float = -1.0


class RealtimeNetwork:
    """The protocol on physical time."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        medium: Optional[AcousticMedium] = None,
        config: Optional[NetworkConfig] = None,
        activation_time_s: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not tag_periods:
            raise ValueError("need at least one tag")
        self.config = config if config is not None else NetworkConfig()
        self.medium = medium if medium is not None else AcousticMedium()
        self.sim = Simulator()
        self.trace = TraceRecorder(kinds=["beacon", "ul", "slot"])
        self._streams = RandomStreams(self.config.seed)
        self._rng = self._streams.stream("realtime")
        self.activation_time_s = dict(activation_time_s or {})

        self.reader = ReaderMac(
            tag_periods,
            nack_threshold=self.config.nack_threshold,
            enable_empty_flag=self.config.enable_empty_flag,
            enable_future_avoidance=self.config.enable_future_avoidance,
        )
        detector = EnvelopeDetector()
        self.tags: Dict[str, _TagRuntime] = {}
        for tid, (name, period) in enumerate(sorted(tag_periods.items())):
            if name not in self.medium.biw.mounts:
                raise KeyError(f"tag {name!r} is not mounted on the BiW")
            mac = TagMac(
                tag_name=name,
                tid=tid,
                period=period,
                offset_picker=BufferedPicker(
                    self._streams.fork(name).stream("offset"), period
                ),
                nack_threshold=self.config.nack_threshold,
                respect_empty_flag=self.config.enable_empty_flag,
                late_arrival=self.activation_time_s.get(name, 0.0) > 0.0,
            )
            amplitude = self.medium.carrier_amplitude_v(name)
            rx_delay = self.medium.propagation_delay_s(name)
            crossing = detector.threshold_crossing_delay_s(amplitude)
            if crossing != float("inf"):
                rx_delay += crossing
            self.tags[name] = _TagRuntime(
                mac, rx_delay, derive_beacon_loss(self.config, self.medium, name)
            )

        self.slot_duration_s = self.config.slot_duration_s
        self.ul_airtime_s = fm0_frame_duration_s(
            UL_FRAME_BITS, self.config.ul_raw_rate_bps
        )
        self.records: List[SlotRecord] = []
        self._transmitters_this_slot: List[str] = []
        self._next_beacon: Optional[EventHandle] = None
        self._schedule_beacon(0.0)

    # -- reader side -----------------------------------------------------------

    def _schedule_beacon(self, at: float) -> None:
        self._next_beacon = self.sim.schedule_at(at, self._emit_beacon)

    def _emit_beacon(self) -> None:
        """The reader opens a slot: broadcast the beacon."""
        beacon = self.reader.make_beacon()
        airtime = pie_duration_s(beacon.to_bits(), self.config.dl_raw_rate_bps)
        now = self.sim.now
        self.trace.emit(now, "beacon", "reader", slot=self.reader.slot_index)
        self._transmitters_this_slot = []
        for name, rt in self.tags.items():
            if now < self.activation_time_s.get(name, 0.0):
                continue  # still charging
            lost = self._rng.random() < rt.beacon_loss_p
            if lost:
                continue  # the watchdog will notice
            arrival = now + airtime + rt.rx_delay_s
            self.sim.schedule_at(
                arrival, lambda n=name, b=beacon: self._deliver_beacon(n, b)
            )
        # Slot bookkeeping at the end of the slot.
        self.sim.schedule_at(
            now + self.slot_duration_s - 1e-9, self._close_slot
        )
        self._schedule_beacon(now + self.slot_duration_s)

    def _close_slot(self) -> None:
        """End of slot: arbitrate the channel and log the record."""
        observation = self._observe(self._transmitters_this_slot)
        record = self.reader.on_slot_observation(observation)
        self.records.append(record)
        self.trace.emit(
            self.sim.now,
            "slot",
            "reader",
            slot=record.slot,
            decoded=record.decoded,
            collided=record.collision_detected,
        )

    def _observe(self, transmitters: List[str]) -> SlotObservation:
        if self.config.ideal_channel:
            return ideal_observation(transmitters)
        return self.medium.observe_slot(
            transmitters, self._rng, bit_rate_bps=self.config.ul_raw_rate_bps
        )

    # -- tag side ----------------------------------------------------------------

    def _deliver_beacon(self, name: str, beacon: DownlinkBeacon) -> None:
        rt = self.tags[name]
        self._rearm_watchdog(rt)
        if rt.mac.on_beacon(beacon):
            start = self.sim.now + TAG_TURNAROUND_S
            rt.transmitting_until = start + self.ul_airtime_s
            self._transmitters_this_slot.append(name)
            self.trace.emit(start, "ul", name, offset=rt.mac.offset)

    def _rearm_watchdog(self, rt: _TagRuntime) -> None:
        if rt.watchdog is not None:
            rt.watchdog.cancel()
        deadline = self.sim.now + self.slot_duration_s + WATCHDOG_MARGIN_S
        rt.watchdog = self.sim.schedule_at(
            deadline, lambda r=rt: self._watchdog_fired(r)
        )

    def _watchdog_fired(self, rt: _TagRuntime) -> None:
        """No beacon arrived inside the expected window (Sec. 5.4)."""
        rt.mac.on_beacon_loss()
        self._rearm_watchdog(rt)  # keep listening for the next one

    # -- execution -----------------------------------------------------------------

    def run(self, n_slots: int) -> List[SlotRecord]:
        """Advance physical time by ``n_slots`` slot durations."""
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        start = len(self.records)
        target = self.sim.now + n_slots * self.slot_duration_s
        self.sim.run(until=target)
        return self.records[start:]

    def run_until_converged(
        self, streak: int = 32, max_slots: int = 100_000
    ) -> Optional[int]:
        """Physical-time analogue of the Fig. 15 measurement."""
        streak = slot_count(streak, "streak")
        max_slots = slot_count(max_slots, "max_slots")
        clean = 0
        done = 0
        while done < max_slots:
            before = len(self.records)
            self.run(1)
            for record in self.records[before:]:
                done += 1
                clean = 0 if record.collision_detected else clean + 1
                if clean >= streak:
                    return done
        return None

    def stop(self) -> None:
        """Cancel all pending activity (watchdogs, beacons)."""
        if self._next_beacon is not None:
            self._next_beacon.cancel()
        for rt in self.tags.values():
            if rt.watchdog is not None:
                rt.watchdog.cancel()
