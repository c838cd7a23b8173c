"""Fault controller: drives a schedule through bound injectors.

The controller is the single object the network layers talk to.  At the
top of every slot it clears events whose window just ended and applies
events whose window just began (delegating to the owning injector's
``apply``/``clear``), records both transitions into a
:class:`~repro.sim.trace.TraceRecorder`, and then answers the network's
per-slot queries (is this tag dark? is this beacon lost? what SNR
penalty applies?) from the aggregate :class:`FaultState`.

Determinism: the controller draws only from its own named RNG stream
(``"faults"``, derived from the network's master seed), never from the
slot stream — so attaching a controller with an *empty* schedule leaves
the simulation byte-identical to running without one, and the same
(seed, schedule) pair replays to an identical trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.channel.medium import SlotObservation
from repro.faults.injectors import FaultInjector, default_injectors
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.phy.packets import DownlinkBeacon
from repro.sim.trace import TraceRecorder


class FaultState:
    """Aggregate view of the currently active faults.

    Refcounted dicts (not sets) so overlapping events of the same kind
    on the same target compose, and so iteration order is insertion
    order — stable under any ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        #: tag (or "*") -> active forced-beacon-loss event count.
        self.forced_beacon_loss: Dict[str, int] = {}
        #: tag (or "*") -> active ACK-inversion event count.
        self.ack_flip: Dict[str, int] = {}
        #: tag (or "*") -> active brownout event count (tag is dark).
        self.offline: Dict[str, int] = {}
        #: tag (or "*") -> active harvester-collapse count (no TX).
        self.tx_blocked: Dict[str, int] = {}
        #: tag (or "*") -> active frame-corruption count (CRC fails).
        self.corrupt_uplink: Dict[str, int] = {}
        #: tag (or "*") -> data bits to flip per frame (waveform tier).
        self.bit_flip_counts: Dict[str, int] = {}
        #: tag (or "*") -> multiplier on beacon-loss probability.
        self.beacon_loss_scale: Dict[str, float] = {}
        #: tag (or "*") -> SNR penalty (dB) on that tag's uplink.
        self.snr_penalty_db: Dict[str, float] = {}
        #: Global SNR penalty (dB) from noise bursts.
        self.noise_penalty_db: float = 0.0
        #: Active relay-table-stale event count (routes frozen).
        self.relay_frozen: int = 0

    @staticmethod
    def bump(table: Dict[str, int], key: str, delta: int) -> None:
        """Refcount helper: increment/decrement, dropping zeros."""
        count = table.get(key, 0) + delta
        if count < 0:
            raise RuntimeError(f"fault refcount for {key!r} went negative")
        if count == 0:
            table.pop(key, None)
        else:
            table[key] = count

    @staticmethod
    def is_flagged(table: Mapping[str, int], name: str) -> bool:
        return name in table or ALL_TAGS in table

    def tag_faults_active(self) -> bool:
        """True while a fault that the controller's four per-tag hooks
        act on is active: brownout, harvester collapse, forced or scaled
        beacon loss, or ACK flip.  Otherwise ``tag_offline``,
        ``beacon_lost``, ``beacon_for`` and ``transmit_allowed`` hand
        back their inputs unchanged and draw nothing."""
        return bool(
            self.offline
            or self.tx_blocked
            or self.forced_beacon_loss
            or self.beacon_loss_scale
            or self.ack_flip
        )

    def any_active(self) -> bool:
        return bool(
            self.forced_beacon_loss
            or self.ack_flip
            or self.offline
            or self.tx_blocked
            or self.corrupt_uplink
            or self.bit_flip_counts
            or self.beacon_loss_scale
            or self.snr_penalty_db
            or self.noise_penalty_db
            or self.relay_frozen
        )


class FaultController:
    """Binds a :class:`FaultSchedule` to one network instance."""

    def __init__(
        self,
        schedule: FaultSchedule,
        network,
        rng: np.random.Generator,
        injectors: Optional[Iterable[FaultInjector]] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.schedule = schedule
        self.network = network
        self.rng = rng
        self.trace = recorder if recorder is not None else TraceRecorder()
        self.state = FaultState()

        self._injectors = list(injectors) if injectors is not None else default_injectors()
        self._by_kind: Dict[str, FaultInjector] = {}
        for injector in self._injectors:
            injector.bind(self)
            for kind in injector.kinds:
                if kind in self._by_kind:
                    raise ValueError(f"fault kind {kind!r} claimed by two injectors")
                self._by_kind[kind] = injector
        for event in schedule:
            if event.kind not in self._by_kind:
                raise ValueError(f"no injector handles fault kind {event.kind!r}")

        self._starts: Dict[int, List[FaultEvent]] = {}
        self._ends: Dict[int, List[FaultEvent]] = {}
        for event in schedule:
            self._starts.setdefault(event.slot, []).append(event)
            self._ends.setdefault(event.clear_slot, []).append(event)
        self._active: Dict[int, FaultEvent] = {}

    # -- schedule execution ------------------------------------------------

    def active_events(self) -> List[FaultEvent]:
        """Active events in apply order (stable across hash seeds)."""
        return list(self._active.values())

    def tags_matching(self, target: str) -> List[str]:
        """Tag names a target pattern covers, in the network's order."""
        if target == ALL_TAGS:
            return list(self.network.tags)
        if target in self.network.tags:
            return [target]
        return []

    @property
    def last_clear_slot(self) -> int:
        return self.schedule.last_clear_slot

    def on_slot_start(self, slot: int) -> None:
        """Clear ending events, then apply starting ones, with traces."""
        tel = telemetry.active()
        for event in self._ends.get(slot, ()):
            if event.fault_id not in self._active:
                continue  # never applied (network started past its window)
            del self._active[event.fault_id]
            self._by_kind[event.kind].clear(event, self.rng)
            self._emit(slot, "fault.clear", event)
            if tel is not None:
                tel.inc("faults.cleared", kind=event.kind)
        for event in self._starts.get(slot, ()):
            self._active[event.fault_id] = event
            self._by_kind[event.kind].apply(event, self.rng)
            self._emit(slot, "fault.apply", event)
            if tel is not None:
                tel.inc("faults.applied", kind=event.kind)

    def on_slot_end(self, slot: int, record) -> None:
        """Record the slot outcome (for golden traces and post-hoc
        recovery analysis)."""
        self.trace.emit(
            float(slot),
            "slot",
            "reader",
            decoded=record.decoded,
            n_transmitters=record.n_transmitters,
            collision=record.collision_detected,
            acked=record.acked,
            empty_flag=record.empty_flag,
            faults_active=len(self._active),
        )

    def _emit(self, slot: int, kind: str, event: FaultEvent) -> None:
        self.trace.emit(
            float(slot),
            kind,
            self._by_kind[event.kind].name,
            fault_id=event.fault_id,
            fault_kind=event.kind,
            target=event.target,
            magnitude=event.magnitude,
            duration=event.duration,
        )

    # -- per-slot queries (the network hot path) ---------------------------

    def tag_offline(self, name: str) -> bool:
        """Brownout: the tag's MCU is dark — no RX, no watchdog."""
        return self.state.is_flagged(self.state.offline, name)

    def transmit_allowed(self, name: str) -> bool:
        """Harvester collapse: the tag cannot afford its TX burst."""
        return not self.state.is_flagged(self.state.tx_blocked, name)

    def relay_table_frozen(self) -> bool:
        """Stale relay table: routes cannot be recomputed right now."""
        return self.state.relay_frozen > 0

    def beacon_lost(self, name: str, lost: bool) -> bool:
        """Overlay forced losses and envelope drift on the channel draw.

        The drift's extra probability mass is drawn from the controller's
        own stream so the shared slot stream advances exactly as in the
        fault-free run.
        """
        if self.state.is_flagged(self.state.forced_beacon_loss, name):
            return True
        if lost or not self.state.beacon_loss_scale:
            return lost
        scale = self.state.beacon_loss_scale.get(
            name, self.state.beacon_loss_scale.get(ALL_TAGS, 1.0)
        )
        if scale <= 1.0:
            return lost
        base = self.network.beacon_loss_probability_for(name)
        extra = min(1.0, base * (scale - 1.0))
        if extra > 0.0 and self.rng.random() < extra:
            return True
        return lost

    def beacon_for(self, name: str, beacon: DownlinkBeacon) -> DownlinkBeacon:
        """ACK corruption: the target decodes an inverted ACK bit."""
        if self.state.is_flagged(self.state.ack_flip, name):
            return DownlinkBeacon(
                ack=not beacon.ack,
                empty=beacon.empty,
                reset=beacon.reset,
                reserved=beacon.reserved,
            )
        return beacon

    def uplink_bit_flips(self, name: str, n_bits: int) -> Tuple[int, ...]:
        """Positions to flip in the target's frame this slot (waveform
        tier), drawn from the controller stream."""
        count = self.state.bit_flip_counts.get(name, 0) + self.state.bit_flip_counts.get(
            ALL_TAGS, 0
        )
        if count <= 0 or n_bits <= 0:
            return ()
        positions = self.rng.integers(0, n_bits, size=min(count, n_bits))
        return tuple(sorted({int(p) for p in positions}))

    def snr_penalty_for(self, name: str) -> float:
        """Total SNR penalty (dB) on one tag's uplink."""
        return (
            self.state.noise_penalty_db
            + self.state.snr_penalty_db.get(name, 0.0)
            + self.state.snr_penalty_db.get(ALL_TAGS, 0.0)
        )

    def penalties_for(
        self, transmitters: Iterable[str]
    ) -> Optional[Dict[str, float]]:
        """Per-tag SNR penalties for a slot, or None when all zero."""
        if not self.state.noise_penalty_db and not self.state.snr_penalty_db:
            return None
        return {t: self.snr_penalty_for(t) for t in transmitters}

    def transform_observation(self, observation: SlotObservation) -> SlotObservation:
        """Suppress decodes whose frames are corrupted (CRC never
        passes), leaving collision detection untouched."""
        decoded = observation.decoded_tag
        if decoded is not None and self.state.is_flagged(
            self.state.corrupt_uplink, decoded
        ):
            return SlotObservation(
                observation.transmitters, None, observation.collision_detected
            )
        return observation
