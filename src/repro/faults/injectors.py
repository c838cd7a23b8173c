"""Pluggable fault injectors, one per layer.

Each injector owns a disjoint set of fault kinds and exposes the narrow
``apply(event, rng)`` / ``clear(event, rng)`` pair the controller calls
at an event's start and end slots.  Injectors translate events into the
shared :class:`~repro.faults.controller.FaultState` the network's hot
path consults (refcounted sets for on/off faults) or into in-place
mutations of the bound components (the channel injector re-tensions the
BiW joints and invalidates the derived caches).

Derived float quantities (SNR penalties, loss multipliers, the joint
offset) are *recomputed from the active-event set* on every transition
rather than incremented and decremented — overlapping faults then clear
back to exactly zero, with no floating-point residue to perturb the
zero-fault path.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.schedule import (
    ALL_TAGS,
    CHANNEL_KINDS,
    HARDWARE_KINDS,
    MAC_KINDS,
    PHY_KINDS,
    RELAY_KINDS,
    FaultEvent,
)


def flip_bits(bits: Sequence[int], positions: Sequence[int]) -> List[int]:
    """Return ``bits`` with the given positions inverted.

    Out-of-range positions are ignored (a flip scheduled past the end of
    a short frame simply misses), so the same fault event can corrupt
    frames of different lengths deterministically.
    """
    out = list(bits)
    n = len(out)
    for pos in positions:
        if 0 <= pos < n:
            out[pos] ^= 1
    return out


class FaultInjector:
    """Base injector: knows its kinds, binds to a controller."""

    #: Human-readable layer name (used as the trace ``source``).
    name = "base"
    #: Fault kinds this injector owns.
    kinds: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.controller = None

    def bind(self, controller) -> None:
        """Attach to a controller; called once before the first slot.

        The controller owns its injectors, so the injector holds it
        weakly: the pair then forms no reference cycle."""
        self.controller = weakref.proxy(controller)

    # The narrow interface: the controller calls apply() at the event's
    # start slot and clear() at its clear slot, passing the controller's
    # dedicated RNG stream for any stochastic interpretation.

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _active(self, *kinds: str) -> List[FaultEvent]:
        """Currently active events of the given kinds, in apply order."""
        return [e for e in self.controller.active_events() if e.kind in kinds]


class MacFaultInjector(FaultInjector):
    """MAC faults: beacon-loss bursts, ACK corruption, reader restart.

    * ``beacon_loss`` — the target tag(s) miss every beacon while the
      event is active (their Sec. 5.4 watchdog fires each slot).
    * ``ack_corrupt`` — the ACK bit is inverted in the target's decoded
      beacon: clean decodes read as NACKs and vice versa.
    * ``reader_restart`` — the reader reboots at the event's start slot:
      all learned soft state (commitments, eviction ledger, EMPTY
      history) is lost; the beacon cadence survives because it comes
      from the timing generator.
    """

    name = "mac"
    kinds = MAC_KINDS

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "beacon_loss":
            state.bump(state.forced_beacon_loss, event.target, +1)
        elif event.kind == "ack_corrupt":
            state.bump(state.ack_flip, event.target, +1)
        elif event.kind == "reader_restart":
            self.controller.network.reader.restart()

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "beacon_loss":
            state.bump(state.forced_beacon_loss, event.target, -1)
        elif event.kind == "ack_corrupt":
            state.bump(state.ack_flip, event.target, -1)
        # reader_restart is instantaneous; nothing to revert.


class HardwareFaultInjector(FaultInjector):
    """Energy faults: supercap brownout, harvester efficiency collapse.

    * ``brownout`` — the capacitor rail collapses: the tag is dark for
      the window (no beacon reception, no watchdog — the MCU is off).
      When power returns the MCU cold-starts, so the MAC state machine
      is power-cycled and the tag rejoins as a newly arriving tag
      (Sec. 5.5).
    * ``harvester_collapse`` — the harvesting chain degrades below the
      TX budget: the tag still decodes beacons (the envelope detector
      is passive) but its transmissions never happen, which the reader
      necessarily NACKs.  State is kept — the MCU stays up.
    """

    name = "hardware"
    kinds = HARDWARE_KINDS

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "brownout":
            state.bump(state.offline, event.target, +1)
        elif event.kind == "harvester_collapse":
            state.bump(state.tx_blocked, event.target, +1)

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "brownout":
            state.bump(state.offline, event.target, -1)
            for name in self.controller.tags_matching(event.target):
                if not state.is_flagged(state.offline, name):
                    self.controller.network.tags[name].power_cycle()
        elif event.kind == "harvester_collapse":
            state.bump(state.tx_blocked, event.target, -1)


class PhyFaultInjector(FaultInjector):
    """PHY faults: bit flips, CRC corruption, envelope-threshold drift.

    * ``bit_flip`` — ``int(magnitude)`` data bits of every uplink frame
      the target transmits are inverted before line coding.  The CRC-8
      catches the damage, so the reader decodes nothing (the waveform
      network flips real bits in the synthesised frame; the slot-level
      network applies the equivalent decode suppression).
    * ``crc_corrupt`` — the frame's CRC field itself is corrupted: every
      decode of the target fails its integrity check.
    * ``envelope_drift`` — the tag's DL comparator threshold drifts
      (temperature, aging): its beacon-loss probability is multiplied by
      ``magnitude`` while the event is active.
    """

    name = "phy"
    kinds = PHY_KINDS

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        self._refresh()

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        self._refresh()

    def _refresh(self) -> None:
        state = self.controller.state
        corrupt: Dict[str, int] = {}
        flips: Dict[str, int] = {}
        scale: Dict[str, float] = {}
        for e in self._active("bit_flip", "crc_corrupt"):
            corrupt[e.target] = corrupt.get(e.target, 0) + 1
            if e.kind == "bit_flip":
                flips[e.target] = flips.get(e.target, 0) + int(e.magnitude)
        for e in self._active("envelope_drift"):
            scale[e.target] = scale.get(e.target, 1.0) * e.magnitude
        state.corrupt_uplink = corrupt
        state.bit_flip_counts = flips
        state.beacon_loss_scale = scale


class ChannelFaultInjector(FaultInjector):
    """Channel faults: burst noise, attenuation drift, junction-loss
    steps.

    * ``noise_burst`` — the receiver noise floor rises: an SNR penalty
      of ``magnitude`` dB on every uplink while active.
    * ``attenuation`` — the target tag's acoustic path degrades (a
      clamped panel, a loosened mount): ``magnitude`` dB of SNR penalty
      on that tag's uplink.
    * ``junction_loss`` — structural change (a weld crack, an added
      fixture): every BiW joint crossing pays ``magnitude`` extra dB.
      This mutates the shared medium, so the propagation caches, the
      reference round-trip anchor, the per-tag beacon-loss table, and
      any waveform link cache are all invalidated on each step — and
      restored exactly when the last junction fault clears.
    """

    name = "channel"
    kinds = CHANNEL_KINDS

    def bind(self, controller) -> None:
        super().bind(controller)
        # The joint offset this injector's network last derived its
        # channel from.  Cells of a multi-reader deployment share one
        # BiW, so the BiW's own offset may already be another cell's.
        self._applied_offset_db = controller.network.medium.biw.joint_loss_offset_db

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        self._refresh()

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        self._refresh()

    def _refresh(self) -> None:
        state = self.controller.state
        noise = 0.0
        penalties: Dict[str, float] = {}
        joint_offset = 0.0
        for e in self._active(*CHANNEL_KINDS):
            if e.kind == "noise_burst":
                noise += e.magnitude
            elif e.kind == "attenuation":
                penalties[e.target] = penalties.get(e.target, 0.0) + e.magnitude
            elif e.kind == "junction_loss":
                joint_offset += e.magnitude
        state.noise_penalty_db = noise
        state.snr_penalty_db = penalties
        self._set_joint_offset(joint_offset)

    def _set_joint_offset(self, offset_db: float) -> None:
        if offset_db == self._applied_offset_db:
            return
        self._applied_offset_db = offset_db
        network = self.controller.network
        medium = network.medium
        if medium.biw.joint_loss_offset_db != offset_db:
            medium.biw.set_joint_loss_offset_db(offset_db)
        # invalidate_channel_cache bumps the medium's channel
        # generation, which the waveform tier's link cache follows on
        # its own.
        medium.invalidate_channel_cache()
        network.refresh_beacon_loss()


class RelayFaultInjector(FaultInjector):
    """Relay-tier faults: relay brownout mid-route, stale relay table.

    * ``relay_brownout`` — a tag serving as a forwarding relay browns
      out mid-route: the tag is dark for the window exactly as with the
      hardware-tier ``brownout`` (frames buffered at it are lost, the
      route's forward attempts fail), and the MCU cold-starts when power
      returns.  A distinct kind so chaos schedules can target the relay
      tier without also drawing hardware-tier events.
    * ``relay_table_stale`` — the reader's T2T measurement pipeline
      stalls: while active, :class:`~repro.resilience.RelayFallbackPolicy`
      can neither engage new routes nor re-route around dead relays, so
      an established route keeps limping through its failures — the
      observable signature of a stale relay table.  Existing routes and
      grants are untouched.
    """

    name = "relay"
    kinds = RELAY_KINDS

    def apply(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "relay_brownout":
            state.bump(state.offline, event.target, +1)
        elif event.kind == "relay_table_stale":
            state.relay_frozen += 1

    def clear(self, event: FaultEvent, rng: np.random.Generator) -> None:
        state = self.controller.state
        if event.kind == "relay_brownout":
            state.bump(state.offline, event.target, -1)
            for name in self.controller.tags_matching(event.target):
                if not state.is_flagged(state.offline, name):
                    self.controller.network.tags[name].power_cycle()
        elif event.kind == "relay_table_stale":
            state.relay_frozen -= 1
            if state.relay_frozen < 0:
                raise RuntimeError("relay_table_stale refcount went negative")


def default_injectors() -> List[FaultInjector]:
    """One injector per layer, covering every kind in
    :data:`~repro.faults.schedule.ALL_KINDS`."""
    return [
        ChannelFaultInjector(),
        PhyFaultInjector(),
        HardwareFaultInjector(),
        MacFaultInjector(),
        RelayFaultInjector(),
    ]
