"""Tag-side MAC (Sec. 5.3-5.6, tag half).

Wraps the state machine with everything a deployed tag tracks:

* the local slot counter ``s_i``, incremented per received beacon —
  never trusted absolutely, only used modulo the period;
* the transmitted-last-slot gate for the broadcast ACK/NACK (beacons
  carry no tag ID, so feedback applies only to tags that just spoke);
* the beacon-loss watchdog (an expected beacon that never arrives sends
  the tag back to MIGRATE immediately, Sec. 5.4 refinement);
* the late-arrival EMPTY gate: until a tag has settled at least once,
  it only transmits in slots the reader has flagged EMPTY (Sec. 5.5),
  and re-picks its offset instead of transmitting into a predicted-busy
  slot.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro import telemetry
from repro.core.state_machine import DEFAULT_NACK_THRESHOLD, TagState, TagStateMachine
from repro.phy.packets import DownlinkBeacon


class TagRecoveryHook(Protocol):
    """Narrow interface a resilience policy exposes to one tag's MAC.

    Both callbacks fire synchronously inside the MAC transition they
    observe, so a policy can intervene before the tag acts on the event
    (e.g. suppress the watchdog demote, or arm a rejoin hold-off before
    the next beacon is processed).  A tag with no hook attached follows
    the paper's vanilla behaviour on an identical code path — the hook
    is the resilience layer's only entry point into the tag firmware.
    """

    def on_beacon_loss(self, tag: "TagMac") -> bool:
        """Called per missed beacon; return True to suppress the
        Sec. 5.4 demote-to-MIGRATE for this loss."""
        ...

    def on_power_cycle(self, tag: "TagMac") -> None:
        """Called after a brownout cold restart, before the tag sees
        its next beacon."""
        ...


class TagUplinkHook(Protocol):
    """Narrow interface a forwarding layer exposes to one tag's MAC.

    Attached only to tags whose frames may leave over a link other than
    the direct one to the reader.  Both callbacks fire synchronously
    inside :meth:`TagMac.on_beacon`; a tag with no hook attached runs
    the identical code path minus two ``is None`` tests.
    """

    def feedback(self, tag: "TagMac", beacon: DownlinkBeacon) -> DownlinkBeacon:
        """Called per received beacon, before feedback is applied;
        returns the beacon whose ACK bit the tag should act on."""
        ...

    def to_reader(self, tag: "TagMac") -> bool:
        """Called when the tag transmits; False when the frame went
        elsewhere, so the reader does not hear it this slot."""
        ...


class TagMac:
    """The MAC layer of one tag."""

    def __init__(
        self,
        tag_name: str,
        tid: int,
        period: int,
        offset_picker: Callable[[int], int],
        nack_threshold: int = DEFAULT_NACK_THRESHOLD,
        respect_empty_flag: bool = True,
        late_arrival: bool = False,
    ) -> None:
        self.tag_name = tag_name
        self.tid = tid
        self.machine = TagStateMachine(period, offset_picker, nack_threshold)
        self.slot_counter = 0
        self.transmitted_last_slot = False
        self.ever_settled = False
        self.respect_empty_flag = respect_empty_flag
        self.late_arrival = late_arrival
        self.beacons_received = 0
        self.beacons_missed = 0
        self.transmissions = 0
        #: Missed beacons since the last successfully received one —
        #: the signal the beacon-resync policy bounds its retries on.
        self.consecutive_beacon_losses = 0
        #: Brownout cold restarts this tag has been through.
        self.power_cycles = 0
        #: Slots the tag must stay silent before competing again; armed
        #: by a rejoin-backoff policy, 0 (inert) on the vanilla path.
        self.rejoin_holdoff = 0
        self._recovery: Optional[TagRecoveryHook] = None
        self._uplink: Optional[TagUplinkHook] = None

    # -- resilience attachment point ------------------------------------

    def attach_recovery(self, hook: Optional[TagRecoveryHook]) -> None:
        """Install (or, with None, remove) a resilience hook.

        With no hook the MAC's behaviour — including its RNG draws — is
        byte-identical to a build without the resilience layer.
        """
        self._recovery = hook

    @property
    def recovery(self) -> Optional[TagRecoveryHook]:
        return self._recovery

    def attach_uplink(self, hook: Optional[TagUplinkHook]) -> None:
        """Install (or, with None, remove) a forwarding hook."""
        self._uplink = hook

    @property
    def period(self) -> int:
        return self.machine.period

    @property
    def state(self) -> TagState:
        return self.machine.state

    @property
    def offset(self) -> int:
        return self.machine.offset

    @property
    def is_new(self) -> bool:
        """Only *late-arriving* tags obey the EMPTY flag, and only until
        their first settle (Sec. 5.5: "only newly arriving tags respond
        to the EMPTY flag").  Tags present from the start — including
        everyone after a RESET — compete through the ordinary
        trial-and-error process (Sec. 5.6: "early-arriving tags select
        transmission slots through a competitive process")."""
        return self.late_arrival and not self.ever_settled

    def on_beacon(self, beacon: DownlinkBeacon) -> bool:
        """Process a received beacon; returns whether the tag transmits
        to the reader in the slot this beacon opens.

        Order of operations mirrors the tag firmware: apply last-slot
        feedback (gated on having transmitted), apply RESET, then decide
        whether to transmit.  The offset and state the decision left
        behind are :attr:`offset` and :attr:`state`.
        """
        self.beacons_received += 1
        self.consecutive_beacon_losses = 0
        uplink = self._uplink
        if uplink is not None:
            beacon = uplink.feedback(self, beacon)
        machine = self.machine

        if self.transmitted_last_slot:
            self.transmitted_last_slot = False
            prev_state = machine.state
            if beacon.ack:
                machine.on_ack()
                self.ever_settled = True
            else:
                machine.on_nack()
            tel = telemetry.active()
            if tel is not None and machine.state is not prev_state:
                # A feedback-driven state transition: settling on an ACK
                # is a promotion, falling back to MIGRATE on the NACK
                # threshold is a demotion.
                if machine.state is TagState.SETTLE:
                    tel.inc("mac.tag.promotions", tag=self.tag_name)
                else:
                    tel.inc("mac.tag.demotions", tag=self.tag_name)

        if beacon.reset:
            machine.reset()
            self.ever_settled = False
            self.slot_counter = 0

        counter = self.slot_counter
        self.slot_counter = counter + 1
        if self.rejoin_holdoff > 0:
            # A rejoin-backoff policy is holding the tag out of the
            # competition: feedback and RESET were processed above, but
            # the tag stays silent and burns one hold-off slot.
            self.rejoin_holdoff -= 1
            return False

        if counter % machine.period != machine.offset:
            return False
        if self.is_new and self.respect_empty_flag and not beacon.empty:
            # Predicted-busy slot: a newcomer defers and immediately
            # re-rolls its offset rather than provoking a collision.
            if machine.state is TagState.MIGRATE:
                machine.on_nack()  # re-pick without transmitting
            return False

        self.transmissions += 1
        self.transmitted_last_slot = True
        if uplink is not None:
            return uplink.to_reader(self)
        return True

    def cold_boot(self) -> None:
        """Drop all protocol state, as an MCU reboot does: the state
        machine re-rolls a fresh offset, the slot counter restarts at
        zero, and the tag rejoins as a late arrival (Sec. 5.5)."""
        self.machine.reset()
        self.slot_counter = 0
        self.transmitted_last_slot = False
        self.ever_settled = False
        self.late_arrival = True

    def power_cycle(self) -> None:
        """Cold-restart the MAC after a brownout (fault injection).

        The MCU rebooted, so all protocol state is gone: the state
        machine re-rolls a fresh offset, the slot counter restarts at
        zero, and the tag rejoins as a *late-arriving* tag — it defers
        to the EMPTY flag until its first settle, exactly like a tag
        whose first charge completed mid-run (Sec. 5.5).
        """
        self.cold_boot()
        self.power_cycles += 1
        tel = telemetry.active()
        if tel is not None:
            tel.inc("mac.tag.power_cycles", tag=self.tag_name)
        if self._recovery is not None:
            # Synchronous: the policy can arm a rejoin hold-off before
            # the rebooted tag processes its first beacon.
            self._recovery.on_power_cycle(self)

    def on_beacon_loss(self) -> bool:
        """The watchdog fired: no beacon arrived for this slot.

        The tag cannot transmit (it has no slot-boundary reference), so
        the verdict is always False, and its counter stops incrementing
        — the desynchronisation analysed in Sec. 5.4.  The refinement
        sends it straight back to MIGRATE.
        """
        self.beacons_missed += 1
        self.consecutive_beacon_losses += 1
        self.transmitted_last_slot = False
        tel = telemetry.active()
        if tel is not None:
            tel.inc("mac.tag.beacon_losses", tag=self.tag_name)
        suppress = (
            self._recovery is not None
            and self._recovery.on_beacon_loss(self)
        )
        if not suppress:
            prev_state = self.machine.state
            self.machine.on_beacon_loss()
            if (
                tel is not None
                and prev_state is TagState.SETTLE
                and self.machine.state is TagState.MIGRATE
            ):
                tel.inc("mac.tag.demotions", tag=self.tag_name)
        return False
