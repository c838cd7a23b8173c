"""Reader-side MAC (Sec. 5.3-5.6, reader half).

The reader is the only entity with a ground-truth slot index.  Each
beacon it broadcasts carries three decisions:

* **ACK/NACK for the previous slot** — ACK only when exactly one packet
  decoded *and* the IQ-cluster detector saw no collision *and* the
  transmitter is not being blocked by future-collision avoidance.
* **EMPTY prediction for the current slot** (Sec. 5.5, Eq. 4) — the
  slot is predicted free iff, for every period among the tags that have
  appeared, the slot one period back carried no activity.
* **RESET** when the experiment requests a cold restart.

Future-collision avoidance (Sec. 5.6): tag periods are provisioned in
the reader.  When a tag without a committed offset is decoded, the
reader checks whether *any* conflict-free offset exists for it against
the currently committed assignments; if not, the newcomer is NACKed
despite the clean decode, and a committed victim (whose removal makes
the newcomer viable) is evicted via successive NACKs until it leaves
SETTLE and re-competes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

from repro import telemetry
from repro.channel.medium import SlotObservation
from repro.core.slot_schedule import (
    Assignment,
    find_free_offset,
    free_offsets,
    validate_period,
)
from repro.core.state_machine import DEFAULT_NACK_THRESHOLD
from repro.phy.packets import DownlinkBeacon

#: Every beacon a reader sends, keyed by ``(ack, empty, reset)``.
#: Beacons are frozen, so each slot shares one of these eight instead
#: of constructing its own.
_BEACONS = {
    flags: DownlinkBeacon(ack=flags[0], empty=flags[1], reset=flags[2])
    for flags in itertools.product((False, True), repeat=3)
}


@dataclass
class SlotRecord:
    """Reader-side log entry for one elapsed slot."""

    # A long run logs one record per slot; without a per-instance
    # ``__dict__`` each is smaller and quicker to build.  A tuple, not
    # ``dataclass(slots=True)``, which needs Python 3.10.
    __slots__ = (
        "slot",
        "n_transmitters",
        "decoded",
        "collision_detected",
        "acked",
        "empty_flag",
    )

    slot: int
    n_transmitters: int
    decoded: Optional[str]
    collision_detected: bool
    acked: bool
    empty_flag: bool

    @property
    def occupied(self) -> bool:
        """Activity in the slot: a decode or a detected collision."""
        return self.decoded is not None or self.collision_detected

    @property
    def truly_nonempty(self) -> bool:
        """Ground truth (simulator-visible): someone transmitted."""
        return self.n_transmitters > 0

    @property
    def truly_collided(self) -> bool:
        return self.n_transmitters > 1


class ReaderMac:
    """Reader protocol engine.

    Parameters
    ----------
    tag_periods:
        Provisioned transmission period per tag name ("all tags periods
        are known to the reader", Sec. 5.6).
    enable_empty_flag / enable_future_avoidance:
        Refinement switches, exposed for the ablation benches.
    """

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        nack_threshold: int = DEFAULT_NACK_THRESHOLD,
        enable_empty_flag: bool = True,
        enable_future_avoidance: bool = True,
    ) -> None:
        for tag, period in tag_periods.items():
            validate_period(period)
        self.tag_periods = dict(tag_periods)
        # Eq. 4 is evaluated once per distinct period, and EMPTY never
        # looks further back than one max period: history older than
        # twice that is dropped.
        self._periods = sorted(set(self.tag_periods.values()))
        self._horizon = 2 * max(self._periods, default=1)
        self.nack_threshold = nack_threshold
        self.enable_empty_flag = enable_empty_flag
        self.enable_future_avoidance = enable_future_avoidance

        self.slot_index = 0
        self._pending_ack = False
        self._pending_reset = False
        self._appeared: Set[str] = set()
        self._committed: Dict[str, int] = {}  # tag -> ground-truth offset
        self._evicting: Dict[str, int] = {}  # tag -> forced NACKs delivered
        self._slot_decoded: Dict[int, str] = {}  # slot -> attributed tag
        self._slot_collision: Dict[int, bool] = {}  # slot -> unattributed
        self.records: List[SlotRecord] = []
        self._last_empty_flag = True

    # -- beacon composition ---------------------------------------------------

    def request_reset(self) -> None:
        """Queue a RESET command into the next beacon."""
        self._pending_reset = True

    def make_beacon(self) -> DownlinkBeacon:
        """Compose the beacon opening the current slot."""
        empty = self._compute_empty_flag(self.slot_index)
        self._last_empty_flag = empty
        beacon = _BEACONS[self._pending_ack, empty, self._pending_reset]
        if self._pending_reset:
            self._apply_reset()
        return beacon

    def _apply_reset(self) -> None:
        self._pending_reset = False
        self._pending_ack = False
        self._appeared.clear()
        self._committed.clear()
        self._evicting.clear()
        self._slot_decoded.clear()
        self._slot_collision.clear()

    def restart(self) -> None:
        """Reboot the reader mid-run (fault injection).

        All learned soft state — commitments, the eviction ledger, the
        per-slot activity history behind the EMPTY flag — is lost, as on
        a real power cycle.  The slot cadence survives: beacons come
        from the timing generator, so tags keep their counters and the
        reader must re-learn the allocation from observed traffic.
        Unlike :meth:`request_reset`, no RESET command reaches the tags.
        """
        self._apply_reset()
        self._last_empty_flag = True
        tel = telemetry.active()
        if tel is not None:
            tel.inc("mac.reader.restarts")

    def release_assignment(self, tag: str) -> bool:
        """Forget one tag's committed slot (resilience: slot-lease expiry).

        Drops the commitment *and* any in-flight eviction ledger entry
        for the tag — the two must always move together: an eviction
        entry without a commitment is a stale-assignment leak (the tag
        could never be selected as an eviction victim again, and
        ``_start_eviction``'s in-flight check would reason about a slot
        nobody holds).  Returns True when a commitment was dropped.
        """
        released = tag in self._committed
        self._committed.pop(tag, None)
        self._evicting.pop(tag, None)
        return released

    def _compute_empty_flag(self, slot: int) -> bool:
        """Eq. 4: EMPTY(s) = prod_i 1(no packet received in slot s-p_i),
        with each tag's *own* period and per-tag attribution: tag i
        occupying slot s-p_i means tag i itself returns at slot s.

        Attribution matters: predicting busy whenever *anyone* was
        active one period back would mark nearly every slot busy in a
        dense schedule (a period-8 tag seen 4 slots ago is no evidence
        about this slot), permanently starving EMPTY-gated late
        arrivals.  Decoded packets carry the TID, so attribution is
        free; an unattributed *collision* one period back is treated
        conservatively as potentially-returning for every period.

        Evaluated once per distinct period ``p``: some tag of period
        ``p`` was decoded in slot ``s - p`` exactly when the tag decoded
        there has period ``p``.
        """
        if not self.enable_empty_flag:
            return True
        decoded = self._slot_decoded
        collided = self._slot_collision
        periods = self.tag_periods
        for period in self._periods:
            back = slot - period
            if back in collided:
                return False
            tag = decoded.get(back)
            if tag is not None and periods.get(tag) == period:
                return False
        return True

    # -- slot outcome processing -----------------------------------------------

    def on_slot_observation(self, observation: SlotObservation) -> SlotRecord:
        """Digest the receive chain's verdict for the slot just ended
        and prepare the ACK/NACK for the next beacon."""
        slot = self.slot_index
        decoded = observation.decoded_tag
        collision = observation.collision_detected
        if decoded is not None:
            self._slot_decoded[slot] = decoded
        if collision:
            self._slot_collision[slot] = True
        # Bounded history: EMPTY only ever looks one max-period back.
        stale = slot - self._horizon
        self._slot_decoded.pop(stale, None)
        self._slot_collision.pop(stale, None)

        committed = self._committed
        if committed and decoded is None and not collision:
            # A committed tag's scheduled slot passed with no activity at
            # all: the tag has left that offset (demoted by collisions or
            # a beacon loss).  Expire the commitment so the viability
            # check does not hold a phantom slot against newcomers — a
            # stale commitment would trigger needless evictions.
            periods = self.tag_periods
            for tag_name, offset in list(committed.items()):
                period = periods.get(tag_name)
                if period is not None and slot % period == offset:
                    del committed[tag_name]
                    self._evicting.pop(tag_name, None)

        ack = False
        if decoded is not None and not collision:
            ack = self._decide_ack(decoded, slot)
        self._pending_ack = ack

        record = SlotRecord(
            slot=slot,
            n_transmitters=observation.n_transmitters,
            decoded=decoded,
            collision_detected=collision,
            acked=ack,
            empty_flag=self._last_empty_flag,
        )
        self.records.append(record)
        self.slot_index += 1
        return record

    def _decide_ack(self, tag: str, slot: int) -> bool:
        """Clean single decode: apply Sec. 5.6 placement policy."""
        self._appeared.add(tag)
        period = self.tag_periods.get(tag)
        if period is None:
            # Unprovisioned tag: acknowledge plainly (no avoidance info).
            return True
        offset = slot % period

        if tag in self._evicting:
            old = self._committed.get(tag)
            if old is not None and offset == old:
                # Victim still in its old slot: keep forcing it out.
                self._evicting[tag] += 1
                if self._evicting[tag] >= self.nack_threshold:
                    # It has now absorbed enough NACKs to leave SETTLE;
                    # stop forcing and forget its old slot.
                    del self._evicting[tag]
                    self._committed.pop(tag, None)
                return False
            # The victim already migrated: lift the eviction and treat
            # this decode as a fresh placement attempt below.
            del self._evicting[tag]
            self._committed.pop(tag, None)

        committed_offset = self._committed.get(tag)
        if committed_offset == offset:
            return True  # settled tag in its usual slot
        # The tag moved (or is new): treat as a placement attempt.
        self._committed.pop(tag, None)
        if not self.enable_future_avoidance:
            self._committed[tag] = offset
            tel = telemetry.active()
            if tel is not None:
                tel.inc("mac.reader.commits")
            return True  # naive ACK-on-decode (ablation baseline)
        others = self._placement_constraints()
        free = free_offsets(period, others)
        if 1 not in free:
            # No viable offset exists at all for this tag: block it and
            # evict a victim to reopen the competition (Sec. 5.6).
            self._start_eviction(period, others)
            return False
        if not free[offset]:
            # Viable offsets exist, but not this one: the chosen slot is
            # congruent with a committed tag's pattern and would collide
            # in a future slot — NACK despite the clean decode.
            return False
        self._committed[tag] = offset
        tel = telemetry.active()
        if tel is not None:
            tel.inc("mac.reader.commits")
        return True

    def _placement_constraints(self) -> List[Assignment]:
        """Every slot pattern placement must avoid.

        The base reader only reasons about committed tag assignments;
        subclasses may append further reservations (the relay extension
        adds its granted forwarding slots) so that both newcomer
        placement and eviction viability respect them.
        """
        return [
            Assignment(t, self.tag_periods[t], o)
            for t, o in self._committed.items()
        ]

    def _start_eviction(self, new_period: int, committed: List[Assignment]) -> None:
        """Pick a committed victim whose removal makes the newcomer
        viable and begin NACKing it.  Short-period victims are preferred:
        they transmit (and hence absorb forced NACKs) most often, so the
        eviction completes fastest.  If an in-flight eviction already
        unblocks the newcomer, no additional victim is selected — one
        eviction at a time keeps a thrashing probe from cascading
        through the whole settled population."""
        for victim_tag in self._evicting:
            rest = [a for a in committed if a.tag != victim_tag]
            if find_free_offset(new_period, rest) is not None:
                return
        candidates = []
        for victim in committed:
            if victim.tag in self._evicting:
                continue
            if victim.tag not in self._committed:
                # Constraint entries that are not tag commitments (e.g.
                # granted forwarding slots) cannot be evicted away.
                continue
            rest = [a for a in committed if a.tag != victim.tag]
            if find_free_offset(new_period, rest) is not None:
                candidates.append(victim)
        if not candidates:
            return
        chosen = min(candidates, key=lambda a: (a.period, a.tag))
        self._evicting[chosen.tag] = 0
        tel = telemetry.active()
        if tel is not None:
            tel.inc("mac.reader.evictions")

    # -- queries ----------------------------------------------------------------

    @property
    def committed_assignments(self) -> Dict[str, Assignment]:
        return {
            t: Assignment(t, self.tag_periods[t], o)
            for t, o in self._committed.items()
        }

    def committed_offsets(self) -> Dict[str, int]:
        """``tag -> offset`` of every commitment as stored (the period
        is ``tag_periods[tag]``).  Unlike :attr:`committed_assignments`
        nothing is validated, so the supervisor can inspect and report
        a corrupted commitment instead of crashing on it."""
        return dict(self._committed)

    def evicting(self) -> Set[str]:
        return set(self._evicting)
