"""Pluggable self-healing recovery policies.

Three defaults, each targeting one failure regime the fault layer
(:mod:`repro.faults`) can produce:

* :class:`BeaconResyncPolicy` — **beacon-loss resync with bounded
  retries** (tag side).  The Sec. 5.4 refinement demotes a tag to
  MIGRATE on *every* missed beacon; under a network-wide beacon outage
  that throws the whole population back into random competition even
  though the relative slot alignment between tags survives (all
  counters stall together).  The policy suppresses the demote for up to
  ``max_retries`` consecutive losses — the tag keeps its offset and
  resumes where its stalled counter says — and falls back to the
  vanilla demote beyond that bound (a tag that missed that many beacons
  alone really is desynchronised).

* :class:`BackoffRejoinPolicy` — **exponential-backoff rejoin** for
  power-cycled/browned-out tags (tag side).  A mass brownout ends with
  every affected tag cold-starting in the same slot and probing
  simultaneously; their probes collide with each other (the EMPTY flag
  only protects newcomers from *settled* traffic).  The policy holds
  each rebooted tag out of the competition for a deterministic,
  tid-staggered hold-off, doubling the hold-off (up to ``max_holdoff``)
  each time a rejoin attempt fails to settle within its window.

* :class:`SlotLeasePolicy` — **reader-side slot-lease expiry**.  A
  committed assignment is a lease: when the tag misses
  ``lease_misses`` consecutive *expected* transmissions, the reader
  reclaims the slot (:meth:`~repro.core.reader_protocol.ReaderMac.release_assignment`,
  which drops the commitment and any in-flight eviction entry
  together).  The reader's built-in expiry only fires when the slot
  passes completely empty; the lease also recovers slots a dead tag
  holds while *other* traffic (collisions, migrating probes) keeps the
  slot occupied.

Policies are deterministic — hold-offs derive from the tag's TID, never
from an RNG — so a supervised run replays byte-identically under the
same seed and schedule.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.reader_protocol import SlotRecord
from repro.core.state_machine import TagState
from repro.core.tag_protocol import TagMac
from repro.sim.random import as_index

if TYPE_CHECKING:
    from repro.resilience.supervisor import InvariantViolation, NetworkSupervisor


@dataclass(frozen=True)
class PolicyAction:
    """One intervention a policy performed, for the supervisor ledger."""

    slot: int
    policy: str
    tag: Optional[str]
    action: str
    detail: str = ""

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "slot": self.slot,
            "policy": self.policy,
            "tag": self.tag,
            "action": self.action,
            "detail": self.detail,
        }


def _unattached() -> None:
    return None


class RecoveryPolicy:
    """Base policy: attached to a supervisor, stepped once per slot."""

    #: Short name used in action ledgers and reports.
    name = "base"

    def __init__(self) -> None:
        self._supervisor: "Callable[[], Optional[NetworkSupervisor]]" = _unattached

    @property
    def supervisor(self) -> "Optional[NetworkSupervisor]":
        """The supervisor this policy is attached to, or None.

        Held weakly: the supervisor owns its policies, so a strong
        reference back would keep both (and the network, its tags and
        ledgers) in a reference cycle.  A policy whose supervisor was
        dropped keeps acting through the tag hooks it installed, and
        logs nothing."""
        return self._supervisor()

    def attach(self, supervisor: "NetworkSupervisor") -> None:
        """Bind to a supervisor (called once, before the first slot)."""
        self._supervisor = weakref.ref(supervisor)

    def detach(self) -> None:
        self._supervisor = _unattached

    def on_slot(self, record: SlotRecord) -> None:
        """Observe one elapsed slot; mutate MAC state as needed."""

    def on_invariant_violation(self, violation: "InvariantViolation") -> bool:
        """React to a supervisor invariant failure; return True when the
        policy repaired it (stops the escalation clock for this slot)."""
        return False

    # -- ledger helper ----------------------------------------------------

    def act(self, slot: int, tag: Optional[str], action: str, detail: str = "") -> None:
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.log_action(
                PolicyAction(slot=slot, policy=self.name, tag=tag, action=action, detail=detail)
            )


class BeaconResyncPolicy(RecoveryPolicy):
    """Suppress the per-loss demote for short beacon outages.

    ``max_retries`` bounds the resync attempt: up to that many
    *consecutive* missed beacons leave the state machine untouched (the
    tag's slot counter stalls, its offset survives); the next loss
    beyond the bound demotes once, and further consecutive losses stay
    demote-free (the tag is already migrating — re-rolling an offset it
    cannot transmit from is pure churn).
    """

    name = "beacon_resync"

    def __init__(self, max_retries: int = 12) -> None:
        super().__init__()
        max_retries = as_index(max_retries, "max_retries")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.max_retries = max_retries

    def attach(self, supervisor: "NetworkSupervisor") -> None:
        super().attach(supervisor)
        supervisor.register_loss_handler(self._on_beacon_loss)

    def _on_beacon_loss(self, tag: TagMac) -> bool:
        if tag.consecutive_beacon_losses <= self.max_retries:
            if tag.consecutive_beacon_losses == 1:
                self.act(
                    tag.slot_counter,
                    tag.tag_name,
                    "resync_hold",
                    f"suppressing demote for up to {self.max_retries} losses",
                )
            return True
        if tag.consecutive_beacon_losses == self.max_retries + 1:
            # Bounded retries exhausted: demote once (vanilla fallback).
            self.act(
                tag.slot_counter,
                tag.tag_name,
                "resync_give_up",
                f"{tag.consecutive_beacon_losses} consecutive losses",
            )
            return False
        # Already demoted for this outage; keep the machine quiet.
        return True


@dataclass
class _RejoinState:
    attempt: int = 0
    #: Reader slot by which the tag must have settled, set once its
    #: hold-off has drained; None while still holding off.
    deadline: Optional[int] = None


class BackoffRejoinPolicy(RecoveryPolicy):
    """Exponential-backoff rejoin for power-cycled tags.

    The hold-off for attempt ``k`` is ``min(max_holdoff, base << k)``
    plus a deterministic per-tag stagger (``(tid % stagger_mod) *
    stagger_step`` slots) that splays simultaneous rejoiners apart.
    After the hold-off drains the tag competes normally; if it has not
    settled within ``settle_window_periods`` of its own periods, the
    next attempt doubles the hold-off, up to ``max_attempts`` rearms.
    """

    name = "backoff_rejoin"

    def __init__(
        self,
        base_holdoff: int = 4,
        max_holdoff: int = 128,
        settle_window_periods: int = 3,
        max_attempts: int = 6,
        stagger_mod: int = 8,
        stagger_step: int = 3,
    ) -> None:
        super().__init__()
        base_holdoff = as_index(base_holdoff, "base_holdoff")
        max_holdoff = as_index(max_holdoff, "max_holdoff")
        settle_window_periods = as_index(settle_window_periods, "settle_window_periods")
        max_attempts = as_index(max_attempts, "max_attempts")
        stagger_mod = as_index(stagger_mod, "stagger_mod")
        stagger_step = as_index(stagger_step, "stagger_step")
        if base_holdoff < 1:
            raise ValueError("base_holdoff must be >= 1 slot")
        if max_holdoff < base_holdoff:
            raise ValueError("max_holdoff must be >= base_holdoff")
        if settle_window_periods < 1:
            raise ValueError("settle_window_periods must be >= 1")
        if max_attempts < 0:
            raise ValueError("max_attempts must be non-negative")
        if stagger_mod < 1:
            raise ValueError("stagger_mod must be >= 1")
        if stagger_step < 0:
            raise ValueError("stagger_step must be non-negative")
        self.base_holdoff = base_holdoff
        self.max_holdoff = max_holdoff
        self.settle_window_periods = settle_window_periods
        self.max_attempts = max_attempts
        self.stagger_mod = stagger_mod
        self.stagger_step = stagger_step
        self._pending: Dict[str, _RejoinState] = {}

    def attach(self, supervisor: "NetworkSupervisor") -> None:
        super().attach(supervisor)
        supervisor.register_power_cycle_handler(self._on_power_cycle)

    def holdoff_for(self, tag: TagMac, attempt: int) -> int:
        backoff = min(self.max_holdoff, self.base_holdoff << attempt)
        stagger = (tag.tid % self.stagger_mod) * self.stagger_step
        return backoff + stagger

    def _on_power_cycle(self, tag: TagMac) -> None:
        state = _RejoinState(attempt=0)
        self._pending[tag.tag_name] = state
        tag.rejoin_holdoff = self.holdoff_for(tag, 0)
        self.act(
            tag.slot_counter,
            tag.tag_name,
            "rejoin_holdoff",
            f"attempt 0, holding {tag.rejoin_holdoff} slots",
        )

    def on_slot(self, record: SlotRecord) -> None:
        if not self._pending:
            return
        supervisor = self.supervisor
        if supervisor is None:
            return
        tags = supervisor.network.tags
        for name in list(self._pending):
            tag = tags[name]
            state = self._pending[name]
            if tag.rejoin_holdoff > 0:
                continue  # still serving the hold-off
            if tag.state is TagState.SETTLE:
                self.act(record.slot, name, "rejoin_settled", f"attempt {state.attempt}")
                del self._pending[name]
                continue
            if state.deadline is None:
                state.deadline = record.slot + self.settle_window_periods * tag.period
                continue
            if record.slot < state.deadline:
                continue
            if state.attempt + 1 > self.max_attempts:
                self.act(
                    record.slot, name, "rejoin_exhausted",
                    f"{state.attempt + 1} attempts; reverting to vanilla competition",
                )
                del self._pending[name]
                continue
            state.attempt += 1
            state.deadline = None
            tag.rejoin_holdoff = self.holdoff_for(tag, state.attempt)
            self.act(
                record.slot, name, "rejoin_holdoff",
                f"attempt {state.attempt}, holding {tag.rejoin_holdoff} slots",
            )

    def pending_rejoins(self) -> Tuple[str, ...]:
        """Tags currently managed by the policy (stable order)."""
        return tuple(self._pending)


class SlotLeasePolicy(RecoveryPolicy):
    """Reader-side lease expiry over committed assignments.

    Uses the health monitor's exact ``consecutive_missed`` counter: when
    a committed tag misses ``lease_misses`` expected transmissions in a
    row, the reader forgets the assignment (commitment + eviction entry
    together), reopening the slot for newcomers even while residual
    traffic keeps it from ever passing empty.
    """

    name = "slot_lease"

    def __init__(self, lease_misses: int = 3) -> None:
        super().__init__()
        lease_misses = as_index(lease_misses, "lease_misses")
        if lease_misses < 1:
            raise ValueError("lease_misses must be >= 1")
        self.lease_misses = lease_misses

    def on_slot(self, record: SlotRecord) -> None:
        supervisor = self.supervisor
        if supervisor is None:
            return
        reader = supervisor.network.reader
        monitor = supervisor.monitor
        for tag in reader.committed_offsets():
            health = monitor.health(tag)
            if health.consecutive_missed >= self.lease_misses:
                if reader.release_assignment(tag):
                    self.act(
                        record.slot, tag, "lease_expired",
                        f"{health.consecutive_missed} consecutive expected "
                        "slots without a decode",
                    )
                health.consecutive_missed = 0


def default_policies() -> List[RecoveryPolicy]:
    """The stock self-healing stack: resync, backoff rejoin, slot lease."""
    return [
        BeaconResyncPolicy(),
        BackoffRejoinPolicy(),
        SlotLeasePolicy(),
    ]
