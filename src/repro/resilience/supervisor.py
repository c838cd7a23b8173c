"""Supervised network stepping: invariant checks and escalation.

:class:`NetworkSupervisor` wraps any :class:`~repro.core.network.SlottedNetwork`
(or subclass) and owns the resilience stack for one run:

* it installs the attached policies' tag-side hooks (beacon-loss
  suppression, rejoin hold-offs) through
  :meth:`~repro.core.tag_protocol.TagMac.attach_recovery`;
* every :meth:`step` snapshots slot expectations, steps the network,
  feeds the record to the :class:`~repro.resilience.health.LinkHealthMonitor`
  and the policies, then verifies the MAC's structural invariants;
* persistent invariant violations escalate through a capped ladder:
  **policies** (every violation is offered to each policy first) →
  **reader restart** (:meth:`~repro.core.reader_protocol.ReaderMac.restart`
  after ``policy_grace`` consecutive violating slots) → **hard reset**
  (a RESET broadcast after ``restart_grace`` more, at most
  ``max_hard_resets`` times) → :class:`EscalationExhausted`.

Invariants checked each slot (all structural — they hold by
construction in a healthy reader, so any failure means corrupted
protocol state):

* every committed offset lies in ``[0, period)``;
* no two committed assignments conflict (schedule consistency /
  no double-booked slot) — only when future-collision avoidance is on,
  since the ablation baseline commits blindly; the pairwise scan
  reruns only on a slot whose committed ledger differs from the last
  one scanned;
* the eviction ledger never holds a tag without a commitment (the
  stale-assignment leak class found in the PR-3 audit);
* every tag's local offset lies in ``[0, period)``.

A supervisor with no policies and checks enabled is observation-only:
the network's records, traces, and RNG consumption are byte-identical
to unsupervised stepping — the zero-cost-when-off contract shared with
:mod:`repro.faults`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro import telemetry
from repro.core.network import SlottedNetwork, slot_count
from repro.core.reader_protocol import SlotRecord
from repro.core.slot_schedule import offsets_conflict
from repro.core.tag_protocol import TagMac
from repro.resilience.health import DEFAULT_HEALTH_WINDOW, LinkHealthMonitor
from repro.resilience.policies import PolicyAction, RecoveryPolicy, default_policies
from repro.sim.random import as_index


class ResilienceError(RuntimeError):
    """Base error of the resilience layer."""


class EscalationExhausted(ResilienceError):
    """Invariants kept failing after every rung of the ladder."""


@dataclass(frozen=True)
class InvariantViolation:
    """One failed structural check in one slot."""

    slot: int
    check: str
    detail: str

    def to_jsonable(self) -> Dict[str, object]:
        return {"slot": self.slot, "check": self.check, "detail": self.detail}


@dataclass(frozen=True)
class EscalationEvent:
    """One rung of the ladder firing."""

    slot: int
    level: str  # "restart" | "hard_reset"
    reason: str

    def to_jsonable(self) -> Dict[str, object]:
        return {"slot": self.slot, "level": self.level, "reason": self.reason}


class _TagRecoveryDispatch:
    """Fans a tag's recovery callbacks out to the registered policies."""

    def __init__(self) -> None:
        self.loss_handlers: List[Callable[[TagMac], bool]] = []
        self.power_cycle_handlers: List[Callable[[TagMac], None]] = []

    def on_beacon_loss(self, tag: TagMac) -> bool:
        suppress = False
        for handler in self.loss_handlers:
            suppress = bool(handler(tag)) or suppress
        return suppress

    def on_power_cycle(self, tag: TagMac) -> None:
        for handler in self.power_cycle_handlers:
            handler(tag)


class NetworkSupervisor:
    """Self-healing wrapper around one network's slot loop.

    Parameters
    ----------
    network:
        The network to supervise.  Its tags must not already carry a
        recovery hook.
    policies:
        Recovery policies to install; None selects
        :func:`~repro.resilience.policies.default_policies`, an empty
        sequence supervises without intervening.
    check_invariants:
        Verify the structural MAC invariants after every slot.
    policy_grace:
        Consecutive violating slots tolerated before the reader is
        restarted (the policies see every violation immediately).
    restart_grace:
        Further violating slots tolerated after a restart before a hard
        RESET broadcast is requested.
    max_hard_resets:
        Hard resets permitted before :class:`EscalationExhausted`.
    """

    def __init__(
        self,
        network: SlottedNetwork,
        policies: Optional[Iterable[RecoveryPolicy]] = None,
        check_invariants: bool = True,
        policy_grace: int = 8,
        restart_grace: int = 16,
        max_hard_resets: int = 2,
        health_window: int = DEFAULT_HEALTH_WINDOW,
    ) -> None:
        policy_grace = as_index(policy_grace, "policy_grace")
        restart_grace = as_index(restart_grace, "restart_grace")
        max_hard_resets = as_index(max_hard_resets, "max_hard_resets")
        health_window = as_index(health_window, "health_window")
        if policy_grace < 1:
            raise ValueError("policy_grace must be >= 1 slot")
        if restart_grace < 1:
            raise ValueError("restart_grace must be >= 1 slot")
        if max_hard_resets < 0:
            raise ValueError("max_hard_resets must be non-negative")
        self.network = network
        self.check_invariants = check_invariants
        self.policy_grace = policy_grace
        self.restart_grace = restart_grace
        self.max_hard_resets = max_hard_resets
        self.monitor = LinkHealthMonitor(network, window=health_window)

        self.policies: List[RecoveryPolicy] = (
            default_policies() if policies is None else list(policies)
        )
        self._dispatch = _TagRecoveryDispatch()
        for policy in self.policies:
            policy.attach(self)
        if self._dispatch.loss_handlers or self._dispatch.power_cycle_handlers:
            for tag in network.tags.values():
                if tag.recovery is not None:
                    raise ResilienceError(
                        f"tag {tag.tag_name!r} already carries a recovery hook"
                    )
                tag.attach_recovery(self._dispatch)

        #: Ledgers, append-only for the run.
        self.actions: List[PolicyAction] = []
        self.violations: List[InvariantViolation] = []
        self.escalations: List[EscalationEvent] = []

        self._violation_streak = 0
        self._restarted_this_episode = False
        self._hard_resets = 0
        # The last committed ledger scanned for double bookings and the
        # conflicts found.  Compared by content, not by a version
        # counter: corruption paths write ``reader._committed`` directly.
        self._scanned_ledger: Optional[Dict[str, int]] = None
        self._double_booked: List[str] = []

    # -- policy registration hooks (called from RecoveryPolicy.attach) -----

    def register_loss_handler(self, handler: Callable[[TagMac], bool]) -> None:
        self._dispatch.loss_handlers.append(handler)

    def register_power_cycle_handler(self, handler: Callable[[TagMac], None]) -> None:
        self._dispatch.power_cycle_handlers.append(handler)

    def log_action(self, action: PolicyAction) -> None:
        self.actions.append(action)
        tel = telemetry.active()
        if tel is not None:
            tel.inc("resilience.policy_actions", policy=action.policy)

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Remove every tag-side hook and unbind the policies; the
        network then behaves exactly as if it was never supervised."""
        for tag in self.network.tags.values():
            if tag.recovery is self._dispatch:
                tag.attach_recovery(None)
        for policy in self.policies:
            policy.detach()

    # -- stepping ----------------------------------------------------------

    def step(self) -> SlotRecord:
        """Advance the supervised network by one slot."""
        self.monitor.snapshot_expectations()
        record = self.network.step()
        self.monitor.observe(record)
        for policy in self.policies:
            policy.on_slot(record)
        if self.check_invariants:
            self._enforce(record.slot, self.verify_invariants())
        return record

    def run(self, n_slots: int) -> List[SlotRecord]:
        """Run ``n_slots`` supervised slots, returning their records."""
        n_slots = slot_count(n_slots, "n_slots")
        start = len(self.network.records)
        for _ in range(n_slots):
            self.step()
        return self.network.records[start:]

    def run_until_converged(
        self, streak: int = 32, max_slots: int = 200_000
    ) -> Optional[int]:
        """Supervised analogue of
        :meth:`~repro.core.network.SlottedNetwork.run_until_converged`."""
        streak = slot_count(streak, "streak")
        max_slots = slot_count(max_slots, "max_slots")
        clean = 0
        for i in range(max_slots):
            record = self.step()
            clean = 0 if record.collision_detected else clean + 1
            if clean >= streak:
                return i + 1
        return None

    # -- invariants --------------------------------------------------------

    def verify_invariants(self) -> List[InvariantViolation]:
        """Check the structural MAC invariants; [] when healthy."""
        violations: List[InvariantViolation] = []
        reader = self.network.reader
        slot = reader.slot_index - 1
        # Raw (period, offset) pairs: building validated Assignments
        # would raise on the very corruption this check reports.
        committed = reader.committed_offsets()
        periods = reader.tag_periods
        for tag, offset in committed.items():
            period = periods[tag]
            if not 0 <= offset < period:
                violations.append(
                    InvariantViolation(
                        slot,
                        "offset_range",
                        f"{tag} committed at offset {offset} outside "
                        f"[0, {period})",
                    )
                )
        if reader.enable_future_avoidance:
            if committed != self._scanned_ledger:
                pairs = sorted((t, periods[t], o) for t, o in committed.items())
                self._double_booked = [
                    f"{a}({pa},{oa}) conflicts with {b}({pb},{ob})"
                    for (a, pa, oa), (b, pb, ob) in itertools.combinations(pairs, 2)
                    if offsets_conflict(pa, oa, pb, ob)
                ]
                self._scanned_ledger = committed
            for detail in self._double_booked:
                violations.append(InvariantViolation(slot, "double_booked", detail))
        stale = reader.evicting() - committed.keys()
        if stale:
            violations.append(
                InvariantViolation(
                    slot,
                    "stale_eviction",
                    f"eviction ledger holds uncommitted tags {sorted(stale)}",
                )
            )
        for name, tag in self.network.tags.items():
            machine = tag.machine
            if not 0 <= machine.offset < machine.period:
                violations.append(
                    InvariantViolation(
                        slot,
                        "tag_offset_range",
                        f"{name} holds offset {machine.offset} outside "
                        f"[0, {machine.period})",
                    )
                )
        return violations

    # -- escalation --------------------------------------------------------

    def _enforce(self, slot: int, violations: Sequence[InvariantViolation]) -> None:
        if not violations:
            self._violation_streak = 0
            self._restarted_this_episode = False
            return
        self.violations.extend(violations)
        tel = telemetry.active()
        if tel is not None:
            for violation in violations:
                tel.inc("resilience.violations", check=violation.check)
        handled = False
        for violation in violations:
            for policy in self.policies:
                if policy.on_invariant_violation(violation):
                    handled = True
        if handled and not self.verify_invariants():
            # A policy repaired the state in-line; episode over.
            self._violation_streak = 0
            self._restarted_this_episode = False
            return
        self._violation_streak += 1
        if (
            self._violation_streak >= self.policy_grace
            and not self._restarted_this_episode
        ):
            self.network.reader.restart()
            self._restarted_this_episode = True
            if tel is not None:
                tel.inc("resilience.escalations", level="restart")
            self.escalations.append(
                EscalationEvent(
                    slot,
                    "restart",
                    f"{self._violation_streak} consecutive violating slots; "
                    f"first: {violations[0].check}",
                )
            )
            return
        if self._violation_streak >= self.policy_grace + self.restart_grace:
            if self._hard_resets >= self.max_hard_resets:
                raise EscalationExhausted(
                    f"invariants still failing at slot {slot} after "
                    f"{self._hard_resets} hard resets; latest: "
                    f"{violations[0].check} ({violations[0].detail})"
                )
            self.network.reset()
            self._hard_resets += 1
            self._violation_streak = 0
            self._restarted_this_episode = False
            if tel is not None:
                tel.inc("resilience.escalations", level="hard_reset")
            self.escalations.append(
                EscalationEvent(
                    slot,
                    "hard_reset",
                    f"restart did not clear {violations[0].check}; "
                    f"RESET broadcast {self._hard_resets}/{self.max_hard_resets}",
                )
            )

    # -- reporting ---------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """JSON-able run summary: health, actions, violations, ladder."""
        return {
            "health": self.monitor.report(),
            "actions": [a.to_jsonable() for a in self.actions],
            "violations": [v.to_jsonable() for v in self.violations],
            "escalations": [e.to_jsonable() for e in self.escalations],
            "hard_resets": self._hard_resets,
            "policies": [p.name for p in self.policies],
        }
