"""Batched reader MAC: N readers advanced one slot per vectorised call.

Mirrors :class:`~repro.core.reader_protocol.ReaderMac` state for state:
commitments and the eviction ledger become ``(N, T)`` integer arrays
(-1 = absent), and the per-slot activity history behind the EMPTY flag
becomes three ``(N, H)`` ring buffers with ``H = 2 * max(period)`` —
exactly the window the sequential reader's bounded dict retains.

The per-slot work splits into a vectorised common path and a scalar
escape:

* EMPTY-flag composition, history upkeep, commitment expiry on silent
  scheduled slots, and the settled-tag-in-its-usual-slot ACK are pure
  masked array ops;
* placement attempts, future-collision viability checks, and eviction
  bookkeeping (rare once a network converges) drop to a per-network
  scalar mirror of ``ReaderMac._decide_ack`` built on the same
  :mod:`repro.core.slot_schedule` predicates, so the decision logic
  cannot drift from the sequential implementation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.slot_schedule import (
    Assignment,
    find_free_offset,
    free_offsets,
    validate_period,
)


class BatchReader:
    """Reader protocol engine over N stacked networks."""

    def __init__(
        self,
        n_networks: int,
        tag_names: Sequence[str],
        periods: Sequence[int],
        nack_threshold: int,
        enable_empty_flag: bool = True,
        enable_future_avoidance: bool = True,
    ) -> None:
        for period in periods:
            validate_period(period)
        self.n_networks = n_networks
        self.n_tags = len(tag_names)
        self._names: List[str] = list(tag_names)
        self._periods_list: List[int] = [int(p) for p in periods]
        self._periods = np.asarray(self._periods_list, dtype=np.int64)
        self._distinct_periods = sorted(set(self._periods_list))
        self._tid_by_name: Dict[str, int] = {n: i for i, n in enumerate(self._names)}
        self.nack_threshold = nack_threshold
        self.enable_empty_flag = enable_empty_flag
        self.enable_future_avoidance = enable_future_avoidance

        # Updated in place, never rebound: the compiled fleet step holds
        # pointers to every array here.
        self.pending_ack = np.zeros(n_networks, dtype=bool)
        self.pending_reset = np.zeros(n_networks, dtype=bool)
        self.last_empty = np.ones(n_networks, dtype=bool)
        self.appeared = np.zeros((n_networks, self.n_tags), dtype=bool)
        #: Committed ground-truth offset per (network, tag); -1 = none.
        self.committed = np.full((n_networks, self.n_tags), -1, dtype=np.int64)
        #: Forced-NACK count per in-flight eviction; -1 = not evicting.
        self.evicting = np.full((n_networks, self.n_tags), -1, dtype=np.int64)

        self._history = 2 * max(self._periods_list)
        self._ring_decoded = np.full(
            (n_networks, self._history), -1, dtype=np.int64
        )
        self._ring_collision = np.zeros((n_networks, self._history), dtype=bool)
        self._ring_activity = np.zeros((n_networks, self._history), dtype=bool)

        # Per-slot telemetry tallies (reset by the engine each slot).
        self.commits_this_slot = 0
        self.evictions_this_slot = 0

    # -- beacon composition -------------------------------------------------

    def request_reset(self, mask: np.ndarray) -> None:
        """Queue a RESET into the next beacon of the selected networks."""
        self.pending_reset |= mask

    def compute_empty(self, slot: int) -> np.ndarray:
        """Vectorised Eq. 4 with per-tag attribution, over all networks."""
        if not self.enable_empty_flag:
            return np.ones(self.n_networks, dtype=bool)
        busy = np.zeros(self.n_networks, dtype=bool)
        for tid, period in enumerate(self._periods_list):
            back = slot - period
            if back >= 0:
                busy |= self._ring_decoded[:, back % self._history] == tid
        for period in self._distinct_periods:
            back = slot - period
            if back >= 0:
                busy |= self._ring_collision[:, back % self._history]
        return ~busy

    def make_beacon(
        self, slot: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compose every network's beacon for ``slot``.

        Returns ``(ack, empty, reset)`` row vectors; RESET rows have
        their learned state wiped afterwards, exactly like the
        sequential ``make_beacon`` -> ``_apply_reset`` sequence (the
        outgoing beacon still carries the pre-reset ACK).
        """
        empty = self.compute_empty(slot)
        np.copyto(self.last_empty, empty)
        ack = self.pending_ack.copy()
        reset = self.pending_reset.copy()
        if reset.any():
            self.pending_reset &= ~reset
            self.pending_ack &= ~reset
            self.appeared[reset] = False
            self.committed[reset] = -1
            self.evicting[reset] = -1
            self._ring_decoded[reset] = -1
            self._ring_collision[reset] = False
            self._ring_activity[reset] = False
        return ack, empty, reset

    # -- slot outcome processing --------------------------------------------

    def digest(
        self,
        slot: int,
        decoded_tid: np.ndarray,
        collision: np.ndarray,
    ) -> np.ndarray:
        """Digest every network's receive-chain verdict for ``slot``.

        ``decoded_tid`` holds the decoded tag's tid or -1; returns the
        ACK row that will ride the next beacon.
        """
        self.commits_this_slot = 0
        self.evictions_this_slot = 0
        pos = slot % self._history
        occupied = (decoded_tid >= 0) | collision
        # Writing all three columns every slot both records this slot
        # and evicts the slot - 2*max(period) entry the sequential
        # reader pops explicitly.
        self._ring_activity[:, pos] = occupied
        self._ring_decoded[:, pos] = decoded_tid
        self._ring_collision[:, pos] = collision

        # A committed tag's scheduled slot passed silently: expire the
        # commitment (and any eviction ledger entry) so the viability
        # check does not hold a phantom slot against newcomers.
        silent = ~occupied
        if silent.any():
            for tid, period in enumerate(self._periods_list):
                expired = (
                    silent
                    & (self.committed[:, tid] >= 0)
                    & (self.committed[:, tid] == slot % period)
                )
                if expired.any():
                    self.committed[expired, tid] = -1
                    self.evicting[expired, tid] = -1

        ack = np.zeros(self.n_networks, dtype=bool)
        clean = (decoded_tid >= 0) & ~collision
        if clean.any():
            rows = np.nonzero(clean)[0]
            tids = decoded_tid[rows]
            self.appeared[rows, tids] = True
            offsets = slot % self._periods[tids]
            # Fast path: a settled tag decoded in its usual slot — the
            # steady-state common case — needs no placement logic.
            fast = (self.evicting[rows, tids] < 0) & (
                self.committed[rows, tids] == offsets
            )
            ack[rows[fast]] = True
            for n, d in zip(rows[~fast], tids[~fast]):
                ack[n] = self._decide_ack_scalar(int(n), int(d), slot)
        np.copyto(self.pending_ack, ack)
        return ack

    # -- scalar escape: placement, viability, eviction ----------------------

    def _assignments(self, n: int, exclude: int) -> List[Assignment]:
        """The network's committed assignments, minus tag ``exclude``."""
        return [
            Assignment(self._names[t], self._periods_list[t], int(off))
            for t, off in enumerate(self.committed[n])
            if off >= 0 and t != exclude
        ]

    def _decide_ack_scalar(self, n: int, d: int, slot: int) -> bool:
        """Line-for-line mirror of ``ReaderMac._decide_ack`` on row ``n``
        (every tag in a fleet is provisioned, so the unprovisioned-tag
        arm does not exist here)."""
        period = self._periods_list[d]
        offset = slot % period

        if self.evicting[n, d] >= 0:
            old = int(self.committed[n, d])
            if old >= 0 and offset == old:
                self.evicting[n, d] += 1
                if self.evicting[n, d] >= self.nack_threshold:
                    self.evicting[n, d] = -1
                    self.committed[n, d] = -1
                return False
            self.evicting[n, d] = -1
            self.committed[n, d] = -1

        if self.committed[n, d] == offset:
            return True
        self.committed[n, d] = -1
        if not self.enable_future_avoidance:
            self.committed[n, d] = offset
            self.commits_this_slot += 1
            return True
        others = self._assignments(n, exclude=d)
        free = free_offsets(period, others)
        if 1 not in free:
            self._start_eviction_scalar(n, period, others)
            return False
        if not free[offset]:
            return False
        self.committed[n, d] = offset
        self.commits_this_slot += 1
        return True

    def _start_eviction_scalar(
        self, n: int, new_period: int, committed: List[Assignment]
    ) -> None:
        """Mirror of ``ReaderMac._start_eviction`` on row ``n``."""
        for vt in np.nonzero(self.evicting[n] >= 0)[0]:
            vname = self._names[int(vt)]
            rest = [a for a in committed if a.tag != vname]
            if find_free_offset(new_period, rest) is not None:
                return
        candidates = []
        for victim in committed:
            if self.evicting[n, self._tid_by_name[victim.tag]] >= 0:
                continue
            rest = [a for a in committed if a.tag != victim.tag]
            if find_free_offset(new_period, rest) is not None:
                candidates.append(victim)
        if not candidates:
            return
        chosen = min(candidates, key=lambda a: (a.period, a.tag))
        self.evicting[n, self._tid_by_name[chosen.tag]] = 0
        self.evictions_this_slot += 1

    # -- queries ------------------------------------------------------------

    def committed_assignments(self, n: int) -> Dict[str, Assignment]:
        """Row ``n``'s committed assignments, keyed by tag name."""
        return {
            self._names[t]: Assignment(
                self._names[t], self._periods_list[t], int(off)
            )
            for t, off in enumerate(self.committed[n])
            if off >= 0
        }
