"""Relay extension of the slot MAC.

:class:`RelayReaderMac` adds *granted forwarding slots* to the base
reader: for each engaged relay route the reader reserves one
conflict-free slot pattern (the source's period) in which the route's
terminal relay forwards buffered frames.  The reservation participates
in newcomer placement, the EMPTY prediction, and eviction viability
exactly like a commitment — but it is not one: the source does not own
the slot, grants are never eviction victims, and a decode in the grant
slot is acknowledged without committing the source.

The extension is strictly additive.  With no grants outstanding every
override reduces to the base-class behaviour on the same state, so a
relay-capable reader with relaying off produces byte-identical slot
logs to :class:`repro.core.ReaderMac` — the zero-cost-when-off contract
the differential tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.reader_protocol import ReaderMac
from repro.core.slot_schedule import Assignment, find_free_offset

#: Every ``probe_every``-th transmission of an engaged source goes
#: directly to the reader instead of into the chain, so recovery of the
#: direct link is observable (the fallback policy releases on a probe
#: decode).
DEFAULT_PROBE_EVERY = 8

#: Forwarding attempts per buffered frame before the route drops it.
DEFAULT_MAX_FORWARD_ATTEMPTS = 3


@dataclass
class RelayRoute:
    """Mutable state of one engaged relay route."""

    source: str
    chain: Tuple[str, ...]
    period: int
    grant_offset: int
    engaged_slot: int
    probe_every: int = DEFAULT_PROBE_EVERY
    max_forward_attempts: int = DEFAULT_MAX_FORWARD_ATTEMPTS
    # One frame in flight per route: the source's latest buffered frame
    # and how far along the chain it has travelled.
    buffered: bool = False
    buffer_position: int = 0
    buffered_slot: int = 0
    forward_attempts: int = 0
    # Consecutive forwarding failures since the last delivery — the
    # fallback policy's re-route trigger.
    failed_streak: int = 0
    last_failed_relay: Optional[str] = None
    tx_count: int = 0
    delivered: int = 0
    dropped: int = 0
    first_delivery_slot: Optional[int] = None

    @property
    def hops(self) -> int:
        """Total hops: T2T hops along the chain plus the final uplink."""
        return len(self.chain) + 1

    @property
    def terminal(self) -> str:
        """The relay that uplinks to the reader in the granted slot."""
        return self.chain[-1]


class RelayReaderMac(ReaderMac):
    """Reader protocol engine with granted forwarding slots."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._forward_grants: Dict[str, Assignment] = {}

    # -- grant management ---------------------------------------------------

    @property
    def forward_grants(self) -> Dict[str, Assignment]:
        """Granted forwarding reservations, keyed by relay source."""
        return dict(self._forward_grants)

    def grant_forwarding(self, source: str) -> Optional[int]:
        """Reserve a conflict-free forwarding slot for ``source``'s
        route, at the source's own period.  Returns the granted offset,
        or None when no viable pattern exists (the schedule is full).
        """
        period = self.tag_periods.get(source)
        if period is None:
            raise KeyError(f"tag {source!r} is not provisioned")
        if source in self._forward_grants:
            raise ValueError(f"{source!r} already holds a forwarding grant")
        offset = find_free_offset(period, self._placement_constraints())
        if offset is None:
            return None
        self._forward_grants[source] = Assignment(
            f"relay:{source}", period, offset
        )
        # Install the grant-aware seams here, not in __init__: a reader
        # that never grants runs the base seams, with no wrapper frame
        # per slot (the bench_smoke relay-off gate) and no bound method
        # of itself in its own __dict__ (a reference cycle).
        self._compute_empty_flag = self._grant_aware_empty_flag
        self._decide_ack = self._grant_aware_ack
        return offset

    def release_forwarding(self, source: str) -> bool:
        """Drop ``source``'s forwarding reservation, freeing the slot
        pattern for ordinary placement.  Returns True when one existed."""
        return self._forward_grants.pop(source, None) is not None

    def _grant_slot_source(self, slot: int) -> Optional[str]:
        """The route source whose granted slot this is, if any.  Grants
        are mutually conflict-free, so at most one matches."""
        for source in sorted(self._forward_grants):
            grant = self._forward_grants[source]
            if slot % grant.period == grant.offset:
                return source
        return None

    # -- base-class seams ---------------------------------------------------

    def _placement_constraints(self) -> List[Assignment]:
        others = super()._placement_constraints()
        others.extend(
            self._forward_grants[s] for s in sorted(self._forward_grants)
        )
        return others

    def _grant_aware_empty_flag(self, slot: int) -> bool:
        """:meth:`_compute_empty_flag` that keeps granted slots
        non-EMPTY (installed by :meth:`grant_forwarding`)."""
        empty = super()._compute_empty_flag(slot)
        if empty and self._forward_grants and self.enable_empty_flag:
            # A granted slot is reserved even when no frame is buffered:
            # EMPTY-gated late arrivals must not be lured into it.
            if self._grant_slot_source(slot) is not None:
                return False
        return empty

    def _grant_aware_ack(self, tag: str, slot: int) -> bool:
        """:meth:`_decide_ack` that ACKs relayed traffic in its granted
        slot (installed by :meth:`grant_forwarding`)."""
        if self._forward_grants and self._grant_slot_source(slot) == tag:
            # Relayed traffic: the terminal relay forwarded a frame of
            # ``tag`` (the route source) in its granted slot.  ACK the
            # delivery without committing — the source does not hold
            # this slot, its direct link is the one that died.
            self._appeared.add(tag)
            return True
        # Everything else — including a direct *probe* decode of an
        # engaged source, which takes the normal placement path and may
        # re-commit it — follows the base policy.
        return super()._decide_ack(tag, slot)

    def _apply_reset(self) -> None:
        super()._apply_reset()
        # A reader reboot loses the grant table like all soft state;
        # the network layer notices and self-releases the routes.
        self._forward_grants.clear()
