"""Per-tag link-health watchdog: windowed counters over the signals a
deployed reader can actually observe.

The monitor digests one :class:`~repro.core.reader_protocol.SlotRecord`
per slot and maintains, for every tag, a sliding window of outcomes:

* **acks / nacks** — the broadcast feedback the reader decided for this
  tag's clean decodes;
* **missed expected slots** — the tag held a committed assignment, its
  slot came up, and the tag was not decoded there (it browned out, lost
  the beacon, or its frame failed CRC);
* **decode failures** — a slot the tag was expected in carried activity
  that produced neither a decode nor a collision verdict (a single
  transmitter whose frame failed the CRC — the reader-visible shadow of
  PHY corruption).

Recovery policies consume the derived signals (``consecutive_missed``,
``ack_rate``); nothing here mutates protocol state, so attaching a
monitor to a running network is observation-only and replay-safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro import telemetry
from repro.core.reader_protocol import SlotRecord
from repro.sim.random import as_index

#: Default sliding-window length (slots) for the health counters.
DEFAULT_HEALTH_WINDOW = 64

#: Per-slot outcome codes recorded into a tag's window.
ACK, NACK, MISS, FAIL = "ack", "nack", "miss", "fail"


@dataclass
class TagHealth:
    """Sliding-window link health for one tag, as the reader sees it."""

    tag: str
    window: int = DEFAULT_HEALTH_WINDOW
    events: Deque[Tuple[int, str]] = field(default_factory=deque)
    #: Expected transmissions in a row with no decode of this tag; the
    #: slot-lease policy keys off this, so it is tracked exactly (not
    #: windowed) and reset by any decode.
    consecutive_missed: int = 0
    #: Total expected slots observed (lifetime, not windowed).
    expected_total: int = 0

    def record(self, slot: int, outcome: str) -> None:
        self.events.append((slot, outcome))
        while len(self.events) > self.window:
            self.events.popleft()

    def _count(self, outcome: str) -> int:
        return sum(1 for _, o in self.events if o == outcome)

    @property
    def acks(self) -> int:
        return self._count(ACK)

    @property
    def nacks(self) -> int:
        return self._count(NACK)

    @property
    def missed_expected(self) -> int:
        return self._count(MISS)

    @property
    def decode_failures(self) -> int:
        return self._count(FAIL)

    def ack_rate(self) -> Optional[float]:
        """ACKed fraction of this tag's windowed feedback events, or
        None when the window holds no feedback yet."""
        acked, nacked = self.acks, self.nacks
        total = acked + nacked
        return acked / total if total else None

    def miss_rate(self) -> Optional[float]:
        """Missed fraction of the windowed *expected* slots, or None
        when the tag held no commitment inside the window."""
        missed = self.missed_expected + self.decode_failures
        hit = sum(1 for _, o in self.events if o in (ACK, NACK))
        total = missed + hit
        return missed / total if total else None

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "tag": self.tag,
            "acks": self.acks,
            "nacks": self.nacks,
            "missed_expected": self.missed_expected,
            "decode_failures": self.decode_failures,
            "consecutive_missed": self.consecutive_missed,
            "ack_rate": self.ack_rate(),
            "miss_rate": self.miss_rate(),
        }


class LinkHealthMonitor:
    """Windowed link-health ledger over every tag in one network.

    ``observe`` must be called once per elapsed slot with that slot's
    record (the supervisor does this); commitments are snapshotted from
    the reader *before* the record is digested elsewhere, so "expected"
    means "committed when the slot opened".
    """

    def __init__(self, network, window: int = DEFAULT_HEALTH_WINDOW) -> None:
        window = as_index(window, "window")
        if window < 1:
            raise ValueError("health window must be >= 1 slot")
        self.network = network
        self.window = window
        self.tags: Dict[str, TagHealth] = {
            name: TagHealth(tag=name, window=window) for name in network.tags
        }
        #: Committed assignments snapshotted at the top of the pending
        #: slot (before the reader digests it).
        self._expected: Dict[str, int] = {}
        self._expected_slot: Optional[int] = None

    def snapshot_expectations(self) -> None:
        """Record which tags are scheduled in the upcoming slot.

        Called by the supervisor before ``network.step()`` so that a
        commitment *released by* the slot's own outcome still counts as
        an expectation for it.
        """
        reader = self.network.reader
        slot = reader.slot_index
        periods = reader.tag_periods
        self._expected = {
            tag: offset
            for tag, offset in reader.committed_offsets().items()
            if slot % periods[tag] == offset
        }
        self._expected_slot = slot

    def observe(self, record: SlotRecord) -> None:
        """Digest one elapsed slot's record into the per-tag windows."""
        if self._expected_slot != record.slot:
            # Stepped without a snapshot (direct network.step calls
            # interleaved): reconstruct expectations post-hoc from the
            # current ledger; commitments the slot itself released are
            # simply unseen in this degraded mode.
            reader = self.network.reader
            periods = reader.tag_periods
            self._expected = {
                tag: offset
                for tag, offset in reader.committed_offsets().items()
                if record.slot % periods[tag] == offset
            }
        decoded = record.decoded
        tel = telemetry.active()
        for tag in self.tags:
            health = self.tags[tag]
            if decoded == tag:
                health.consecutive_missed = 0
                outcome = ACK if record.acked else NACK
                health.record(record.slot, outcome)
                if tel is not None:
                    tel.inc(
                        "resilience.ack" if outcome is ACK else "resilience.nack",
                        tag=tag,
                    )
                continue
            if tag in self._expected:
                health.expected_total += 1
                health.consecutive_missed += 1
                failed = (
                    record.truly_nonempty
                    and decoded is None
                    and not record.collision_detected
                )
                health.record(record.slot, FAIL if failed else MISS)
                if tel is not None:
                    tel.inc(
                        "resilience.fail" if failed else "resilience.miss",
                        tag=tag,
                    )
        self._expected = {}
        self._expected_slot = None

    def health(self, tag: str) -> TagHealth:
        return self.tags[tag]

    def report(self) -> Dict[str, Dict[str, object]]:
        """JSON-able snapshot of every tag's windowed health."""
        return {name: h.to_jsonable() for name, h in sorted(self.tags.items())}
