"""Fault schedules: *what* goes wrong, *when*, and *to whom*.

A :class:`FaultSchedule` is an ordered, immutable list of
:class:`FaultEvent` records.  Schedules are plain data — they carry no
behaviour beyond validation, indexing, and serialisation — so the same
schedule replays byte-for-byte against any network, and a schedule can
round-trip through JSON for golden-trace regression files.

Random schedules come from :meth:`FaultSchedule.generate`, which draws
every field from a :class:`~repro.sim.random.RandomStreams` stream
derived from a single seed: two calls with the same arguments produce
identical schedules on any machine and under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.random import RandomStreams, as_index

#: Channel-layer faults (mutate the acoustic medium / link budgets).
CHANNEL_KINDS: Tuple[str, ...] = ("noise_burst", "attenuation", "junction_loss")

#: PHY-layer faults (corrupt frames and thresholds).
PHY_KINDS: Tuple[str, ...] = ("bit_flip", "crc_corrupt", "envelope_drift")

#: Hardware/energy faults (supercap and harvester failures).
HARDWARE_KINDS: Tuple[str, ...] = ("brownout", "harvester_collapse")

#: MAC-layer faults (the feedback loop itself).
MAC_KINDS: Tuple[str, ...] = ("beacon_loss", "ack_corrupt", "reader_restart")

#: Relay-tier faults (the tag-to-tag forwarding layer of
#: :mod:`repro.relay`; no-ops on networks without engaged routes).
RELAY_KINDS: Tuple[str, ...] = ("relay_brownout", "relay_table_stale")

#: Kinds :meth:`FaultSchedule.generate` draws from by default.  The
#: relay tier is excluded: adding kinds to the default pool would shift
#: every existing generated schedule's draw sequence, breaking seed
#: replay.  Pass ``kinds=RELAY_KINDS`` (or any mix) explicitly.
GENERATABLE_KINDS: Tuple[str, ...] = (
    CHANNEL_KINDS + PHY_KINDS + HARDWARE_KINDS + MAC_KINDS
)

ALL_KINDS: Tuple[str, ...] = GENERATABLE_KINDS + RELAY_KINDS

#: Wildcard target: the fault hits every tag (or the whole channel).
ALL_TAGS = "*"

#: Magnitude semantics per kind (documented here, enforced loosely —
#: injectors interpret the number).
#:
#: ==================  =====================================================
#: noise_burst         SNR penalty in dB applied to every uplink
#: attenuation         SNR penalty in dB on the target tag's uplink
#: junction_loss       extra dB added to every BiW joint crossing
#: bit_flip            number of data bits flipped per uplink frame
#: crc_corrupt         (unused) any decode of the target fails its CRC
#: envelope_drift      multiplier on the target's beacon-loss probability
#: brownout            (unused) tag dark for the window, cold restart after
#: harvester_collapse  (unused) tag receives but cannot afford to transmit
#: beacon_loss         (unused) target misses every beacon in the window
#: ack_corrupt         (unused) ACK bit inverted in the target's view
#: reader_restart      (unused) reader soft state cleared at event start
#: relay_brownout      (unused) relay tag dark mid-route, cold restart after
#: relay_table_stale   (unused) relay routes frozen: no engage/re-route
#: ==================  =====================================================
DEFAULT_MAGNITUDES: Dict[str, float] = {
    "noise_burst": 9.0,
    "attenuation": 15.0,
    "junction_loss": 2.0,
    "bit_flip": 2.0,
    "crc_corrupt": 1.0,
    "envelope_drift": 50.0,
    "brownout": 1.0,
    "harvester_collapse": 1.0,
    "beacon_loss": 1.0,
    "ack_corrupt": 1.0,
    "reader_restart": 1.0,
    "relay_brownout": 1.0,
    "relay_table_stale": 1.0,
}

#: Generation ranges for :meth:`FaultSchedule.generate`: kind ->
#: (low, high) magnitude drawn uniformly, or None for the fixed default.
_GENERATE_MAGNITUDE_RANGES: Dict[str, Optional[Tuple[float, float]]] = {
    "noise_burst": (3.0, 12.0),
    "attenuation": (6.0, 24.0),
    "junction_loss": (0.5, 4.0),
    "bit_flip": (1.0, 4.0),
    "crc_corrupt": None,
    "envelope_drift": (5.0, 200.0),
    "brownout": None,
    "harvester_collapse": None,
    "beacon_loss": None,
    "ack_corrupt": None,
    "reader_restart": None,
    "relay_brownout": None,
    "relay_table_stale": None,
}

_SCHEDULE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One fault: active for ``duration`` slots starting at ``slot``.

    ``target`` is a tag name, ``"reader"``, or :data:`ALL_TAGS`.
    ``fault_id`` gives the event a stable identity across replay and
    serialisation; the schedule assigns sequential ids when the caller
    leaves the default.
    """

    slot: int
    duration: int
    kind: str
    target: str = ALL_TAGS
    magnitude: Optional[float] = None
    fault_id: int = -1

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.slot < 0:
            raise ValueError("fault slot must be non-negative")
        if self.duration < 1:
            raise ValueError("fault duration must be >= 1 slot")
        if not self.target:
            raise ValueError("fault target must be non-empty")
        if self.magnitude is None:
            object.__setattr__(self, "magnitude", DEFAULT_MAGNITUDES[self.kind])
        if not math.isfinite(self.magnitude) or self.magnitude < 0:
            raise ValueError("fault magnitude must be finite and non-negative")
        if self.kind == "bit_flip" and int(self.magnitude) < 1:
            raise ValueError("bit_flip magnitude is a bit count and must be >= 1")

    @property
    def clear_slot(self) -> int:
        """First slot at which the fault is no longer active."""
        return self.slot + self.duration

    def active_at(self, slot: int) -> bool:
        return self.slot <= slot < self.clear_slot

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "slot": self.slot,
            "duration": self.duration,
            "kind": self.kind,
            "target": self.target,
            "magnitude": self.magnitude,
            "fault_id": self.fault_id,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            slot=int(data["slot"]),
            duration=int(data["duration"]),
            kind=str(data["kind"]),
            target=str(data["target"]),
            magnitude=float(data["magnitude"]),
            fault_id=int(data.get("fault_id", -1)),
        )


class FaultSchedule:
    """An immutable, slot-ordered collection of :class:`FaultEvent`.

    Events are sorted by ``(slot, fault_id)``; events whose ``fault_id``
    is the default ``-1`` get sequential ids in input order, so a
    schedule built twice from the same literals is identical — the
    property the golden-trace and replay tests rely on.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        assigned: List[FaultEvent] = []
        next_id = 0
        taken = {e.fault_id for e in events if isinstance(e, FaultEvent)}
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(event).__name__}")
            if event.fault_id < 0:
                while next_id in taken:
                    next_id += 1
                event = FaultEvent(
                    slot=event.slot,
                    duration=event.duration,
                    kind=event.kind,
                    target=event.target,
                    magnitude=event.magnitude,
                    fault_id=next_id,
                )
                taken.add(next_id)
            assigned.append(event)
        ids = [e.fault_id for e in assigned]
        if len(ids) != len(set(ids)):
            raise ValueError("fault_id values must be unique within a schedule")
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(assigned, key=lambda e: (e.slot, e.fault_id))
        )

    # -- queries ----------------------------------------------------------

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct kinds present, in first-appearance order."""
        seen: Dict[str, None] = {}
        for e in self._events:
            seen.setdefault(e.kind, None)
        return tuple(seen)

    def active_at(self, slot: int) -> List[FaultEvent]:
        return [e for e in self._events if e.active_at(slot)]

    @property
    def last_clear_slot(self) -> int:
        """First slot at which *no* fault is active any more (0 for an
        empty schedule)."""
        return max((e.clear_slot for e in self._events), default=0)

    def shifted(self, delta_slots: int) -> "FaultSchedule":
        """A copy with every event moved ``delta_slots`` later."""
        return FaultSchedule(
            [
                FaultEvent(
                    slot=e.slot + delta_slots,
                    duration=e.duration,
                    kind=e.kind,
                    target=e.target,
                    magnitude=e.magnitude,
                    fault_id=e.fault_id,
                )
                for e in self._events
            ]
        )

    # -- serialisation ----------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "version": _SCHEDULE_FORMAT_VERSION,
            "events": [e.to_jsonable() for e in self._events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "FaultSchedule":
        version = data.get("version", _SCHEDULE_FORMAT_VERSION)
        if version != _SCHEDULE_FORMAT_VERSION:
            raise ValueError(f"unsupported schedule format version {version!r}")
        return cls([FaultEvent.from_jsonable(e) for e in data["events"]])

    def canonical_bytes(self) -> bytes:
        """Canonical JSON encoding — identical bytes for identical
        schedules regardless of platform or hash seed."""
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def signature(self) -> str:
        """SHA-256 of the canonical encoding: the replay identity."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- generation -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        n_slots: int,
        tags: Sequence[str],
        kinds: Optional[Sequence[str]] = None,
        n_faults: int = 6,
        max_duration: int = 8,
        start_slot: int = 0,
    ) -> "FaultSchedule":
        """A random-but-reproducible schedule.

        Every draw comes from one named stream of
        :class:`~repro.sim.random.RandomStreams`, so ``generate(s, ...)``
        is a pure function of its arguments.  ``seed`` and the four
        counts must be integers: a float or a bool would truncate into
        another schedule.
        """
        seed = as_index(seed, "seed")
        n_slots = as_index(n_slots, "n_slots")
        n_faults = as_index(n_faults, "n_faults")
        max_duration = as_index(max_duration, "max_duration")
        start_slot = as_index(start_slot, "start_slot")
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if not 0 <= start_slot < n_slots:
            raise ValueError("start_slot must lie in [0, n_slots)")
        if max_duration < 1:
            raise ValueError("max_duration must be >= 1")
        if n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        chosen_kinds = tuple(kinds) if kinds is not None else GENERATABLE_KINDS
        for kind in chosen_kinds:
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        tag_list = list(tags)
        if not tag_list and any(
            k
            not in (
                "noise_burst",
                "junction_loss",
                "reader_restart",
                "relay_table_stale",
            )
            for k in chosen_kinds
        ):
            raise ValueError("tag-targeted kinds need a non-empty tag list")

        rng = RandomStreams(seed).stream("faults.schedule")
        events: List[FaultEvent] = []
        for fault_id in range(n_faults):
            kind = chosen_kinds[int(rng.integers(0, len(chosen_kinds)))]
            slot = int(rng.integers(start_slot, n_slots))
            duration = int(rng.integers(1, max_duration + 1))
            if kind == "reader_restart":
                target = "reader"
                duration = 1
            elif kind in ("noise_burst", "junction_loss", "relay_table_stale"):
                target = ALL_TAGS
            else:
                target = tag_list[int(rng.integers(0, len(tag_list)))]
            bounds = _GENERATE_MAGNITUDE_RANGES[kind]
            if bounds is None:
                magnitude = DEFAULT_MAGNITUDES[kind]
            else:
                magnitude = float(rng.uniform(*bounds))
            if kind == "bit_flip":
                magnitude = float(max(1, int(magnitude)))
            events.append(
                FaultEvent(
                    slot=slot,
                    duration=duration,
                    kind=kind,
                    target=target,
                    magnitude=magnitude,
                    fault_id=fault_id,
                )
            )
        return cls(events)
