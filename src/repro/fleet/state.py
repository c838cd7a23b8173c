"""Structure-of-arrays state for a fleet of slot-tier networks.

One fleet holds N independent deployments of the same BiW scenario —
identical tag roster, periods, activation map, channel, and protocol
config, differing only in their RNG seed.  All hot per-(network, tag)
protocol state lives in stacked numpy arrays indexed ``[network,
tid]``, with the tag axis in the same sorted-name order the sequential
simulator assigns tids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sim.random import as_index


@dataclass(frozen=True)
class FleetSpec:
    """One network's name and seed within a fleet.

    The name must be a non-empty string, and the seed an integer (a
    fractional or bool seed would alias another network's).
    """

    name: str
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "seed", as_index(self.seed, "seed"))


def specs_for_seeds(seeds, prefix: str = "net") -> list:
    """Convenience: one :class:`FleetSpec` per seed, named
    ``<prefix><index>`` in the given order."""
    return [FleetSpec(name=f"{prefix}{i}", seed=s) for i, s in enumerate(seeds)]


@dataclass
class TagArrays:
    """Stacked tag-MAC state, one row per network.

    Mirrors :class:`~repro.core.tag_protocol.TagMac` plus its embedded
    :class:`~repro.core.state_machine.TagStateMachine` field-for-field;
    ``settled`` encodes the two-state machine (True = SETTLE).
    """

    offset: np.ndarray
    slot_counter: np.ndarray
    settled: np.ndarray
    nack_count: np.ndarray
    transmitted_last: np.ndarray
    ever_settled: np.ndarray
    late_arrival: np.ndarray
    beacons_received: np.ndarray
    beacons_missed: np.ndarray
    consecutive_losses: np.ndarray
    transmissions: np.ndarray
    migrations: np.ndarray
    settles: np.ndarray
    power_cycles: np.ndarray

    @classmethod
    def allocate(cls, n_networks: int, n_tags: int) -> "TagArrays":
        shape = (n_networks, n_tags)
        ints = dict(dtype=np.int64)
        return cls(
            offset=np.zeros(shape, **ints),
            slot_counter=np.zeros(shape, **ints),
            settled=np.zeros(shape, dtype=bool),
            nack_count=np.zeros(shape, **ints),
            transmitted_last=np.zeros(shape, dtype=bool),
            ever_settled=np.zeros(shape, dtype=bool),
            late_arrival=np.zeros(shape, dtype=bool),
            beacons_received=np.zeros(shape, **ints),
            beacons_missed=np.zeros(shape, **ints),
            consecutive_losses=np.zeros(shape, **ints),
            transmissions=np.zeros(shape, **ints),
            migrations=np.zeros(shape, **ints),
            settles=np.zeros(shape, **ints),
            power_cycles=np.zeros(shape, **ints),
        )


class SlotLog:
    """Columnar per-slot log of a fleet.

    One row per slot, one column per network, append-only.
    Each field reads back as a read-only ``(slots, N)`` array, so a
    per-network tally is one column reduction; the engine materialises
    the sequential tier's :class:`~repro.core.reader_protocol.SlotRecord`
    lists from the same columns on demand (the differential suite
    compares those lists byte-for-byte against N sequential runs).

    Storage is one ``(capacity, N)`` array per field, doubled when full,
    so appending a slot copies its rows in amortised O(N); a caller that
    knows how many slots it will log sizes the columns once with
    :meth:`reserve`.
    """

    FIELDS = (
        ("n_transmitters", np.int64),
        ("decoded_tid", np.int64),
        ("collision", bool),
        ("acked", bool),
        ("empty_flag", bool),
    )
    INITIAL_CAPACITY = 64

    def __init__(self, n_networks: int) -> None:
        self._len = 0
        #: Bumped whenever growth replaces the columns.
        self.generation = 0
        self._columns = {
            name: np.zeros((self.INITIAL_CAPACITY, n_networks), dtype=dtype)
            for name, dtype in self.FIELDS
        }

    def open_rows(self) -> Tuple[int, int]:
        """``(row, free)``: the next row to write in place and the rows
        free from it on (their fields read 0 until written).  When none
        is free the columns first double.  Growing replaces them, so
        :meth:`buffers` move whenever :attr:`generation` changes."""
        capacity = len(self._columns["n_transmitters"])
        if self._len == capacity:
            for name, column in self._columns.items():
                self._columns[name] = np.concatenate((column, np.zeros_like(column)))
            self.generation += 1
            capacity *= 2
        return self._len, capacity - self._len

    def close_rows(self, count: int) -> None:
        """Log the next ``count`` rows, written in place."""
        self._len += count

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more rows at once, so that logging
        them never grows the columns (a copy of each at every
        doubling).  Growing here bumps :attr:`generation` too."""
        needed = self._len + rows
        if needed > len(self._columns["n_transmitters"]):
            for name, column in self._columns.items():
                grown = np.zeros((needed, column.shape[1]), dtype=column.dtype)
                grown[: self._len] = column[: self._len]
                self._columns[name] = grown
            self.generation += 1

    def claim_row(self) -> int:
        """Open the next row for writing in place and return its index."""
        row, _ = self.open_rows()
        self.close_rows(1)
        return row

    def buffers(self) -> tuple:
        """The writable ``(capacity, N)`` columns, in :attr:`FIELDS` order."""
        return tuple(self._columns[name] for name, _ in self.FIELDS)

    def append_slot(
        self,
        n_transmitters: np.ndarray,
        decoded_tid: np.ndarray,
        collision: np.ndarray,
        acked: np.ndarray,
        empty_flag: np.ndarray,
    ) -> None:
        row = self.claim_row()
        values = (n_transmitters, decoded_tid, collision, acked, empty_flag)
        for column, value in zip(self.buffers(), values):
            column[row] = value

    def _view(self, name: str) -> np.ndarray:
        view = self._columns[name][: self._len]
        view.flags.writeable = False
        return view

    @property
    def n_transmitters(self) -> np.ndarray:
        return self._view("n_transmitters")

    @property
    def decoded_tid(self) -> np.ndarray:
        return self._view("decoded_tid")

    @property
    def collision(self) -> np.ndarray:
        return self._view("collision")

    @property
    def acked(self) -> np.ndarray:
        return self._view("acked")

    @property
    def empty_flag(self) -> np.ndarray:
        return self._view("empty_flag")

    def __len__(self) -> int:
        return self._len
