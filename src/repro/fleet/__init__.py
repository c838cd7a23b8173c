"""Batched fleet-scale slot engine.

Steps N independent plain slot-tier networks — "a factory line of
BiWs" — one slot or many per vectorised call, with per-network slot
logs byte-identical to N sequential
:class:`~repro.core.network.SlottedNetwork` runs under the same seeds.
Faulted and supervised networks run on their own, as a
``SlottedNetwork`` or under a ``NetworkSupervisor``.  See
docs/FLEET.md for the architecture, the structure-of-arrays layout,
and the determinism contract.
"""

from repro.fleet.engine import FleetEngine
from repro.fleet.reader import BatchReader
from repro.fleet.rng import OFFSET_BLOCK, UNIFORM_BLOCK, OffsetBank, UniformBank
from repro.fleet.state import FleetSpec, SlotLog, TagArrays, specs_for_seeds

__all__ = [
    "FleetEngine",
    "FleetSpec",
    "specs_for_seeds",
    "BatchReader",
    "TagArrays",
    "SlotLog",
    "UniformBank",
    "OffsetBank",
    "UNIFORM_BLOCK",
    "OFFSET_BLOCK",
]
