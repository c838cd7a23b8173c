"""Test oracle for fleet scorecards.

``FleetEngine.summary`` reduces slot-log columns; the scorecard it must
equal is the plain tally over a sequential network's ``SlotRecord``s
plus that network's own ``settled_fraction()``.  Nothing in ``src/``
imports this module.

Import it as ``from fleet.oracles import ...`` (``tests/`` is on the
test path).
"""

from __future__ import annotations

from typing import Dict


def summary_from_records(name: str, net) -> Dict[str, object]:
    """The scorecard of sequential network ``net``, tallied record by
    record."""
    records = net.records
    return {
        "network": name,
        "slots": len(records),
        "decodes": sum(1 for r in records if r.decoded is not None),
        "acks": sum(1 for r in records if r.acked),
        "collisions": sum(1 for r in records if r.collision_detected),
        "idle_slots": sum(1 for r in records if r.n_transmitters == 0),
        "settled_fraction": net.settled_fraction(),
    }
