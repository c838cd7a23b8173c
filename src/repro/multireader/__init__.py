"""Multi-reader operation with frequency-space interference avoidance.

The paper's deployment is single-reader.  This subsystem scales the
reader side the way Trident scales RFID: several readers inject
distinct carriers into one BiW simultaneously, a planner colors the
reader-conflict graph with the plate's usable resonant modes, and
overlap-zone tags hand off between readers when their home link
degrades.

* :mod:`~repro.multireader.deployment` — reader geometry: placements,
  per-tag association, overlap zones, figT spacing presets.
* :mod:`~repro.multireader.planner` — the carrier-allocation planner
  (conflict graph + Welsh–Powell coloring, deterministic in the
  deployment hash).
* :mod:`~repro.multireader.network` — lockstep frequency-division
  cells over real :class:`~repro.core.network.SlottedNetwork`
  instances, with LinkHealthMonitor-driven handoff.
* :mod:`~repro.multireader.fdma` — the per-tag FDMA extension the
  planner generalises.
* :mod:`~repro.multireader.faults` — reader-tier fault injection
  (carrier drift, stale planner).

With one reader everything here is provably inert: slot logs are
byte-identical to a plain ``SlottedNetwork`` run.
"""

from repro.multireader.deployment import (
    DEFAULT_SECOND_READER,
    OVERLAP_MARGIN_DB,
    READER_SPACING_PRESETS,
    MultiReaderDeployment,
    ReaderPlacement,
    deployment_for,
)
from repro.multireader.faults import (
    MULTIREADER_FAULT_KINDS,
    MultiReaderFaultController,
    MultiReaderFaultEvent,
    MultiReaderFaultSchedule,
)
from repro.multireader.fdma import (
    FdmaChannelPlan,
    FdmaNetwork,
    assign_channels,
)
from repro.multireader.network import (
    HANDOFF_COOLDOWN_SLOTS,
    HANDOFF_MISS_THRESHOLD,
    MultiReaderNetwork,
)
from repro.multireader.planner import (
    MIN_TAG_SIR_DB,
    CarrierPlan,
    build_conflict_graph,
    cochannel_sir_db,
    default_carriers,
    deployment_hash,
    plan_carriers,
)

__all__ = [
    "DEFAULT_SECOND_READER",
    "OVERLAP_MARGIN_DB",
    "READER_SPACING_PRESETS",
    "MultiReaderDeployment",
    "ReaderPlacement",
    "deployment_for",
    "MULTIREADER_FAULT_KINDS",
    "MultiReaderFaultController",
    "MultiReaderFaultEvent",
    "MultiReaderFaultSchedule",
    "FdmaChannelPlan",
    "FdmaNetwork",
    "assign_channels",
    "HANDOFF_COOLDOWN_SLOTS",
    "HANDOFF_MISS_THRESHOLD",
    "MultiReaderNetwork",
    "MIN_TAG_SIR_DB",
    "CarrierPlan",
    "build_conflict_graph",
    "cochannel_sir_db",
    "default_carriers",
    "deployment_hash",
    "plan_carriers",
]
