"""The paper's contribution: distributed slot allocation MAC."""

from repro.core.energy_network import EnergyAwareNetwork, TagEnergyLog
from repro.core.network import (
    DEFAULT_SLOT_DURATION_S,
    NetworkConfig,
    SlottedNetwork,
)
from repro.core.realtime import RealtimeNetwork
from repro.core.waveform_network import WaveformNetwork, WaveformSlotLog
from repro.core.reader_protocol import ReaderMac, SlotRecord
from repro.core.slot_schedule import (
    Assignment,
    ScheduleError,
    assign_offsets,
    count_collision_slots,
    find_free_offset,
    free_offsets,
    is_permissible_period,
    offsets_conflict,
    schedule_table,
    slot_utilization,
    validate_period,
)
from repro.core.state_machine import (
    DEFAULT_NACK_THRESHOLD,
    TagState,
    TagStateMachine,
)
from repro.core.tag_protocol import TagMac

__all__ = [
    "DEFAULT_SLOT_DURATION_S",
    "EnergyAwareNetwork",
    "TagEnergyLog",
    "NetworkConfig",
    "SlottedNetwork",
    "RealtimeNetwork",
    "WaveformNetwork",
    "WaveformSlotLog",
    "ReaderMac",
    "SlotRecord",
    "Assignment",
    "ScheduleError",
    "assign_offsets",
    "count_collision_slots",
    "find_free_offset",
    "free_offsets",
    "is_permissible_period",
    "offsets_conflict",
    "schedule_table",
    "slot_utilization",
    "validate_period",
    "DEFAULT_NACK_THRESHOLD",
    "TagState",
    "TagStateMachine",
    "TagMac",
]
