"""Application layer: structural-health monitoring on top of the
backscatter network (``repro.app.shm``: SHM is structural-health
monitoring)."""

from repro.app.shm import (
    Alarm,
    AlarmKind,
    Report,
    ShmMonitor,
    StrainField,
    collect_reports,
)

__all__ = [
    "Alarm",
    "AlarmKind",
    "Report",
    "ShmMonitor",
    "StrainField",
    "collect_reports",
]
