"""ARACHNET reproduction: acoustic backscatter network for vehicle
Body-in-White (SIGCOMM 2025).

A full simulation of the paper's system: the BiW as a shared acoustic
medium, battery-free energy-harvesting tags, the FM0/PIE backscatter
PHY, and the distributed slot-allocation MAC — plus the ALOHA baseline,
the Appendix C convergence machinery, and runners for every table and
figure of the evaluation.

Quick start::

    from repro import AcousticMedium, NetworkConfig, SlottedNetwork

    medium = AcousticMedium()                      # ONVO L60 deployment
    net = SlottedNetwork({"tag8": 4, "tag4": 8, "tag11": 8}, medium)
    slots = net.run_until_converged()
    print(f"converged in {slots} slots")
"""

from repro.baselines import AlohaResult, AlohaSimulation
from repro.channel import (
    AcousticMedium,
    BiWModel,
    JointKind,
    PropagationModel,
    PZTState,
    PZTTransducer,
    TAG_NAMES,
    onvo_l60,
)
from repro.core import (
    NetworkConfig,
    ReaderMac,
    SlottedNetwork,
    TagMac,
    TagState,
    assign_offsets,
    slot_utilization,
)
from repro.hardware import (
    EnergyHarvester,
    LowVoltageCutoff,
    Mcu,
    McuMode,
    StrainSensorModule,
    Supercapacitor,
    TagDevice,
    TagPowerModel,
    VoltageMultiplier,
)
from repro.faults import FaultController, FaultEvent, FaultSchedule
from repro.phy import (
    DownlinkBeacon,
    ReaderReceiveChain,
    UplinkPacket,
    fm0_decode,
    fm0_encode,
    pie_decode,
    pie_encode,
)

__version__ = "1.25.0"

__all__ = [
    "AlohaResult",
    "AlohaSimulation",
    "AcousticMedium",
    "BiWModel",
    "JointKind",
    "PropagationModel",
    "PZTState",
    "PZTTransducer",
    "TAG_NAMES",
    "onvo_l60",
    "NetworkConfig",
    "ReaderMac",
    "SlottedNetwork",
    "TagMac",
    "TagState",
    "assign_offsets",
    "slot_utilization",
    "EnergyHarvester",
    "LowVoltageCutoff",
    "Mcu",
    "McuMode",
    "StrainSensorModule",
    "Supercapacitor",
    "TagDevice",
    "TagPowerModel",
    "VoltageMultiplier",
    "FaultController",
    "FaultEvent",
    "FaultSchedule",
    "DownlinkBeacon",
    "ReaderReceiveChain",
    "UplinkPacket",
    "fm0_decode",
    "fm0_encode",
    "pie_decode",
    "pie_encode",
    "__version__",
]
