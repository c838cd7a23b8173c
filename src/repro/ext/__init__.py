"""Extensions the paper names as future work (Secs. 2.2 and 6.3):
ambient-vibration harvesting, higher-order modulation, FDMA, and
spatial multiplexing via multiple readers."""

from repro.ext.ambient import (
    AmbientHarvester,
    DrivingCondition,
    HybridHarvester,
)
# FDMA and the multi-reader geometry graduated to repro.multireader.
from repro.multireader.fdma import FdmaChannelPlan, FdmaNetwork
from repro.ext.mask import (
    MaskReceiver,
    MultiLevelBackscatter,
    mask_bits_per_symbol,
    mask_symbol_error_rate,
)
from repro.multireader.deployment import MultiReaderDeployment, ReaderPlacement
from repro.ext.rate_adaptation import (
    AVAILABLE_RATES_BPS,
    RateAdapter,
    RateAssignment,
)
from repro.ext.parallel import (
    LatticeFit,
    ParallelCollisionDecoder,
    fit_lattice,
)

__all__ = [
    "LatticeFit",
    "ParallelCollisionDecoder",
    "fit_lattice",
    "AmbientHarvester",
    "DrivingCondition",
    "HybridHarvester",
    "FdmaChannelPlan",
    "FdmaNetwork",
    "MaskReceiver",
    "MultiLevelBackscatter",
    "mask_bits_per_symbol",
    "mask_symbol_error_rate",
    "MultiReaderDeployment",
    "ReaderPlacement",
    "AVAILABLE_RATES_BPS",
    "RateAdapter",
    "RateAssignment",
]
