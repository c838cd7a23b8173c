"""Flexural-wave propagation / path-loss model over the BiW graph.

Amplitude at distance ``d`` from a point source in a plate falls off by

* **cylindrical spreading** — 10·log10(d/r0) dB (energy spreads over a
  growing circumference, amplitude ∝ 1/sqrt(d)),
* **material absorption** — alpha dB per metre (viscoelastic damping of
  automotive sheet steel with sealers/coatings at 90 kHz), and
* **joint losses** — per-junction dB from the BiW model.

The constants are calibrated jointly with the BiW geometry and the
harvester model so the paper's Fig. 11 anchors reproduce (see
``DESIGN.md``).  ``alpha_db_per_m=2.0`` is within the range reported for
damped automotive panels at ultrasonic frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.channel import acoustics
from repro.channel.biw import AcousticPath, BiWModel


#: Reference distance for the source amplitude (m).
REFERENCE_DISTANCE_M = 0.1

#: Calibrated absorption coefficient (dB of amplitude per metre).
DEFAULT_ALPHA_DB_PER_M = 2.0

#: Effective source amplitude at the reference distance (volts of PZT
#: open-circuit output an ideal tag would see at 0.1 m).  Derived from the
#: reader's 36 V peak drive via the end-to-end electromechanical coupling.
DEFAULT_SOURCE_AMPLITUDE_V = 3.073


@dataclass(frozen=True)
class LinkBudget:
    """One-way link between two mount points."""

    path: AcousticPath
    loss_db: float
    amplitude_v: float  # open-circuit PZT peak voltage at the far end
    delay_s: float  # group delay along the path


class PropagationModel:
    """Computes per-link loss, amplitude, and delay over a BiW model."""

    def __init__(
        self,
        biw: BiWModel,
        alpha_db_per_m: float = DEFAULT_ALPHA_DB_PER_M,
        source_amplitude_v: float = DEFAULT_SOURCE_AMPLITUDE_V,
        frequency_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
    ) -> None:
        if alpha_db_per_m < 0:
            raise ValueError("absorption coefficient must be non-negative")
        if source_amplitude_v <= 0:
            raise ValueError("source amplitude must be positive")
        self._biw = biw
        self._alpha = alpha_db_per_m
        self._source_v = source_amplitude_v
        self._frequency = frequency_hz
        self._cache: Dict[tuple, LinkBudget] = {}
        #: Bumped by :meth:`invalidate_cache`.  Media sharing this model
        #: (one per reader of a multi-reader deployment) compare it to
        #: tell that links they memoised results from were dropped.
        self.generation = 0

    @property
    def biw(self) -> BiWModel:
        return self._biw

    @property
    def frequency_hz(self) -> float:
        return self._frequency

    def path_loss_db(self, path: AcousticPath) -> float:
        """Total one-way amplitude loss along an acoustic path in dB."""
        distance = max(path.distance_m, REFERENCE_DISTANCE_M)
        spreading = 10.0 * math.log10(distance / REFERENCE_DISTANCE_M)
        absorption = self._alpha * path.distance_m
        joints = path.joint_loss_db(self._biw.joint_loss_table)
        return spreading + absorption + joints

    def link(self, mount_a: str, mount_b: str) -> LinkBudget:
        """One-way link budget from ``mount_a`` to ``mount_b`` (cached)."""
        key = (mount_a, mount_b)
        if key not in self._cache:
            path = self._biw.path(mount_a, mount_b)
            loss = self.path_loss_db(path)
            amplitude = self._source_v * acoustics.db_to_amplitude_ratio(-loss)
            delay = acoustics.propagation_delay(path.distance_m, self._frequency)
            self._cache[key] = LinkBudget(path, loss, amplitude, delay)
        return self._cache[key]

    def carrier_amplitude_at(self, mount: str, source: str = "reader") -> float:
        """Open-circuit PZT peak voltage (V) the transducer at ``mount``
        sees when the reader drives the carrier."""
        return self.link(source, mount).amplitude_v

    def roundtrip_loss_db(self, mount: str, source: str = "reader") -> float:
        """Reader → tag → reader amplitude loss for backscatter (dB)."""
        return self.link(source, mount).loss_db + self.link(mount, source).loss_db

    def invalidate_cache(self) -> None:
        """Drop cached links (call after mutating the BiW model)."""
        self._cache.clear()
        self.generation += 1
