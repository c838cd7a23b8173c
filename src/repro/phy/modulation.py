"""Pluggable uplink modulations: the registry behind the adaptive PHY.

The paper's uplink is fixed-rate FM0-over-OOK.  This module turns the
modulation into a first-class, registered object so chirp-OOK
(``repro.phy.cook``) and resonant-pair binary FSK (``repro.phy.fsk``)
can ride the same template cache, waveform synthesis, receive chain,
and link-budget hooks as the stock line code — and so the rate
controller (``repro.phy.rate``) can trade them off per link.

A :class:`Modulation` owns five concerns:

* **line coding** — map frame data bits to the raw on-air bit stream
  (:meth:`Modulation.line_encode`);
* **synthesis** — the unit-amplitude backscatter scale profile for a
  raw bit stream (:meth:`Modulation.unit_profile`), consumed by both
  :class:`repro.phy.cache.TagTemplate` and
  :meth:`repro.phy.modem.BackscatterUplink.tag_component`;
* **receive chain geometry** — downconversion cutoff and decimation
  (:meth:`Modulation.cutoff_hz`, :meth:`Modulation.decimation`);
* **matched decode** — raw bits back out of the projected baseband
  (:meth:`Modulation.demodulate`); FM0 instead flags
  ``uses_fm0_chain`` and reuses the existing correlator chain;
* **analytic link budget** — occupied bandwidth and bit-error rate for
  the slot-tier channel model (:meth:`Modulation.occupied_bandwidth_hz`,
  :meth:`Modulation.bit_error_rate`).

Instances register by name (:func:`register_modulation`) and resolve
via :func:`get_modulation`; the built-in chirp-OOK and FSK modes load
lazily on first lookup so importing this module stays cheap and
cycle-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Raw bit rates (bps) the stock FM0/OOK uplink supports — the fig12
#: ladder plus the slow fallback rungs (mirrors
#: ``repro.ext.rate_adaptation.AVAILABLE_RATES_BPS``).
FM0_RATES_BPS: Tuple[float, ...] = (93.75, 187.5, 375.0, 750.0, 1500.0, 3000.0)

#: FM0 occupies roughly one raw bit rate of bandwidth around the
#: carrier (mirrors ``repro.channel.medium.FM0_BANDWIDTH_PER_BPS``
#: without importing the channel layer).
_FM0_BANDWIDTH_PER_BPS = 1.0

#: Samples per raw bit the receive chain aims for after decimation
#: (mirrors ``ReaderReceiveChain.SAMPLES_PER_BIT``).
_SAMPLES_PER_BIT = 12


@dataclass(frozen=True, order=True)
class LinkConfig:
    """One point in the adaptive PHY's rate ladder.

    A ``(modulation, bitrate)`` pair; ``bitrate_bps`` is the *raw*
    on-air bit rate, so the delivered data rate is
    ``bitrate_bps * modulation.data_bits_per_raw_bit``.  Ordered and
    hashable so configs can key dictionaries and sort deterministically.
    """

    modulation: str
    bitrate_bps: float

    @property
    def label(self) -> str:
        """Compact human-readable name, e.g. ``fm0_ook@375``."""
        return f"{self.modulation}@{self.bitrate_bps:g}"

    def data_rate_bps(self) -> float:
        """Delivered data bits per second for this config."""
        return get_modulation(self.modulation).data_rate_bps(self.bitrate_bps)


def bit_windows(
    n_samples: int, samples_per_bit: float, offset: int
) -> List[Tuple[int, int]]:
    """Integer sample windows for successive bits starting at ``offset``.

    Edges ride the same ``rint`` grid as
    :func:`repro.phy.modem.raw_bits_to_levels`, so synthesis and decode
    agree on where each bit's samples live even when ``samples_per_bit``
    is fractional.
    """
    windows: List[Tuple[int, int]] = []
    i = 0
    while True:
        lo = offset + int(np.rint(i * samples_per_bit))
        hi = offset + int(np.rint((i + 1) * samples_per_bit))
        if hi > n_samples:
            break
        if hi > lo:
            windows.append((lo, hi))
        i += 1
    return windows


class Modulation:
    """Base contract every registered uplink modulation fulfils.

    Subclasses override the hooks below; the defaults describe a plain
    one-bit-per-raw-bit amplitude mode with an FM0-like bandwidth
    footprint.  All methods must be deterministic pure functions — the
    byte-identity differentials depend on it.
    """

    #: Registry key; also the ``LinkConfig.modulation`` field.
    name: str = "modulation"

    #: Raw bit rates (bps) this modulation is specified at.
    rates_bps: Tuple[float, ...] = ()

    #: Data bits delivered per raw on-air bit (FM0 halves the rate).
    data_bits_per_raw_bit: float = 1.0

    #: Fraction of the backscatter power that lands in the information-
    #: bearing component (chirp shaping spends half its power on the
    #: envelope's DC pedestal).
    power_efficiency: float = 1.0

    #: Scale on the residual burst-loss floor (narrowband tone pairs
    #: ride below the glitch-prone envelope transients).
    burst_scale: float = 1.0

    #: True when the stock FM0 correlator chain decodes this mode.
    uses_fm0_chain: bool = False

    # -- line coding / synthesis ------------------------------------------

    def line_encode(self, data_bits: Sequence[int]) -> List[int]:
        """Map frame data bits to the raw on-air bit stream."""
        return [int(b) for b in data_bits]

    def unit_profile(
        self,
        raw_bits: Sequence[int],
        raw_rate_bps: float,
        sample_rate_hz: float,
    ) -> np.ndarray:
        """Unit-amplitude backscatter scale profile in ``[0, 1]``.

        The profile multiplies the tag's reflective swing on top of the
        absorptive floor — see ``TagTemplate`` for the exact affine
        placement, which is shared bit-for-bit with ``tag_component``.
        """
        raise NotImplementedError

    def frame_raw_bits(self, n_data_bits: int) -> int:
        """Raw on-air bits for a frame of ``n_data_bits`` data bits."""
        return int(math.ceil(n_data_bits / self.data_bits_per_raw_bit))

    def frame_airtime_s(self, n_data_bits: int, raw_rate_bps: float) -> float:
        """On-air duration of one frame at ``raw_rate_bps``."""
        return self.frame_raw_bits(n_data_bits) / raw_rate_bps

    def data_rate_bps(self, raw_rate_bps: float) -> float:
        """Delivered data bits per second at ``raw_rate_bps``."""
        return raw_rate_bps * self.data_bits_per_raw_bit

    # -- receive chain geometry -------------------------------------------

    def cutoff_hz(self, raw_rate_bps: float) -> float:
        """Low-pass cutoff for downconversion at this rate."""
        return 2.0 * raw_rate_bps

    def decimation(self, sample_rate_hz: float, raw_rate_bps: float) -> int:
        """Decimation factor the receive chain applies at this rate."""
        return max(
            1, int(sample_rate_hz // (raw_rate_bps * _SAMPLES_PER_BIT))
        )

    # -- matched decode ----------------------------------------------------

    def demodulate(
        self,
        projected: np.ndarray,
        baseband_rate_hz: float,
        raw_rate_bps: float,
    ) -> List[int]:
        """Raw bits from the projected (real) baseband.

        Only called when ``uses_fm0_chain`` is False; FM0 rides the
        existing offset-corrected correlator in ``reader_dsp``.
        """
        raise NotImplementedError

    # -- analytic link budget ----------------------------------------------

    def occupied_bandwidth_hz(self, raw_rate_bps: float) -> float:
        """Noise bandwidth the slot-tier SNR integrates over."""
        return _FM0_BANDWIDTH_PER_BPS * raw_rate_bps

    def bit_error_rate(self, snr_linear: float, raw_rate_bps: float) -> float:
        """Analytic BER given in-band linear SNR at ``raw_rate_bps``."""
        raise NotImplementedError


class Fm0Ook(Modulation):
    """The stock FM0-over-OOK line code as a registered modulation.

    ``line_encode`` and ``unit_profile`` delegate to ``fm0_raw`` and
    ``raw_bits_to_levels``, so a template built through the registry
    is bit-identical to the stock FM0 synthesis — the fixed-rate golden
    traces pin this.
    """

    name = "fm0_ook"
    rates_bps = FM0_RATES_BPS
    data_bits_per_raw_bit = 0.5
    power_efficiency = 1.0
    burst_scale = 1.0
    uses_fm0_chain = True

    def line_encode(self, data_bits: Sequence[int]) -> List[int]:
        from repro.phy import cache as phy_cache

        return list(phy_cache.fm0_raw(data_bits))

    def unit_profile(
        self,
        raw_bits: Sequence[int],
        raw_rate_bps: float,
        sample_rate_hz: float,
    ) -> np.ndarray:
        from repro.phy.modem import raw_bits_to_levels

        return raw_bits_to_levels(raw_bits, raw_rate_bps, sample_rate_hz)

    def bit_error_rate(self, snr_linear: float, raw_rate_bps: float) -> float:
        # Coherent OOK with FM0 transition coding — the slot tier's
        # stock formula (medium.uplink_bit_error_rate).
        return 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))


_REGISTRY: Dict[str, Modulation] = {}
_BUILTINS_LOADED = False


def register_modulation(modulation: Modulation) -> Modulation:
    """Add ``modulation`` to the registry (idempotent per name).

    Re-registering a name replaces the previous instance — tests use
    this to install probe modulations; production code registers once
    at import.
    """
    if not modulation.name or not modulation.rates_bps:
        raise ValueError(
            "a modulation needs a name and at least one supported rate"
        )
    _REGISTRY[modulation.name] = modulation
    return modulation


def _ensure_builtins() -> None:
    """Import the built-in non-FM0 modes so they self-register."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.phy.cook  # noqa: F401  (registers ChirpOok)
    import repro.phy.fsk  # noqa: F401  (registers BinaryFsk)


def get_modulation(name: str) -> Modulation:
    """Resolve a registered modulation by name."""
    mod = _REGISTRY.get(name)
    if mod is None:
        _ensure_builtins()
        mod = _REGISTRY.get(name)
    if mod is None:
        raise KeyError(
            f"unknown modulation {name!r}; registered: {modulation_names()}"
        )
    return mod


def modulation_names() -> Tuple[str, ...]:
    """All registered modulation names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def all_link_configs() -> Tuple[LinkConfig, ...]:
    """Every (modulation, rate) pair the registry supports, sorted."""
    _ensure_builtins()
    return tuple(
        sorted(
            LinkConfig(name, rate)
            for name, mod in _REGISTRY.items()
            for rate in mod.rates_bps
        )
    )


register_modulation(Fm0Ook())


__all__ = [
    "FM0_RATES_BPS",
    "LinkConfig",
    "Modulation",
    "Fm0Ook",
    "bit_windows",
    "register_modulation",
    "get_modulation",
    "modulation_names",
    "all_link_configs",
]
