"""Synthesis caches for the waveform hot path.

The waveform-fidelity loop synthesises and demodulates ~10^5-sample
captures every slot, and almost all of that work is identical from slot
to slot: the carrier oscillator on the same sample grid, the complex
local oscillator used for downconversion, the Butterworth low-pass
design, and the FM0/PIE expansions of short bit sequences.  This module
memoises each of those:

* :func:`carrier_quadrature` — grow-once cos/sin tables per
  ``(sample_rate, frequency)``; an arbitrary-phase carrier block is two
  scalar-vector multiplies over prefix views (``cos(wt+p) =
  cos(p)cos(wt) - sin(p)sin(wt)``), bit-exact at phase 0.
* :func:`mixer` — the cached ``exp(-j w t)`` oscillator for
  :func:`repro.phy.iq.downconvert`.
* :func:`butter_lowpass_sos` — cached filter designs (the design step
  costs more than the filtering for short captures).
* :func:`cached_fm0_encode` / :func:`cached_pie_encode` — memoised line
  codes keyed by bit tuple.
* :func:`tag_template` — second-generation fast path: one
  :class:`TagTemplate` per ``(encoded raw bits, rate, geometry)``
  holding the filtered/decimated baseband quadrature pair of its
  unit-amplitude OOK scale profile, so steady-state slots
  apply amplitude, carrier phase (angle-sum identity), and sample delay
  as cheap short-vector ops instead of re-running
  ``raw_bits_to_levels`` + mix + filter over ~10^5 samples.
* :func:`leak_baseband` — the reader's static carrier leak after the
  receive filter, grow-once per link geometry.

The template fast path is gated by :func:`fast_path_enabled`
(``REPRO_PHY_FAST=0`` is the escape hatch; :func:`fast_path` scopes an
override for tests).  Everything here is content-addressed by
immutable keys, so the caches never go stale; :func:`clear_caches`
exists for tests and for bounding memory, not for correctness.
Hit/miss counts feed :mod:`repro.perf`'s counters (and, when a
collection is active, :mod:`repro.telemetry`) so cache efficacy shows
up in perf reports — see :func:`hit_ratios`.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import butter

from repro import perf, telemetry
from repro.phy.fm0 import fm0_encode
from repro.phy.pie import pie_encode

#: Tables longer than this are computed on demand and not retained
#: (bounds worst-case memory at ~64 MiB per cached frequency).
MAX_TABLE_SAMPLES = 4_000_000

#: Distinct frame templates retained (LRU).  Steady state needs one per
#: (tag, payload); fault bursts add transient flipped-bit variants.
MAX_TEMPLATES = 256

#: Environment variable gating the template fast path (set to ``0`` /
#: ``false`` / ``off`` / ``no`` to force the reference synthesis path).
FAST_PATH_ENV = "REPRO_PHY_FAST"

_FALSE_STRINGS = frozenset({"0", "false", "off", "no"})
_fast_override: Optional[bool] = None


def fast_path_enabled() -> bool:
    """Whether the template fast path is active.

    Defaults to on; ``REPRO_PHY_FAST=0`` in the environment (or a
    :func:`set_fast_path` / :func:`fast_path` override) switches every
    consumer to the reference synthesis path.  Both paths produce
    basebands equal to ~1 ulp and identical decode outcomes on the
    differential suite (``tests/phy/test_fast_path_differential.py``).
    """
    if _fast_override is not None:
        return _fast_override
    raw = os.environ.get(FAST_PATH_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSE_STRINGS


def set_fast_path(enabled: Optional[bool]) -> None:
    """Override the fast-path gate (``None`` restores the env default)."""
    global _fast_override
    _fast_override = enabled


@contextmanager
def fast_path(enabled: bool) -> Iterator[None]:
    """Scope a fast-path override (tests and differential harnesses)."""
    previous = _fast_override
    set_fast_path(enabled)
    try:
        yield
    finally:
        set_fast_path(previous)


class _QuadratureTable:
    """Lazily-grown cos/sin lookup for one (sample_rate, frequency)."""

    __slots__ = ("omega", "sample_rate_hz", "cos", "sin", "_lock")

    def __init__(self, sample_rate_hz: float, frequency_hz: float) -> None:
        self.sample_rate_hz = sample_rate_hz
        # Match the scalar-path evaluation order exactly:
        # 2 * math.pi * frequency_hz, applied to t = arange(n) / fs.
        self.omega = 2 * math.pi * frequency_hz
        self.cos = np.empty(0)
        self.sin = np.empty(0)
        self._lock = threading.Lock()

    def ensure(self, n_samples: int) -> None:
        if n_samples <= len(self.cos):
            return
        with self._lock:
            if n_samples <= len(self.cos):
                return
            size = max(n_samples, 2 * len(self.cos), 4096)
            t = np.arange(size) / self.sample_rate_hz
            theta = self.omega * t
            cos = np.cos(theta)
            sin = np.sin(theta)
            cos.setflags(write=False)
            sin.setflags(write=False)
            self.cos = cos
            self.sin = sin


_tables: Dict[Tuple[float, float], _QuadratureTable] = {}
_tables_lock = threading.Lock()


def _table(sample_rate_hz: float, frequency_hz: float) -> _QuadratureTable:
    key = (float(sample_rate_hz), float(frequency_hz))
    table = _tables.get(key)
    if table is None:
        with _tables_lock:
            table = _tables.get(key)
            if table is None:
                table = _tables[key] = _QuadratureTable(*key)
    return table


def carrier_quadrature(
    n_samples: int, sample_rate_hz: float, frequency_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cos(wt), sin(wt))`` views over ``n_samples``.

    Each element of the table is computed independently from its sample
    index, so a prefix view of a longer table is bit-identical to a
    freshly computed shorter one.
    """
    if n_samples < 0:
        raise ValueError("sample count must be non-negative")
    if n_samples > MAX_TABLE_SAMPLES:
        perf.count("cache.carrier.bypass")
        t = np.arange(n_samples) / sample_rate_hz
        theta = (2 * math.pi * frequency_hz) * t
        return np.cos(theta), np.sin(theta)
    table = _table(sample_rate_hz, frequency_hz)
    if n_samples <= len(table.cos):
        perf.count("cache.carrier.hit")
    else:
        perf.count("cache.carrier.miss")
        table.ensure(n_samples)
    return table.cos[:n_samples], table.sin[:n_samples]


def carrier_block(
    n_samples: int,
    amplitude_v: float,
    sample_rate_hz: float,
    frequency_hz: float,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """``amplitude * cos(w t + phase)`` from the cached tables.

    Phase 0 reproduces the direct ``np.cos`` evaluation bit-exactly;
    non-zero phases go through the angle-sum identity and agree to
    ~1 ulp, which is far below the receiver noise floor.
    """
    cos_t, sin_t = carrier_quadrature(n_samples, sample_rate_hz, frequency_hz)
    if phase_rad == 0.0:
        return amplitude_v * cos_t
    out = (amplitude_v * math.cos(phase_rad)) * cos_t
    out -= (amplitude_v * math.sin(phase_rad)) * sin_t
    return out


_mixers: Dict[Tuple[float, float], np.ndarray] = {}
_mixers_lock = threading.Lock()


def mixer(n_samples: int, sample_rate_hz: float, carrier_hz: float) -> np.ndarray:
    """Cached complex local oscillator ``exp(-j w t)`` (read-only view).

    Built as ``cos(wt) - j sin(wt)`` from the quadrature tables — the
    same decomposition ``np.exp`` of a purely imaginary argument uses
    internally.
    """
    if n_samples < 0:
        raise ValueError("sample count must be non-negative")
    key = (float(sample_rate_hz), float(carrier_hz))
    lo = _mixers.get(key)
    if lo is None or n_samples > len(lo):
        if n_samples > MAX_TABLE_SAMPLES:
            perf.count("cache.mixer.bypass")
            cos_t, sin_t = carrier_quadrature(
                n_samples, sample_rate_hz, carrier_hz
            )
            return cos_t - 1j * sin_t
        perf.count("cache.mixer.miss")
        table = _table(sample_rate_hz, carrier_hz)
        table.ensure(n_samples)
        with _mixers_lock:
            lo = _mixers.get(key)
            if lo is None or len(table.cos) > len(lo):
                lo = table.cos - 1j * table.sin
                lo.setflags(write=False)
                _mixers[key] = lo
    else:
        perf.count("cache.mixer.hit")
    return lo[:n_samples]


@lru_cache(maxsize=256)
def butter_lowpass_sos(order: int, normalized_cutoff: float) -> np.ndarray:
    """Memoised Butterworth low-pass design in SOS form.

    ``normalized_cutoff`` is the cutoff as a fraction of Nyquist.  The
    returned array is read-only; ``sosfilt`` never mutates its design
    argument.
    """
    perf.count("cache.butter.miss")
    sos = butter(order, normalized_cutoff, output="sos")
    sos.setflags(write=False)
    return sos


@lru_cache(maxsize=4096)
def cached_fm0_encode(bits: Tuple[int, ...], initial_level: int = 1) -> Tuple[int, ...]:
    """Memoised :func:`repro.phy.fm0.fm0_encode` keyed by bit tuple."""
    return tuple(fm0_encode(list(bits), initial_level))


@lru_cache(maxsize=4096)
def cached_pie_encode(bits: Tuple[int, ...]) -> Tuple[int, ...]:
    """Memoised :func:`repro.phy.pie.pie_encode` keyed by bit tuple."""
    return tuple(pie_encode(list(bits)))


def fm0_raw(bits: Sequence[int], initial_level: int = 1) -> Tuple[int, ...]:
    """FM0-encode through the memo table (accepts any bit sequence)."""
    return cached_fm0_encode(tuple(bits), initial_level)


def pie_raw(bits: Sequence[int]) -> Tuple[int, ...]:
    """PIE-encode through the memo table (accepts any bit sequence)."""
    return cached_pie_encode(tuple(bits))


class TagTemplate:
    """Synthesis products of one unit-amplitude backscatter frame.

    A template is keyed by the *encoded* raw line bits plus the frame
    geometry (rate, sample rate, carrier, OOK low ratio, lead/tail
    lengths) and is built once:

    * :attr:`profile` — the per-sample OOK scale profile (lead-in,
      levels, tail) at unit amplitude, exactly the array
      ``BackscatterUplink.tag_component`` fills before applying
      amplitude and carrier phase.  Rebuilt on each access and never
      retained: at the passband rate it is ~10^5 samples, and fault
      bursts fill the LRU with transient templates.
    * :meth:`baseband` — the profile modulated onto the cos/sin carrier
      pair, zero-padded to the capture grid at a given sample delay,
      then low-passed and decimated.  Because mixing/filtering/
      decimation are linear and the filter is causal, a prefix view of
      a longer cached product is valid for any shorter capture, and an
      arbitrary carrier phase is the angle sum
      ``(a cos p) * bc - (a sin p) * bs`` — two scalar-vector
      multiplies over ~10^3 samples instead of a fresh ~10^5-sample
      synthesis + filter run per slot.

    :meth:`passband` reconstructs the full-rate component bit-identical
    to ``tag_component`` (the ulp-tolerance tests pin this).  Only it
    and a :meth:`baseband` miss build the profile.
    """

    __slots__ = (
        "raw_bits",
        "raw_rate_bps",
        "sample_rate_hz",
        "carrier_hz",
        "low_ratio",
        "n_lead",
        "n_tail",
        "modulation",
        "n_body",
        "_baseband",
        "_lock",
    )

    def __init__(
        self,
        raw_bits: Tuple[int, ...],
        raw_rate_bps: float,
        sample_rate_hz: float,
        carrier_hz: float,
        low_ratio: float,
        n_lead: int,
        n_tail: int,
        modulation: str = "fm0_ook",
    ) -> None:
        from repro.phy.modulation import get_modulation

        get_modulation(modulation)  # unknown names fail here, not later
        self.raw_bits = raw_bits
        self.raw_rate_bps = raw_rate_bps
        self.sample_rate_hz = sample_rate_hz
        self.carrier_hz = carrier_hz
        self.low_ratio = low_ratio
        self.n_lead = n_lead
        self.n_tail = n_tail
        self.modulation = modulation
        # Every unit profile spans this many samples (the Modulation
        # contract), so the frame is sized without building it.
        n_levels = int(np.rint(len(raw_bits) * sample_rate_hz / raw_rate_bps))
        self.n_body = n_lead + n_levels + n_tail
        self._baseband: Dict[
            Tuple[int, float, int], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._lock = threading.Lock()

    @property
    def profile(self) -> np.ndarray:
        """The unit-amplitude scale profile, built afresh (read-only)."""
        from repro.phy.modulation import get_modulation

        # For "fm0_ook" this is exactly raw_bits_to_levels, so legacy
        # templates stay bit-identical through the registry hop.
        levels = get_modulation(self.modulation).unit_profile(
            self.raw_bits, self.raw_rate_bps, self.sample_rate_hz
        )
        n_lead, n_levels = self.n_lead, len(levels)
        if n_lead + n_levels + self.n_tail != self.n_body:
            raise ValueError(
                f"{self.modulation} unit profile has {n_levels} samples, "
                f"expected {self.n_body - n_lead - self.n_tail}"
            )
        profile = np.empty(self.n_body)
        profile[:n_lead] = self.low_ratio
        np.multiply(
            levels, 1.0 - self.low_ratio, out=profile[n_lead : n_lead + n_levels]
        )
        profile[n_lead : n_lead + n_levels] += self.low_ratio
        profile[n_lead + n_levels :] = self.low_ratio
        profile.setflags(write=False)
        return profile

    def passband(
        self, amplitude_v: float, phase_rad: float, n_delay: int
    ) -> np.ndarray:
        """Full-rate component, from a freshly built profile.

        Replays ``tag_component``'s exact operation order
        (``(profile * amp) * (cos p * cos_t - sin p * sin_t)``), so the
        result is bit-identical to a fresh synthesis.
        """
        out = np.empty(n_delay + self.n_body)
        out[:n_delay] = 0.0
        scale = out[n_delay:]
        np.multiply(self.profile, amplitude_v, out=scale)
        cos_t, sin_t = carrier_quadrature(
            self.n_body, self.sample_rate_hz, self.carrier_hz
        )
        if phase_rad == 0.0:
            scale *= cos_t
        else:
            mod = math.cos(phase_rad) * cos_t
            mod -= math.sin(phase_rad) * sin_t
            scale *= mod
        return out

    def baseband(
        self,
        n_delay: int,
        n_capture: int,
        cutoff_hz: float,
        decimation: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Filtered/decimated baseband quadrature pair ``(bc, bs)``.

        ``bc``/``bs`` are the downconverted captures of the profile
        modulated on the cos / sin carrier, placed ``n_delay`` samples
        into a zero capture of ``n_capture`` samples.  Grow-once per
        ``(n_delay, cutoff, decimation)``: the filter is causal, so the
        prefix of a longer product is bit-identical for shorter
        captures — callers slice to ``ceil(n_capture / decimation)``.
        """
        from repro.phy.iq import downconvert

        need = -(-int(n_capture) // int(decimation))
        key = (int(n_delay), float(cutoff_hz), int(decimation))
        entry = self._baseband.get(key)
        if entry is not None and len(entry[0]) >= need:
            perf.count("cache.template.hit")
            tel = telemetry.active()
            if tel is not None:
                tel.inc("phy.template.hit")
            return entry
        with self._lock:
            entry = self._baseband.get(key)
            if entry is not None and len(entry[0]) >= need:
                perf.count("cache.template.hit")
                tel = telemetry.active()
                if tel is not None:
                    tel.inc("phy.template.hit")
                return entry
            perf.count("cache.template.miss")
            tel = telemetry.active()
            if tel is not None:
                tel.inc("phy.template.miss")
            grow_n = int(n_capture)
            if entry is not None:
                grow_n = max(grow_n, 2 * len(entry[0]) * int(decimation))
            cos_t, sin_t = carrier_quadrature(
                self.n_body, self.sample_rate_hz, self.carrier_hz
            )
            profile = self.profile
            pair = []
            for quad in (cos_t, sin_t):
                pad = np.zeros(grow_n)
                np.multiply(
                    profile,
                    quad,
                    out=pad[n_delay : n_delay + self.n_body],
                )
                bb = np.ascontiguousarray(
                    downconvert(
                        pad,
                        self.sample_rate_hz,
                        self.carrier_hz,
                        cutoff_hz=cutoff_hz,
                        decimation=decimation,
                    )
                )
                bb.setflags(write=False)
                pair.append(bb)
            entry = (pair[0], pair[1])
            self._baseband[key] = entry
            return entry

    def baseband_samples(self) -> int:
        """Total cached baseband samples (memory diagnostics)."""
        return sum(2 * len(bc) for bc, _ in self._baseband.values())


_templates: "OrderedDict[tuple, TagTemplate]" = OrderedDict()
_templates_lock = threading.Lock()


def tag_template(
    raw_bits: Sequence[int],
    raw_rate_bps: float,
    sample_rate_hz: float,
    carrier_hz: float,
    low_ratio: float,
    n_lead: int,
    n_tail: int,
    modulation: str = "fm0_ook",
) -> TagTemplate:
    """Get-or-build the :class:`TagTemplate` for one encoded frame.

    LRU-bounded at :data:`MAX_TEMPLATES` entries; fault-injected bit
    flips simply hash to different (transient) templates.  Templates
    are keyed by modulation as well as bit content — a chirp frame and
    an OOK frame over the same raw bits are different waveforms.
    """
    key = (
        tuple(int(b) for b in raw_bits),
        float(raw_rate_bps),
        float(sample_rate_hz),
        float(carrier_hz),
        float(low_ratio),
        int(n_lead),
        int(n_tail),
        str(modulation),
    )
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
            return template
    template = TagTemplate(
        key[0], *key[1:]
    )
    with _templates_lock:
        existing = _templates.get(key)
        if existing is not None:
            _templates.move_to_end(key)
            return existing
        _templates[key] = template
        while len(_templates) > MAX_TEMPLATES:
            _templates.popitem(last=False)
    return template


_leak_bb: Dict[tuple, np.ndarray] = {}
_leak_bb_lock = threading.Lock()


def leak_baseband(
    n_capture: int,
    amplitude_v: float,
    sample_rate_hz: float,
    carrier_hz: float,
    cutoff_hz: float,
    decimation: int,
) -> np.ndarray:
    """The reader's static carrier leak after downconversion.

    Grow-once per ``(amplitude, rates, cutoff, decimation)`` — the leak
    is deterministic per sample index and the filter causal, so a
    prefix of a longer cached product serves any shorter capture.
    Callers slice the returned read-only array to
    ``ceil(n_capture / decimation)``.
    """
    from repro.phy.iq import downconvert

    need = -(-int(n_capture) // int(decimation))
    key = (
        float(amplitude_v),
        float(sample_rate_hz),
        float(carrier_hz),
        float(cutoff_hz),
        int(decimation),
    )
    cached = _leak_bb.get(key)
    if cached is not None and len(cached) >= need:
        perf.count("cache.leak.hit")
        return cached
    with _leak_bb_lock:
        cached = _leak_bb.get(key)
        if cached is not None and len(cached) >= need:
            perf.count("cache.leak.hit")
            return cached
        perf.count("cache.leak.miss")
        grow_n = int(n_capture)
        if cached is not None:
            grow_n = max(grow_n, 2 * len(cached) * int(decimation))
        leak = carrier_block(grow_n, amplitude_v, sample_rate_hz, carrier_hz)
        bb = np.ascontiguousarray(
            downconvert(
                leak,
                sample_rate_hz,
                carrier_hz,
                cutoff_hz=cutoff_hz,
                decimation=decimation,
            )
        )
        bb.setflags(write=False)
        _leak_bb[key] = bb
        return bb


def hit_ratios(
    counters: Optional[Mapping[str, int]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-cache hit/miss tallies and hit ratios.

    Reads ``cache.<name>.hit`` / ``cache.<name>.miss`` counters from
    ``counters`` (default: the process :mod:`repro.perf` registry), so
    the ``--perf`` results report can show cache efficacy per run.
    """
    if counters is None:
        counters = perf.report()["counters"]  # type: ignore[assignment]
    out: Dict[str, Dict[str, float]] = {}
    for name in ("carrier", "mixer", "template", "leak", "kernel_build"):
        hits = int(counters.get(f"cache.{name}.hit", 0))
        misses = int(counters.get(f"cache.{name}.miss", 0))
        total = hits + misses
        if total:
            out[name] = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / total,
            }
    return out


def clear_caches() -> None:
    """Invalidate every synthesis cache.

    The caches are keyed purely by value, so this is never required for
    correctness — it exists to bound memory in long-lived processes and
    to isolate tests.
    """
    with _tables_lock:
        _tables.clear()
    with _mixers_lock:
        _mixers.clear()
    with _templates_lock:
        _templates.clear()
    with _leak_bb_lock:
        _leak_bb.clear()
    butter_lowpass_sos.cache_clear()
    cached_fm0_encode.cache_clear()
    cached_pie_encode.cache_clear()


def cache_sizes() -> Dict[str, int]:
    """Entry counts per cache (diagnostics / perf reports)."""
    from repro.phy import kernels

    with _templates_lock:
        templates = list(_templates.values())
    info = kernels.kernel_info()
    return {
        "compiled_kernels": int(info["compiled_kernels"]),
        "quadrature_tables": len(_tables),
        "quadrature_samples": sum(len(t.cos) for t in _tables.values()),
        "mixers": len(_mixers),
        "mixer_samples": sum(len(m) for m in _mixers.values()),
        "butter_designs": butter_lowpass_sos.cache_info().currsize,
        "fm0_encodings": cached_fm0_encode.cache_info().currsize,
        "pie_encodings": cached_pie_encode.cache_info().currsize,
        "tag_templates": len(templates),
        "tag_template_samples": sum(t.baseband_samples() for t in templates),
        "leak_basebands": len(_leak_bb),
        "leak_baseband_samples": sum(len(b) for b in _leak_bb.values()),
    }
