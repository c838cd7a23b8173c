"""Compiled-kernel tier for the waveform hot path (Gen-3 speed work).

The DSP-in-the-loop waveform tier spends its residual per-slot time in
a handful of numpy-bound inner loops: the order statistics inside
:meth:`ReaderReceiveChain.project` / ``schmitt``, the per-bit sampling
grid, FM0 pair decoding, envelope detection, the receive-filter
recurrences, and the per-tag template combine.  This module routes each
of those through one of two interchangeable backends:

* ``cext`` — a small C translation unit compiled once per process
  family with the system compiler and loaded via ctypes
  (:mod:`repro.phy._kernels_c`); the build is content-addressed and
  cached on disk.
* ``numpy`` — pure numpy/scipy fallback, always available.  Its order
  statistics use in-place ``ndarray.partition`` (value-identical to
  ``np.median`` / ``np.percentile`` but without their dispatch
  overhead), so even the fallback is faster than the pre-kernel code.

Every backend is **bit-exact** against the numpy expressions the call
sites used before (see the equivalence notes in
:mod:`repro.phy._kernels_c`); the kernels-on/off parity suite pins
byte-identical slot logs across backends.  Inputs are assumed finite —
the waveform tier synthesises finite signals; NaN propagation through
the selection kernels is unspecified.

Selection happens once, lazily, at first kernel use.  The gate mirrors
the ``REPRO_PHY_FAST`` pattern: ``REPRO_PHY_KERNELS=0`` (or ``false`` /
``off`` / ``no``) forces the numpy fallback, a backend name
(``cext`` / ``numpy``) requests that backend, anything else (or
unset) auto-selects the best available.  When the compiled backend is
explicitly requested but unavailable, one warning is emitted per
process and the numpy fallback is used.

Beyond the primitive kernels, whole receive-chain stages are fused so
one Python-level call covers one profiled stage: :func:`project`
(constellation centring + axis rotation + re-centring),
:func:`schmitt_full` (spread + thresholds + state track),
:func:`bit_grid` (integrate-and-dump windows), and
:func:`hist2d_counts` (the collision detector's constellation
histogram).  The fusions eliminate the per-call dispatch/marshalling
overhead that otherwise dominates sub-100-us stages.

The GEMM-shaped slot combine (:func:`combine_templates`) and
:func:`bit_window_sums` are backend-independent: they are pure
numpy/BLAS calls whose results are identical under every gate setting.

The resolved dispatch table is cached after the first kernel call;
flipping the gate mid-process goes through :func:`set_kernels` /
:func:`use_kernels` / :func:`set_backend` (which invalidate the
cache), not by editing ``os.environ`` afterwards —
:func:`reset_selection` re-reads the environment.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro import perf

#: Environment variable gating/selecting the kernel backend.
KERNELS_ENV = "REPRO_PHY_KERNELS"

_FALSE_STRINGS = frozenset({"0", "false", "off", "no"})
_BACKEND_NAMES = ("cext", "numpy")

_enabled_override: Optional[bool] = None
_backend_override: Optional[str] = None

_select_lock = threading.Lock()
_selected = False
_compiled: Optional[Dict[str, Callable]] = None
_compiled_name: Optional[str] = None
_load_errors: Dict[str, str] = {}
_warned = False

#: Cached result of :func:`_active` — invalidated by every override
#: setter and by :func:`reset_selection`.
_active_table: Optional[Mapping[str, Callable]] = None

_tls = threading.local()


# ---------------------------------------------------------------------------
# gate + backend selection (mirrors repro.phy.cache's REPRO_PHY_FAST API)
# ---------------------------------------------------------------------------


def kernels_enabled() -> bool:
    """Whether compiled kernels may be used.

    Defaults to on; ``REPRO_PHY_KERNELS=0`` in the environment (or a
    :func:`set_kernels` / :func:`use_kernels` override) pins every
    kernel to the numpy fallback.  All backends are bit-exact, so this
    is an escape hatch and an A/B lever, not a correctness switch.
    """
    if _enabled_override is not None:
        return _enabled_override
    raw = os.environ.get(KERNELS_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSE_STRINGS


def set_kernels(enabled: Optional[bool]) -> None:
    """Override the kernel gate (``None`` restores the env default)."""
    global _enabled_override, _active_table
    _enabled_override = enabled
    _active_table = None


@contextmanager
def use_kernels(enabled: bool) -> Iterator[None]:
    """Scope a kernel-gate override (tests and parity harnesses)."""
    previous = _enabled_override
    set_kernels(enabled)
    try:
        yield
    finally:
        set_kernels(previous)


def _try_load_cext() -> Optional[Dict[str, Callable]]:
    try:
        from repro.phy import _kernels_c

        return _kernels_c.load()
    except Exception as exc:  # ImportError, build failure, ...
        _load_errors["cext"] = f"{type(exc).__name__}: {exc}"
    return None


def _warn_once(message: str) -> None:
    global _warned
    if not _warned:
        _warned = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _ensure_selected() -> None:
    """Probe and pin the compiled backend (once per process)."""
    global _selected, _compiled, _compiled_name
    if _selected:
        return
    with _select_lock:
        if _selected:
            return
        raw = os.environ.get(KERNELS_ENV, "").strip().lower()
        table = None if raw == "numpy" else _try_load_cext()
        if table is None and raw and raw not in _FALSE_STRINGS | {"numpy"}:
            _warn_once(
                f"REPRO_PHY_KERNELS={raw!r} requested compiled kernels but "
                f"the cext backend failed to load ({_load_errors}); using "
                "the numpy fallback"
            )
        _compiled = table
        _compiled_name = None if table is None else "cext"
        _selected = True


def backend() -> str:
    """Name of the backend the dispatch table currently resolves to."""
    if _backend_override is not None:
        return _backend_override
    if not kernels_enabled():
        return "numpy"
    _ensure_selected()
    return _compiled_name if _compiled is not None else "numpy"


def set_backend(name: Optional[str]) -> None:
    """Force a specific backend (tests; ``None`` restores selection).

    Forcing a compiled backend that is unavailable raises.
    """
    global _backend_override, _active_table
    _active_table = None
    if name is None:
        _backend_override = None
        return
    if name not in _BACKEND_NAMES:
        raise ValueError(f"unknown kernel backend {name!r}")
    if name != "numpy":
        _ensure_selected()
        if _compiled is None or _compiled_name != name:
            raise RuntimeError(
                f"kernel backend {name!r} is not loaded "
                f"(selected: {_compiled_name!r}, errors: {_load_errors})"
            )
    _backend_override = name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Scope a forced backend (parity tests)."""
    previous = _backend_override
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def kernel_info() -> Dict[str, object]:
    """Backend availability / selection summary for perf reports."""
    _ensure_selected()
    return {
        "enabled": kernels_enabled(),
        "backend": backend(),
        "compiled_backend": _compiled_name,
        "requested": os.environ.get(KERNELS_ENV),
        "load_errors": dict(_load_errors),
        "kernels": sorted(_DISPATCHED),
        "compiled_kernels": len(_compiled) if _compiled is not None else 0,
    }


def reset_selection() -> None:
    """Drop the pinned backend so the next use re-probes (tests only)."""
    global _selected, _compiled, _compiled_name, _warned, _active_table
    with _select_lock:
        _selected = False
        _compiled = None
        _compiled_name = None
        _load_errors.clear()
        _warned = False
        _active_table = None


def _resolve_active() -> Mapping[str, Callable]:
    if _backend_override is not None:
        if _backend_override == "numpy":
            return _NUMPY_IMPL
        _ensure_selected()
        return _compiled if _compiled is not None else _NUMPY_IMPL
    if not kernels_enabled():
        return _NUMPY_IMPL
    _ensure_selected()
    return _compiled if _compiled is not None else _NUMPY_IMPL


def _active() -> Mapping[str, Callable]:
    # Re-resolving costs ~1 us of env/flag checks per kernel call — at
    # ~15 calls per slot that is real time, so the resolution is cached
    # and invalidated by the override setters / reset_selection().
    table = _active_table
    if table is None:
        table = _resolve_active()
        globals()["_active_table"] = table
    return table


# ---------------------------------------------------------------------------
# numpy fallback implementations (also the semantics reference)
# ---------------------------------------------------------------------------


def _scratch(n: int) -> np.ndarray:
    buf = getattr(_tls, "buf", None)
    if buf is None or len(buf) < n:
        buf = np.empty(max(n, 4096))
        _tls.buf = buf
    return buf[:n]


def _median_of(buf: np.ndarray) -> float:
    """Median of a writable scratch buffer via in-place partition.

    Value-identical to ``np.median`` on finite data: partition places
    the same order statistics, and the even-length mean replays
    ``(part[h-1] + part[h]) / 2``.
    """
    n = buf.size
    h = n >> 1
    if n & 1:
        buf.partition(h)
        return float(buf[h])
    buf.partition([h - 1, h])
    return float((buf[h - 1] + buf[h]) / 2.0)


def _np_median(x: np.ndarray) -> float:
    a = np.asarray(x, dtype=np.float64)
    if a.size == 0:
        return float(np.median(a))
    buf = _scratch(a.size)
    np.copyto(buf, a.ravel())
    return _median_of(buf)


def _np_mad_spread(x: np.ndarray) -> float:
    a = np.asarray(x, dtype=np.float64)
    if a.size == 0:
        return 1.4826 * float(np.median(np.abs(a - np.median(a))))
    med = _np_median(a)
    dev = np.abs(a.ravel() - med)
    return 1.4826 * _median_of(dev)


def _lerp_np(a: float, b: float, t: float) -> float:
    # numpy's _lerp: a + (b-a)*t, flipped to b - (b-a)*(1-t) at t>=0.5
    d = b - a
    if t >= 0.5:
        return b - d * (1.0 - t)
    return a + d * t


def _np_two_quantiles(
    x: np.ndarray, q0: float, q1: float
) -> Tuple[float, float]:
    """``np.quantile(x, [q0, q1], method="linear")`` via one partition."""
    a = np.asarray(x, dtype=np.float64)
    n = a.size
    if n == 0:
        lo, hi = np.quantile(a, [q0, q1])
        return float(lo), float(hi)
    buf = _scratch(n)
    np.copyto(buf, a.ravel())
    results = []
    kths = []
    spans = []
    for q in (q0, q1):
        # numpy's virtual index for the 'linear' method: (n - 1) * q.
        virt = (n - 1) * q
        if virt >= n - 1:
            jp = jn = n - 1
            gamma = 0.0
        elif virt < 0.0:
            jp = jn = 0
            gamma = 0.0
        else:
            fl = math.floor(virt)
            jp = int(fl)
            jn = jp + 1
            gamma = virt - fl
        spans.append((jp, jn, gamma))
        kths.extend((jp, jn))
    buf.partition(sorted(set(kths)))
    for jp, jn, gamma in spans:
        results.append(_lerp_np(float(buf[jp]), float(buf[jn]), gamma))
    return results[0], results[1]


def _np_schmitt_states(
    projected: np.ndarray, hi: float, lo: float, initial: int
) -> np.ndarray:
    """Vectorised hysteresis state track (forward-filled forcings)."""
    p = np.asarray(projected)
    n = p.size
    marks = np.full(n, -1, dtype=np.int8)
    marks[p >= hi] = 1
    marks[p <= lo] = 0
    forced = np.where(marks >= 0, np.arange(n), -1)
    np.maximum.accumulate(forced, out=forced)
    out = np.where(forced >= 0, marks[np.maximum(forced, 0)], np.int8(initial))
    return out.astype(np.int8)


def _np_hysteresis_slice(
    env: np.ndarray, hi: float, lo: float
) -> np.ndarray:
    e = np.asarray(env, dtype=float)
    if hi > lo:
        # Thresholds are disjoint, so the forced-state forward fill is
        # exactly the sequential comparator with initial state 0.
        return _np_schmitt_states(e, hi, lo, 0)
    out = np.empty(e.size, dtype=np.int8)
    state = 0
    for i, v in enumerate(e):
        if state == 0 and v >= hi:
            state = 1
        elif state == 1 and v <= lo:
            state = 0
        out[i] = state
    return out


def _np_fm0_pairs(raw, initial_level: int = 1):
    arr = np.ascontiguousarray(raw, dtype=np.uint8)
    first = arr[0::2]
    second = arr[1::2]
    bits = (first == second).view(np.uint8)
    viol = np.empty(first.size, dtype=np.uint8)
    if first.size:
        viol[0] = 1 if int(first[0]) == int(initial_level) else 0
        np.equal(first[1:], second[:-1], out=viol[1:].view(bool))
    return bits, viol


def _np_envelope_rc(waveform: np.ndarray, alpha: float) -> np.ndarray:
    from scipy.signal import lfilter

    rectified = np.abs(np.asarray(waveform, dtype=float))
    out = lfilter([alpha], [1.0, -(1.0 - alpha)], rectified)
    return out * (math.pi / 2.0)


def _np_sosfilt_complex(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    from scipy.signal import sosfilt

    return sosfilt(sos, x)


def _mix_scratch(n: int) -> np.ndarray:
    buf = getattr(_tls, "mixed", None)
    if buf is None or len(buf) < n:
        buf = np.empty(max(n, 4096), dtype=complex)
        _tls.mixed = buf
    return buf[:n]


def _np_mix_sosfilt_decimate(
    x: np.ndarray, lo: np.ndarray, sos: np.ndarray, decimation: int
) -> np.ndarray:
    from scipy.signal import sosfilt

    mixed = np.multiply(x, lo, out=_mix_scratch(len(x)))
    filtered = sosfilt(sos, mixed)
    if decimation == 1:
        return filtered
    return np.ascontiguousarray(filtered[::decimation])


def _np_project_center(
    iq: np.ndarray,
) -> Tuple[float, float, float, float]:
    """Constellation centre + second moment (medians of re/im/z2)."""
    c_re = _np_median(iq.real)
    c_im = _np_median(iq.imag)
    z = iq - complex(c_re, c_im)
    z2 = z**2
    return c_re, c_im, _np_median(z2.real), _np_median(z2.imag)


def _np_project_finish(
    iq: np.ndarray,
    c_re: float,
    c_im: float,
    rot_re: float,
    rot_im: float,
    q0: float,
    q1: float,
) -> np.ndarray:
    """Rotate-project onto the modulation axis and re-centre.

    The rotation multiply stays a numpy complex product — its SIMD
    loop is FMA-contracted, so a hand-expanded ``z.real*rot_re -
    z.imag*rot_im`` would drift by an ulp (the compiled backends
    replay the contracted form with explicit ``fma``).
    """
    z = iq - complex(c_re, c_im)
    projected = np.real(z * complex(rot_re, rot_im))
    lo, hi = _np_two_quantiles(projected, q0, q1)
    return projected - (lo + hi) / 2.0


def _np_schmitt_full(
    projected: np.ndarray, hysteresis: float, drift: float
) -> np.ndarray:
    p = np.asarray(projected, dtype=np.float64)
    spread = _np_mad_spread(p)
    if spread == 0.0:
        return np.zeros(p.size, dtype=np.int8)
    center = drift * spread
    hi = center + hysteresis * spread
    lo = center - hysteresis * spread
    initial = 1 if p[0] > center else 0
    return _np_schmitt_states(p, hi, lo, initial)


def _np_bit_grid(
    n_samples: int,
    samples_per_bit: float,
    grid_offset: float,
    margin: float,
) -> Tuple[np.ndarray, np.ndarray]:
    count = int(n_samples / samples_per_bit) + 2
    if count <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    steps = np.full(count, samples_per_bit)
    steps[0] = grid_offset
    starts = np.add.accumulate(steps)
    ends = starts + samples_per_bit
    valid = int(np.count_nonzero(ends <= n_samples))
    if valid == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    starts = starts[:valid]
    lo_idx = np.rint(starts + margin).astype(np.intp)
    hi_idx = np.rint((starts + samples_per_bit) - margin).astype(np.intp)
    keep = hi_idx > lo_idx
    if not keep.all():
        lo_idx = lo_idx[keep]
        hi_idx = hi_idx[keep]
    return lo_idx, hi_idx


def _np_hist2d_counts(
    x: np.ndarray,
    y: np.ndarray,
    bins: int,
    x_range: Tuple[float, float],
    y_range: Tuple[float, float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    x_edges = np.linspace(x_range[0], x_range[1], bins + 1)
    y_edges = np.linspace(y_range[0], y_range[1], bins + 1)
    nx = np.searchsorted(x_edges, x, side="right")
    ny = np.searchsorted(y_edges, y, side="right")
    nx[x == x_edges[-1]] -= 1
    ny[y == y_edges[-1]] -= 1
    ok = (nx > 0) & (nx <= bins) & (ny > 0) & (ny <= bins)
    flat = (nx[ok] - 1) * bins + (ny[ok] - 1)
    hist = np.bincount(flat, minlength=bins * bins).astype(np.float64)
    return hist.reshape(bins, bins), x_edges, y_edges


def _np_cluster_histogram(
    iq: np.ndarray, bins: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.asarray(iq, dtype=complex)
    re, im = pts.real, pts.imag
    lo_r, hi_r = _np_two_quantiles(re, 1.0 / 100.0, 99.0 / 100.0)
    lo_i, hi_i = _np_two_quantiles(im, 1.0 / 100.0, 99.0 / 100.0)
    pad_r = max((hi_r - lo_r) * 0.1, 1e-12)
    pad_i = max((hi_i - lo_i) * 0.1, 1e-12)
    return _np_hist2d_counts(
        re, im, bins, (lo_r - pad_r, hi_r + pad_r), (lo_i - pad_i, hi_i + pad_i)
    )


def _np_cluster_peaks(
    hist: np.ndarray, peak_threshold: float
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    from scipy.ndimage import label, maximum_filter, uniform_filter

    smoothed = uniform_filter(hist, size=3, mode="constant")
    smax = float(smoothed.max())
    if smax <= 0:
        return smoothed, np.zeros(hist.shape, dtype=np.int32), 0, smax
    peak_mask = (smoothed == maximum_filter(smoothed, size=3, mode="constant")) & (
        smoothed >= peak_threshold * smax
    )
    labels, n_peaks = label(peak_mask)
    return smoothed, labels.astype(np.int32, copy=False), int(n_peaks), smax


_NUMPY_IMPL: Dict[str, Callable] = {
    "median": _np_median,
    "mad_spread": _np_mad_spread,
    "two_quantiles": _np_two_quantiles,
    "project_center": _np_project_center,
    "project_finish": _np_project_finish,
    "schmitt_states": _np_schmitt_states,
    "schmitt_full": _np_schmitt_full,
    "hysteresis_slice": _np_hysteresis_slice,
    "fm0_pairs": _np_fm0_pairs,
    "bit_grid": _np_bit_grid,
    "hist2d_counts": _np_hist2d_counts,
    "cluster_histogram": _np_cluster_histogram,
    "cluster_peaks": _np_cluster_peaks,
    "envelope_rc": _np_envelope_rc,
    "sosfilt_complex": _np_sosfilt_complex,
    "mix_sosfilt_decimate": _np_mix_sosfilt_decimate,
}

_DISPATCHED = frozenset(_NUMPY_IMPL)


# ---------------------------------------------------------------------------
# dispatched kernels
# ---------------------------------------------------------------------------


def median(x: np.ndarray) -> float:
    """``float(np.median(x))`` for finite 1-D data."""
    return _active()["median"](x)


def mad_spread(x: np.ndarray) -> float:
    """``1.4826 * median(|x - median(x)|)`` (the Schmitt spread)."""
    return _active()["mad_spread"](x)


def two_quantiles(x: np.ndarray, q0: float, q1: float) -> Tuple[float, float]:
    """``np.quantile(x, [q0, q1])`` (linear method), ``q0 <= q1``."""
    return _active()["two_quantiles"](x, q0, q1)


def two_percentiles(
    x: np.ndarray, p0: float, p1: float
) -> Tuple[float, float]:
    """``np.percentile(x, [p0, p1])`` — quantiles scaled from percent."""
    return _active()["two_quantiles"](x, p0 / 100.0, p1 / 100.0)


def project_center(iq: np.ndarray) -> Tuple[float, float, float, float]:
    """``(c_re, c_im, m_re, m_im)``: component-wise median centre of a
    complex constellation plus the medians of ``(iq - centre)**2``."""
    return _active()["project_center"](iq)


def project_finish(
    iq: np.ndarray,
    c_re: float,
    c_im: float,
    rot_re: float,
    rot_im: float,
    q0: float,
    q1: float,
) -> np.ndarray:
    """``real((iq - centre) * rot)`` recentred between its ``q0``/``q1``
    quantiles (the OOK decision-axis projection)."""
    return _active()["project_finish"](iq, c_re, c_im, rot_re, rot_im, q0, q1)


def project(iq: np.ndarray) -> np.ndarray:
    """Full modulation-axis projection of a complex baseband.

    Fuses the two compiled halves of
    :meth:`repro.phy.reader_dsp.ReaderReceiveChain.project` around the
    scalar angle/phasor step, which stays in numpy: ``np.angle`` /
    ``np.exp`` may route through SIMD code paths a C replica could
    diverge from by an ulp, and at scalar size they cost nothing.
    """
    if len(iq) == 0:
        # An empty capture projects to an empty axis on every backend
        # (the quantile re-centre is undefined over zero samples).
        return np.empty(0, dtype=np.float64)
    table = _active()
    fused = table.get("project")
    if fused is not None:
        # The C backend composes both halves around one input copy.
        return fused(iq)
    c_re, c_im, m_re, m_im = table["project_center"](iq)
    second_moment = m_re + 1j * m_im
    theta = 0.5 * np.angle(second_moment) if second_moment != 0 else 0.0
    rot = np.exp(-1j * theta)
    return table["project_finish"](
        iq, c_re, c_im, rot.real, rot.imag, 10.0 / 100.0, 90.0 / 100.0
    )


def schmitt_states(
    projected: np.ndarray, hi: float, lo: float, initial: int
) -> np.ndarray:
    """Hysteresis state track (int8) with the given initial state.

    Forcing order matches the vectorised reference: the low threshold
    wins if a sample satisfies both (possible only when ``hi <= lo``).
    """
    return _active()["schmitt_states"](projected, hi, lo, initial)


def schmitt_full(
    projected: np.ndarray, hysteresis: float, drift: float
) -> np.ndarray:
    """MAD spread + drift/hysteresis thresholds + state track, fused.

    Returns all zeros when the spread collapses to 0 (flat input), the
    same degenerate-slot contract as the receive chain's ``schmitt``.
    """
    return _active()["schmitt_full"](projected, hysteresis, drift)


def hysteresis_slice(env: np.ndarray, hi: float, lo: float) -> np.ndarray:
    """Comparator state machine (int8), initial state 0, state-gated
    threshold checks (the tag front-end semantics)."""
    return _active()["hysteresis_slice"](env, hi, lo)


def fm0_pairs(raw, initial_level: int = 1):
    """FM0 half-bit pair decode: ``(bits, violations)`` uint8 arrays.

    Assumes ``raw`` holds 0/1 values with even length (the internal
    receive-chain contract); :func:`repro.phy.fm0.fm0_decode` remains
    the validating reference implementation.
    """
    return _active()["fm0_pairs"](raw, initial_level)


def envelope_rc(waveform: np.ndarray, alpha: float) -> np.ndarray:
    """Rectify + single-pole IIR + peak rescale (envelope detector)."""
    return _active()["envelope_rc"](waveform, alpha)


def sosfilt_complex(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.sosfilt`` on complex data, zero initial state."""
    return _active()["sosfilt_complex"](sos, x)


def mix_sosfilt_decimate(
    x: np.ndarray, lo: np.ndarray, sos: np.ndarray, decimation: int
) -> np.ndarray:
    """Fused ``(x * lo) -> sosfilt -> [::decimation]`` downconversion."""
    return _active()["mix_sosfilt_decimate"](x, lo, sos, decimation)


# ---------------------------------------------------------------------------
# structural kernels
# ---------------------------------------------------------------------------

#: Bins-per-axis ceiling of the compiled 2-D histogram kernels; larger
#: requests route to the numpy implementation.
MAX_HIST_BINS = 64


def bit_grid(
    n_samples: int,
    samples_per_bit: float,
    grid_offset: float,
    margin: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate-and-dump bit grid: ``(lo_idx, hi_idx)`` window edges.

    Replays the sequential ``start += samples_per_bit`` left fold
    (every ``start`` bit-identical to the loop's), rounds window edges
    with ``np.rint`` semantics (half-to-even), preserves the loop's
    association ``(start + samples_per_bit) - margin`` for the upper
    edge, and drops empty windows (``hi <= lo``).
    """
    if samples_per_bit <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return _active()["bit_grid"](n_samples, samples_per_bit, grid_offset, margin)


def bit_window_sums(
    projected: np.ndarray, lo_idx: np.ndarray, hi_idx: np.ndarray
) -> np.ndarray:
    """Per-window sums via one ``np.add.reduceat`` over interleaved
    ``[lo0, hi0, lo1, hi1, ...]`` edges (odd segments discarded)."""
    inter = np.empty(2 * len(lo_idx), dtype=np.intp)
    inter[0::2] = lo_idx
    inter[1::2] = hi_idx
    padded = np.append(projected, 0.0)
    return np.add.reduceat(padded, inter)[0::2]


def _stack_scratch(rows: int, cols: int) -> np.ndarray:
    need = rows * cols
    buf = getattr(_tls, "stack", None)
    if buf is None or buf.size < need:
        buf = np.empty(max(need, 4096), dtype=complex)
        _tls.stack = buf
    return buf[:need].reshape(rows, cols)


def combine_templates(
    out_iq: np.ndarray,
    pairs,
    coefs: np.ndarray,
) -> None:
    """GEMM-shaped slot combine: ``out_iq += coefs @ stack(pairs)``.

    ``pairs`` is a flat sequence of equal-length template rows (the
    ``bc``/``bs`` quadrature prefixes of every transmitter in the
    slot); ``coefs`` carries the per-row amplitude/phase weights
    (``a*cos(p)`` / ``-a*sin(p)``).  The rows are stacked into one
    matrix (grow-once scratch) and collapsed with a single BLAS
    ``gemv`` instead of ``2N`` sequential axpy passes.  Summation
    order differs from the sequential combine only by ulp-level
    reassociation — the fast-vs-reference differential suite is the
    correctness gate, exactly as for the template cache itself.
    """
    k = len(pairs)
    if k == 0:
        return
    m = len(out_iq)
    stack = _stack_scratch(k, m)
    for row, template in zip(stack, pairs):
        np.copyto(row, template[:m])
    out_iq += np.dot(coefs, stack)


def hist2d_counts(
    x: np.ndarray,
    y: np.ndarray,
    bins: int,
    x_range: Tuple[float, float],
    y_range: Tuple[float, float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.histogram2d`` with scalar ``bins`` + explicit ``range``.

    Replays ``histogramdd``'s exact binning: ``linspace`` edges,
    right-side ``searchsorted`` with the last-edge fixup, outliers
    dropped — minus its generic-dispatch overhead.
    """
    if bins > MAX_HIST_BINS:
        return _np_hist2d_counts(x, y, bins, x_range, y_range)
    return _active()["hist2d_counts"](x, y, bins, x_range, y_range)


def cluster_histogram(
    iq: np.ndarray, bins: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robust constellation histogram: 1st/99th-percentile box, 10%
    padding (floor 1e-12), then :func:`hist2d_counts` over the padded
    range.  ``iq`` must be non-empty (the cluster detector's contract).
    """
    if bins > MAX_HIST_BINS:
        return _np_cluster_histogram(iq, bins)
    return _active()["cluster_histogram"](iq, bins)


def cluster_peaks(
    hist: np.ndarray, peak_threshold: float
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Density-peak detection on a square histogram.

    Returns ``(smoothed, labels, n_peaks, smax)``: the 3x3
    box-smoothed grid (``scipy.ndimage.uniform_filter`` semantics,
    constant-0 border), int32 component labels of the local maxima at
    or above ``peak_threshold * smax`` (4-connected, numbered in
    raster order of first appearance, exactly ``scipy.ndimage.label``),
    the component count, and the smoothed grid's maximum.  When
    ``smax <= 0`` the labels are all zero and ``n_peaks`` is 0.
    """
    if hist.shape[0] > MAX_HIST_BINS:
        return _np_cluster_peaks(hist, peak_threshold)
    return _active()["cluster_peaks"](hist, peak_threshold)


__all__ = [
    "KERNELS_ENV",
    "kernels_enabled",
    "set_kernels",
    "use_kernels",
    "backend",
    "set_backend",
    "use_backend",
    "kernel_info",
    "reset_selection",
    "median",
    "mad_spread",
    "two_quantiles",
    "two_percentiles",
    "project",
    "project_center",
    "project_finish",
    "schmitt_states",
    "schmitt_full",
    "hysteresis_slice",
    "fm0_pairs",
    "envelope_rc",
    "sosfilt_complex",
    "mix_sosfilt_decimate",
    "bit_grid",
    "bit_window_sums",
    "combine_templates",
    "hist2d_counts",
    "cluster_histogram",
    "cluster_peaks",
]
