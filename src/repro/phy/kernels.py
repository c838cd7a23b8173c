"""Compiled-kernel tier for the simulator's hot loops (Gen-3 speed work).

The DSP-in-the-loop waveform tier spends its residual per-slot time in
a handful of numpy-bound inner loops: the order statistics inside
:meth:`ReaderReceiveChain.project` / ``schmitt``, the per-bit sampling
grid, FM0 pair decoding, envelope detection, the receive-filter
recurrences, the receiver-noise synthesis, and the per-tag template
combine.  The fleet tier's batched slot step (:func:`fleet_run`, for
one slot or many) is the other one: dozens of small array operations
per slot over a few hundred networks; its RNG banks seed and refill
thousands of PCG64 streams per engine (:func:`pcg64_seed`,
:func:`pcg64_refill`), whose seeds are thousands of SHA-256 digests
(:func:`stream_seeds`).  This module routes each of those through one
of two interchangeable backends:

* ``cext`` — a small C translation unit compiled once per process
  family with the system compiler and loaded via ctypes
  (:mod:`repro.phy._kernels_c`); the build is content-addressed and
  cached on disk.
* ``numpy`` — pure numpy/scipy fallback, always available.  Its order
  statistics use in-place ``ndarray.partition`` (value-identical to
  ``np.median`` / ``np.percentile`` but without their dispatch
  overhead), so even the fallback is faster than the pre-kernel code.
  Every median and quantile, on either backend, adds ``0.0`` to its
  result: a zero is then ``+0.0`` whichever tied signed zero the
  partition placed, so the result depends only on the values.

Every backend is **bit-exact** against the numpy expressions the call
sites used before (see the equivalence notes in
:mod:`repro.phy._kernels_c`); the kernels-on/off parity suite pins
byte-identical slot logs across backends.  Inputs are assumed finite —
the waveform tier synthesises finite signals; what the selection
kernels return for NaN input is unspecified, but every entry
returns.

Selection happens once, lazily, at first kernel use, and always tries
to load the ``cext`` library (so :func:`kernel_info` can report it and
:func:`set_backend` can force it).  ``REPRO_PHY_KERNELS=numpy`` (or
``0`` / ``false`` / ``off`` / ``no``, all the same request) runs every
kernel on numpy; any other value, or none, runs the compiled backend
when it loaded.  When a value other than a numpy spelling is set but
the library failed to load, selection warns once and numpy runs.

Beyond the primitive kernels, whole receive-chain stages are fused so
one Python-level call covers one profiled stage or more:
:func:`fm0_chain` (the FM0 decoder from offset calibration to both FM0
alignments' pairs: offset estimate and de-rotation, projection,
Schmitt slicing, bit grid and window sums), :func:`project`
(constellation centring + axis rotation + re-centring, for the
non-FM0 demodulators), :func:`schmitt_full` (spread + thresholds +
state track), :func:`iq_clusters` (the whole IQ-cluster collision
detector: settling trim, energy guard, plateau filter, constellation
histogram, smoothing and peak count), :func:`receiver_noise` (the
complex noise build and its filter) and :func:`fleet_run` (whole
slots of a fleet engine, as many as asked).  The fusions eliminate the
per-call dispatch/marshalling overhead that otherwise dominates
sub-100-us stages.  The compiled table also holds each fused entry's stages
(``median``, ``project_center``, ``cluster_histogram``, ...), which the
exactness battery compares with their numpy twins.  A fused entry
whose arithmetic depends on how the host's numpy was built
(``iq_clusters`` on ``np.abs``, ``fm0_chain`` on ``np.exp``) is
registered only when a load-time probe shows it matching numpy byte
for byte; elsewhere that entry runs its numpy reference (see
:func:`kernel_info`'s ``composed``).  So are the PCG64 entries, which
replay numpy's ``SeedSequence``, ``PCG64`` and ``Generator`` draws:
numpy does not promise the same streams across versions.  They are
also left out where the compiler has no ``__int128``.  So is the
stream-seed entry, whose C replica of SHA-256 must match ``hashlib``.

The GEMM-shaped slot combine (:func:`combine_templates`),
:func:`bit_window_sums` and :func:`raw_bit_sums` are
backend-independent: they are pure numpy/BLAS calls whose results are
identical on either backend.

The resolved dispatch table is cached after the first kernel call;
switching backends mid-process goes through :func:`set_backend` /
:func:`use_backend` (which invalidate the cache), not by editing
``os.environ`` afterwards — :func:`reset_selection` re-reads the
environment.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

#: Environment variable selecting the kernel backend.
KERNELS_ENV = "REPRO_PHY_KERNELS"

#: ``REPRO_PHY_KERNELS`` values that all ask for the numpy backend.
_NUMPY_SPELLINGS = frozenset({"0", "false", "off", "no", "numpy"})
_BACKEND_NAMES = ("cext", "numpy")

#: Bins-per-axis ceiling of the compiled 2-D histogram kernels; larger
#: requests route to the numpy implementation.
MAX_HIST_BINS = 64

#: Widest tag roster the compiled fleet step takes: it memoises capture
#: verdicts in a table indexed by the transmitter bitmask (2**T
#: entries).  The paper's TID is 4 bits; wider rosters run the numpy
#: step.
MAX_FLEET_TAGS = 16

#: Longest capture the compiled FM0 chain takes; longer ones route to
#: the numpy reference.  From 256 KiB up numpy elides temporaries: it
#: evaluates ``a * tmp`` in place as ``tmp * a``, and its FMA-contracted
#: complex multiply rounds the swapped product's imaginary part
#: differently.  The chain replays the unswapped order of
#: ``correct_frequency_offset`` (``iq * np.exp(...)``) and of the offset
#: estimate, whose temporaries hold one complex128 per sample.
MAX_CHAIN_SAMPLES = 256 * 1024 // 16 - 1

#: Integer bounds from here up run :func:`pcg64_refill`'s numpy twin:
#: numpy draws them from 64-bit words, the compiled entry from 32-bit
#: halves.
PCG64_BOUND_LIMIT = 1 << 32

_backend_override: Optional[str] = None

_select_lock = threading.Lock()
_selected = False
_compiled: Optional[Dict[str, Callable]] = None
_load_errors: Dict[str, str] = {}

#: Cached result of :func:`_resolve_active` — invalidated by
#: :func:`set_backend` and by :func:`reset_selection`.
_active_table: Optional[Mapping[str, Callable]] = None

_tls = threading.local()


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def _requested() -> str:
    return os.environ.get(KERNELS_ENV, "").strip().lower()


def _try_load_cext() -> Optional[Dict[str, Callable]]:
    try:
        from repro.phy import _kernels_c

        return _kernels_c.load()
    except Exception as exc:  # ImportError, build failure, ...
        _load_errors["cext"] = f"{type(exc).__name__}: {exc}"
    return None


def _ensure_selected() -> None:
    """Load the compiled backend (once per process; may fail)."""
    global _selected, _compiled
    if _selected:
        return
    with _select_lock:
        if _selected:
            return
        _compiled = _try_load_cext()
        raw = _requested()
        if _compiled is None and raw and raw not in _NUMPY_SPELLINGS:
            warnings.warn(
                f"REPRO_PHY_KERNELS={raw!r} requested compiled kernels but "
                f"the cext backend failed to load ({_load_errors}); using "
                "the numpy fallback",
                RuntimeWarning,
                stacklevel=3,
            )
        _selected = True


def _numpy_requested() -> bool:
    if _backend_override is not None:
        return _backend_override == "numpy"
    return _requested() in _NUMPY_SPELLINGS


def _resolve_active() -> Mapping[str, Callable]:
    if _numpy_requested():
        return _NUMPY_IMPL
    _ensure_selected()
    return _compiled if _compiled is not None else _NUMPY_IMPL


def backend() -> str:
    """Name of the backend the dispatch table currently resolves to."""
    return "cext" if _resolve_active() is _compiled else "numpy"


def set_backend(name: Optional[str]) -> None:
    """Force a backend over ``REPRO_PHY_KERNELS``; ``None`` restores it.

    All backends are bit-exact, so this is an escape hatch and an A/B
    lever, not a correctness switch.  Forcing ``cext`` when its library
    did not load raises.
    """
    global _backend_override, _active_table
    _active_table = None
    if name is None:
        _backend_override = None
        return
    if name not in _BACKEND_NAMES:
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "cext":
        _ensure_selected()
        if _compiled is None:
            raise RuntimeError(
                f"kernel backend 'cext' is not loaded (errors: {_load_errors})"
            )
    _backend_override = name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Scope a forced backend (tests and parity harnesses)."""
    previous = _backend_override
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def kernel_info() -> Dict[str, object]:
    """Backend availability / selection summary for perf reports.

    ``fallback_reason`` explains an unrequested numpy fallback;
    ``composed`` names compiled entries a load-time probe left out
    (their numpy reference runs instead); ``routes`` names inputs
    a compiled entry always leaves to its numpy reference;
    ``cache_repairs`` lists cached libraries that failed verification
    and were rebuilt.
    """
    from repro.phy import _kernels_c

    _ensure_selected()
    fallback_reason = None
    if _compiled is None and not _numpy_requested():
        fallback_reason = "cext unavailable: " + _load_errors.get(
            "cext", "not loaded"
        )
    return {
        "backend": backend(),
        "requested": os.environ.get(KERNELS_ENV),
        "load_errors": dict(_load_errors),
        "fallback_reason": fallback_reason,
        "composed": dict(_kernels_c.PROBE_FAILURES) if _compiled else {},
        "routes": {
            "fleet_run": "energy-mode fleets (their supercapacitor physics "
            f"is float work) and rosters over {MAX_FLEET_TAGS} tags run the "
            "engine's numpy step",
            "pcg64_refill": "integer bounds outside [1, 2**32) run the numpy "
            "twin",
            "stream_seeds": "master seeds outside [0, 2**64) run the "
            "RandomStreams twin",
        },
        "cache_repairs": list(_kernels_c.CACHE_REPAIRS),
        "kernels": sorted(_NUMPY_IMPL),
        "compiled_kernels": len(_compiled) if _compiled is not None else 0,
    }


def reset_selection() -> None:
    """Drop the loaded backend so the next use re-probes (tests only)."""
    global _selected, _compiled, _active_table
    with _select_lock:
        _selected = False
        _compiled = None
        _load_errors.clear()
        _active_table = None


def _active() -> Mapping[str, Callable]:
    # Re-resolving costs ~1 us of env/flag checks per kernel call — at
    # ~15 calls per slot that is real time, so the resolution is cached
    # and invalidated by set_backend() / reset_selection().
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
    ``(part[h-1] + part[h]) / 2``.  Plus ``0.0``: which of several tied
    ``+0.0`` / ``-0.0`` lands at the middle depends on how the
    partition runs, so a zero median is always ``+0.0``.  The result
    then depends only on the values, on either backend.
    """
    n = buf.size
    h = n >> 1
    if n & 1:
        buf.partition(h)
        return float(buf[h]) + 0.0
    buf.partition([h - 1, h])
    return float((buf[h - 1] + buf[h]) / 2.0) + 0.0


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
    """``np.quantile(x, [q0, q1], method="linear")`` via one partition,
    each plus ``0.0`` (a zero quantile is ``+0.0``, as for
    :func:`_median_of`)."""
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
        results.append(_lerp_np(float(buf[jp]), float(buf[jn]), gamma) + 0.0)
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


def _np_receiver_noise(
    draws: np.ndarray, scale: float, sos: np.ndarray
) -> np.ndarray:
    from scipy.signal import sosfilt

    n = draws.size // 2
    if n == 0:
        # sosfilt cannot reshape an empty signal.
        return np.empty(0, dtype=np.complex128)
    return sosfilt(sos, (draws[:n] + 1j * draws[n:]) * scale)


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
    if p.size == 0:
        return np.zeros(0, dtype=np.int8)
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
    """Integrate-and-dump bit grid: ``(lo_idx, hi_idx)`` window edges.

    Replays the sequential ``start += samples_per_bit`` left fold
    (every ``start`` bit-identical to the loop's), rounds window edges
    with ``np.rint`` semantics (half-to-even), preserves the loop's
    association ``(start + samples_per_bit) - margin`` for the upper
    edge, and drops empty windows (``hi <= lo``).  No windows for a
    non-positive ``samples_per_bit``.
    """
    if samples_per_bit <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
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


def detect_points(
    iq: np.ndarray,
) -> Tuple[Optional[int], np.ndarray, float, float]:
    """The collision detector's stages before its histogram, on numpy.

    Returns ``(verdict, pts, total_var, noise_var)``.  ``verdict`` is
    the cluster count when the detector stops here — 0 when fewer than
    8 samples follow the settling trim (both statistics are then NaN),
    1 when the energy guard finds no modulation — and None when ``pts``
    go on to the histogram.  ``pts`` is the trimmed capture, or its
    plateau samples when at least 50 of them survive.
    """
    # Drop the filter's settling transient.
    settle = min(len(iq) // 10, 200)
    pts = iq[settle:]
    if len(pts) < 8:
        return 0, pts, math.nan, math.nan
    # Modulation-energy guard: a slot with no backscatter is just the
    # static leak plus noise — its constellation is one noise blob, not
    # a set of modes.  Compare the total spread against the fast
    # (sample-to-sample) noise estimated from first differences; only
    # genuinely modulated captures proceed to peak counting.
    z = pts - np.mean(pts)
    total_var = float(np.mean(np.abs(z) ** 2))
    noise_var = float(np.mean(np.abs(np.diff(z)) ** 2)) / 2.0
    if noise_var <= 0 or total_var < 12.0 * noise_var:
        return 1, pts, total_var, noise_var
    # Drop transition samples (large sample-to-sample movement): the
    # rate-matched LPF smears level changes into ridges that would
    # otherwise masquerade as extra constellation modes.
    step = np.abs(np.diff(pts))
    plateau = pts[1:][step < 3.0 * _np_median(step)]
    if len(plateau) >= 50:
        pts = plateau
    return None, pts, total_var, noise_var


def _np_iq_clusters(
    iq: np.ndarray, bins: int, peak_threshold: float, guard: bool
) -> Tuple[int, float, float]:
    pts = np.asarray(iq, dtype=complex)
    total_var = noise_var = math.nan
    if guard:
        verdict, pts, total_var, noise_var = detect_points(pts)
        if verdict is not None:
            return verdict, total_var, noise_var
    if pts.size == 0:
        return 0, total_var, noise_var
    hist, _, _ = _np_cluster_histogram(pts, bins)
    _, _, n_peaks, smax = _np_cluster_peaks(hist, peak_threshold)
    return (n_peaks if smax > 0 else 1), total_var, noise_var


def _axis_rotation(m_re: float, m_im: float) -> Tuple[float, float]:
    """The unit phasor turning the modulation axis onto the real one:
    ``exp(-i theta)``, ``theta`` half the second moment's angle (0 for a
    zero moment).  Scalar numpy on every backend."""
    second_moment = m_re + 1j * m_im
    theta = 0.5 * np.angle(second_moment) if second_moment != 0 else 0.0
    rot = np.exp(-1j * theta)
    return rot.real, rot.imag


def _bit_grid_offset(mean_phasor: complex, samples_per_bit: float) -> float:
    """Bit-grid phase in samples from the transitions' mean unit phasor
    (their circular mean).  Scalar numpy on every backend."""
    angle = np.angle(mean_phasor)
    return (angle / (2 * math.pi)) % 1.0 * samples_per_bit


def _np_project(iq: np.ndarray) -> np.ndarray:
    c_re, c_im, m_re, m_im = _np_project_center(iq)
    rot_re, rot_im = _axis_rotation(m_re, m_im)
    return _np_project_finish(
        iq, c_re, c_im, rot_re, rot_im, 10.0 / 100.0, 90.0 / 100.0
    )


def raw_bit_sums(
    projected: np.ndarray, binary: np.ndarray, samples_per_bit: float
) -> Optional[np.ndarray]:
    """Per-bit matched-filter sums of a sliced projection, or ``None``
    when no bit grid can be established (no slicer transitions / no
    full windows).

    Bit-grid phase is estimated from the circular mean of the slicer's
    transition positions modulo the bit period; each sum integrates
    the projected signal over the central 80% of its bit (one
    ``np.add.reduceat``, see :func:`bit_window_sums`) — the
    matched-filter step that buys back the per-sample noise.  The raw
    bit is the sign of the sum.  Numpy on every backend: the compiled
    :func:`fm0_chain` runs its own copy of this stage.
    """
    transitions = np.flatnonzero(np.diff(binary) != 0) + 1
    if transitions.size == 0:
        return None
    phases = (transitions % samples_per_bit) / samples_per_bit
    grid_offset = _bit_grid_offset(
        np.mean(np.exp(2j * math.pi * phases)), samples_per_bit
    )
    lo_idx, hi_idx = _np_bit_grid(
        len(projected), samples_per_bit, grid_offset, 0.1 * samples_per_bit
    )
    if lo_idx.size == 0:
        return None
    return bit_window_sums(projected, lo_idx, hi_idx)


def _np_fm0_chain(
    iq: np.ndarray,
    baseband_rate_hz: float,
    raw_rate_bps: float,
    hysteresis: float,
    drift: float,
):
    """:func:`fm0_chain` stage by stage: the semantics reference."""
    from repro.phy.iq import correct_frequency_offset, frequency_offset_estimate

    offset = frequency_offset_estimate(iq, baseband_rate_hz)
    baseband = correct_frequency_offset(iq, offset, baseband_rate_hz)
    projected = _np_project(baseband)
    binary = _np_schmitt_full(projected, hysteresis, drift)
    sums = raw_bit_sums(projected, binary, baseband_rate_hz / raw_rate_bps)
    # bool -> uint8 is a view.
    raw = (
        np.empty(0, dtype=np.uint8) if sums is None else (sums > 0).view(np.uint8)
    )
    alignments = []
    for start in (0, 1):
        pairs = (raw.size - start) // 2
        if pairs > 0:
            bits, viol = _np_fm0_pairs(raw[start : start + 2 * pairs])
            alignments.append((start, bits, int(viol.sum())))
    return baseband, offset, raw, tuple(alignments)


def _np_fleet_run(engine, n_slots: int, streak: int) -> int:
    return engine._run_numpy(n_slots, streak)


_MASK64 = (1 << 64) - 1


def _pcg64_row(bitgen: np.random.PCG64) -> List[int]:
    state = bitgen.state
    value, inc = state["state"]["state"], state["state"]["inc"]
    return [
        value >> 64, value & _MASK64, inc >> 64, inc & _MASK64,
        state["has_uint32"], state["uinteger"],
    ]


def _pcg64_state(row: List[int]) -> Dict[str, object]:
    """numpy's ``PCG64.state`` for one :func:`pcg64_seed` row."""
    hi, lo, inc_hi, inc_lo, has_uint32, uinteger = row
    return {
        "bit_generator": "PCG64",
        "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def _np_pcg64_seed(seeds: np.ndarray) -> np.ndarray:
    states = np.empty((seeds.size, 6), dtype=np.uint64)
    for row, seed in enumerate(seeds.tolist()):
        states[row] = _pcg64_row(np.random.PCG64(seed))
    return states


def _np_pcg64_refill(
    states: np.ndarray,
    buf: np.ndarray,
    cursor: np.ndarray,
    needed: int,
    bounds: Optional[np.ndarray],
) -> None:
    block = buf.shape[1]
    low = np.flatnonzero(cursor + needed > block).tolist()
    if not low:
        return
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for s in low:
        cur = int(cursor[s])
        rem = block - cur
        buf[s, :rem] = buf[s, cur:]
        bitgen.state = _pcg64_state(states[s].tolist())
        if bounds is None:
            buf[s, rem:] = gen.random(cur)
        else:
            buf[s, rem:] = gen.integers(0, int(bounds[s]), size=cur)
        states[s] = _pcg64_row(bitgen)
        cursor[s] = 0


def _np_stream_seeds(
    seeds: List[int], names: List[str]
) -> Tuple[np.ndarray, np.ndarray]:
    from repro.sim.random import RandomStreams

    slots, offsets = [], []
    for seed in seeds:
        streams = RandomStreams(seed)
        slots.append(streams.seed_of("slots"))
        offsets.append([streams.fork(name).seed_of("offset") for name in names])
    return (
        np.array(slots, dtype=np.uint64),
        np.array(offsets, dtype=np.uint64).reshape(len(seeds), len(names)),
    )


_NUMPY_IMPL: Dict[str, Callable] = {
    "median": _np_median,
    "mad_spread": _np_mad_spread,
    "two_quantiles": _np_two_quantiles,
    "project": _np_project,
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
    "iq_clusters": _np_iq_clusters,
    "fm0_chain": _np_fm0_chain,
    "envelope_rc": _np_envelope_rc,
    "receiver_noise": _np_receiver_noise,
    "mix_sosfilt_decimate": _np_mix_sosfilt_decimate,
    "fleet_run": _np_fleet_run,
    "pcg64_seed": _np_pcg64_seed,
    "pcg64_refill": _np_pcg64_refill,
    "stream_seeds": _np_stream_seeds,
}


# ---------------------------------------------------------------------------
# dispatched kernels
# ---------------------------------------------------------------------------


def project(iq: np.ndarray) -> np.ndarray:
    """Full modulation-axis projection of a complex baseband.

    The two halves of
    :meth:`repro.phy.reader_dsp.ReaderReceiveChain.project` — the
    median centre plus second moment, and the rotate-project-recentre
    step — around the scalar angle/phasor step, which stays in numpy on
    both backends: ``np.angle`` / ``np.exp`` may route through SIMD code
    paths a C replica could diverge from by an ulp, and at scalar size
    they cost nothing.
    """
    if len(iq) == 0:
        # An empty capture projects to an empty axis on every backend
        # (the quantile re-centre is undefined over zero samples).
        return np.empty(0, dtype=np.float64)
    return _active()["project"](iq)


def schmitt_full(
    projected: np.ndarray, hysteresis: float, drift: float
) -> np.ndarray:
    """MAD spread + drift/hysteresis thresholds + state track, fused.

    Returns all zeros when the spread collapses to 0 (flat input), the
    same degenerate-slot contract as the receive chain's ``schmitt``.
    """
    return _active()["schmitt_full"](projected, hysteresis, drift)


def fm0_chain(
    iq: np.ndarray,
    baseband_rate_hz: float,
    raw_rate_bps: float,
    hysteresis: float,
    drift: float,
) -> Tuple[np.ndarray, float, np.ndarray, Tuple[Tuple[int, np.ndarray, int], ...]]:
    """The reader's FM0 receive chain on one uncalibrated capture.

    Returns ``(baseband, offset_hz, raw_bits, alignments)``: the
    offset-corrected baseband, the estimated carrier offset, the raw
    bits (uint8 signs of the per-bit matched-filter sums), and one
    ``(start, bits, violations)`` per FM0 half-bit alignment that holds
    a pair — ``bits`` decodes ``raw_bits[start:]`` trimmed to an even
    length, with ``violations`` FM0 boundary violations.

    The numpy reference runs the stages one by one: the offset
    estimate and de-rotation of :mod:`repro.phy.iq`, :func:`project`,
    :func:`schmitt_full`, :func:`raw_bit_sums` and :func:`fm0_pairs`.
    The compiled entry runs them as four C calls around the three
    scalar ``np.angle`` steps (offset, projection axis, bit-grid
    phase), which stay numpy on both backends: numpy's SIMD
    ``arctan2`` and libm's ``atan2`` disagree on some inputs.  It
    replays numpy's complex ``exp`` with the C library's ``cexp``, so
    it is registered only where a load-time probe shows the two
    agreeing; elsewhere the reference runs and :func:`kernel_info`'s
    ``composed`` names it.  Captures longer than
    :data:`MAX_CHAIN_SAMPLES` run the reference too.
    """
    if baseband_rate_hz <= 0 or raw_rate_bps <= 0:
        raise ValueError("baseband and bit rates must be positive")
    iq = np.asarray(iq, dtype=np.complex128)
    if iq.size == 0:
        # An empty capture yields the empty outcome on every backend
        # (the projection is undefined over zero samples).
        return iq.copy(), 0.0, np.empty(0, dtype=np.uint8), ()
    table = _active()
    if iq.size > MAX_CHAIN_SAMPLES or "fm0_chain" not in table:
        table = _NUMPY_IMPL
    return table["fm0_chain"](iq, baseband_rate_hz, raw_rate_bps, hysteresis, drift)


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


def receiver_noise(
    draws: np.ndarray, scale: float, sos: np.ndarray
) -> np.ndarray:
    """Filtered complex receiver noise from ``2 * n`` standard normals.

    ``scipy.signal.sosfilt(sos, (draws[:n] + 1j * draws[n:]) * scale)``,
    empty for ``n == 0``.  The compiled backend builds each complex
    sample inside the filter recurrence, replaying numpy's promotion,
    its contracted multiply and scipy's complex arithmetic down to the
    sign of a zero.
    """
    return _active()["receiver_noise"](draws, scale, sos)


def mix_sosfilt_decimate(
    x: np.ndarray, lo: np.ndarray, sos: np.ndarray, decimation: int
) -> np.ndarray:
    """Fused ``(x * lo) -> sosfilt -> [::decimation]`` downconversion."""
    return _active()["mix_sosfilt_decimate"](x, lo, sos, decimation)


def fleet_run(engine, n_slots: int, streak: int = 0) -> int:
    """Advance a fleet engine by up to ``n_slots`` slots.

    ``engine`` is a :class:`~repro.fleet.engine.FleetEngine`.  Returns
    the slots run; the engine's slot count advances with them, and
    ``n_slots`` = 1 is its ``step_all``.  With ``streak`` > 0 the run
    also tracks each network's collision-free streak from the slot log
    (``engine._clean_streak``, counted from its value at the call),
    records in ``engine._converged_at`` the engine slot count at which
    it first reaches ``streak``, and stops once every network has such
    a record.

    The numpy backend loops the engine's own numpy step, the
    reference.  The compiled one runs every network's beacon,
    beacon-loss draws, tag firmware, arbitration and reader digest
    (placement, viability and eviction included) on the engine's
    arrays, for all the slots in one C call (``rk_fleet_run``, a loop
    around the compiled slot), and writes the slot log's free rows in
    place.  Its state is integers and booleans, its only float work
    ``<`` comparisons of the same banked draws, and every stream's
    draws are taken in the numpy step's per-stream order, so the two
    leave byte-identical state: the whole engine, not only its slot
    log.  The C call is left and re-entered only to refill the RNG
    banks, to grow the slot log, and to resolve a new transmitter
    set's capture verdict, which stays with the engine.  While
    telemetry is active it runs one slot per call, so that counters
    are emitted per slot.  Energy-mode fleets and rosters over
    :data:`MAX_FLEET_TAGS` tags run the numpy step on every backend.
    """
    table = _active()
    if engine.energy or engine.n_tags > MAX_FLEET_TAGS:
        table = _NUMPY_IMPL
    return table["fleet_run"](engine, n_slots, streak)


def pcg64_seed(seeds) -> np.ndarray:
    """The PCG64 streams numpy seeds from ``seeds``, one row each.

    Row ``s`` holds the fields of ``np.random.PCG64(seeds[s]).state`` as
    uint64: state high and low words, increment high and low words,
    ``has_uint32`` and ``uinteger``.  Seeds lie in [0, 2**64).  The
    compiled entry replays numpy's ``SeedSequence`` and PCG64 seeding
    (see :func:`pcg64_refill` for when it is registered).
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64).reshape(-1)
    table = _active()
    if "pcg64_seed" not in table:
        table = _NUMPY_IMPL
    return table["pcg64_seed"](seeds)


def pcg64_refill(
    states: np.ndarray,
    buf: np.ndarray,
    cursor: np.ndarray,
    needed: int,
    bounds: Optional[np.ndarray] = None,
) -> None:
    """Top up every stream holding fewer than ``needed`` unread draws.

    ``states`` is a ``(S, 6)`` array of :func:`pcg64_seed` rows,
    ``buf`` the ``(S, block)`` draws, ``cursor`` each stream's next
    unread column.  A stream with ``cursor + needed > block`` moves its
    unread draws to the front of its row (they were drawn first), fills
    the rest with its next draws and rewinds its cursor to 0; its row
    of ``states`` advances as numpy's generator would.  With ``bounds``
    None the draws are ``Generator.random()`` doubles, else
    ``Generator.integers(0, bounds[s])`` into int64 ``buf``.

    The numpy twin sets one ``PCG64``'s state from each row and draws
    through ``Generator``, the reference.  The compiled entry is
    registered only where the compiler has ``__int128`` and a load-time
    probe shows it matching the twin byte for byte (numpy does not
    promise the same streams across versions); elsewhere the twin runs
    and :func:`kernel_info`'s ``composed`` names the entry.  Bounds
    outside [1, 2**32) run the twin on every backend.  Both work on
    the same rows, so a run may switch backend between any two
    refills.
    """
    n = cursor.shape[0]
    if (
        cursor.ndim != 1
        or states.shape != (n, 6)
        or buf.ndim != 2
        or buf.shape[0] != n
        or (bounds is not None and bounds.shape != (n,))
    ):
        raise ValueError("states, buf, cursor and bounds must agree per stream")
    if n and not (cursor.min() >= 0 and cursor.max() <= buf.shape[1]):
        raise ValueError("every cursor must lie within its block")
    table = _active()
    if "pcg64_refill" not in table or (
        bounds is not None
        and n
        and not (bounds.min() >= 1 and bounds.max() < PCG64_BOUND_LIMIT)
    ):
        table = _NUMPY_IMPL
    table["pcg64_refill"](states, buf, cursor, needed, bounds)


def stream_seeds(seeds, names) -> Tuple[np.ndarray, np.ndarray]:
    """The seeds of a fleet's streams, one row per master seed.

    Returns ``(slots, offsets)``, uint64 arrays of shape ``(N,)`` and
    ``(N, T)`` for N ``seeds`` and T ``names``:
    ``slots[s] = RandomStreams(seeds[s]).seed_of("slots")`` and
    ``offsets[s, k] = RandomStreams(seeds[s]).fork(names[k])
    .seed_of("offset")``, the seeds of a network's slot stream and of
    its tags' offset streams.  Each is the SHA-256 digest of the
    decimal seed, a separator and the UTF-8 name, its first 8 bytes
    read little-endian (see :class:`~repro.sim.random.RandomStreams`).

    The twin derives them through ``RandomStreams``, the reference.
    The compiled entry hashes every message in one call; it is
    registered only where a load-time probe shows it matching
    ``hashlib``, and elsewhere the twin runs and :func:`kernel_info`'s
    ``composed`` names the entry.  A call with a master seed outside
    [0, 2**64) runs the twin on every backend.
    """
    from repro.sim.random import as_index

    seeds = [as_index(seed, "seed") for seed in seeds]
    names = list(names)
    for name in names:
        if not isinstance(name, str):
            raise TypeError(f"stream names must be str, got {name!r}")
    table = _active()
    if "stream_seeds" not in table or (
        seeds and not (min(seeds) >= 0 and max(seeds) < 1 << 64)
    ):
        table = _NUMPY_IMPL
    return table["stream_seeds"](seeds, names)


# ---------------------------------------------------------------------------
# structural kernels
# ---------------------------------------------------------------------------


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


def iq_clusters(
    iq: np.ndarray, bins: int, peak_threshold: float, guard: bool
) -> Tuple[int, float, float]:
    """Cluster count and energy-guard statistics of one IQ capture.

    Returns ``(n_clusters, total_var, noise_var)``.  With ``guard``,
    the capture first goes through :func:`detect_points` (settling
    trim, energy guard, plateau filter; the two statistics are the
    guard's, NaN where it did not run); without it, every sample is
    clustered and both statistics are NaN.  The points are then
    histogrammed over their 1st/99th-percentile box padded by 10%
    (floor 1e-12), box-smoothed (3x3, ``scipy.ndimage`` semantics), and
    the local maxima at or above ``peak_threshold`` of the smoothed
    maximum are labelled (4-connected): the count is the number of
    labelled peaks, or 1 when the smoothed histogram is empty.  The
    compiled backend runs all of it in one call; where its load-time
    probe left it out, or for more than :data:`MAX_HIST_BINS` bins, the
    numpy reference runs.
    """
    table = _active()
    if bins > MAX_HIST_BINS or "iq_clusters" not in table:
        table = _NUMPY_IMPL
    return table["iq_clusters"](iq, bins, peak_threshold, guard)


__all__ = [
    "KERNELS_ENV",
    "backend",
    "set_backend",
    "use_backend",
    "kernel_info",
    "reset_selection",
    "project",
    "schmitt_full",
    "hysteresis_slice",
    "fm0_pairs",
    "fm0_chain",
    "envelope_rc",
    "receiver_noise",
    "mix_sosfilt_decimate",
    "fleet_run",
    "pcg64_seed",
    "pcg64_refill",
    "stream_seeds",
    "bit_window_sums",
    "raw_bit_sums",
    "combine_templates",
    "detect_points",
    "iq_clusters",
]
