"""C-extension backend for :mod:`repro.phy.kernels`.

A single small C translation unit holding the profiled scalar loops of
the waveform hot path, the fleet engine's slot step and many-slot run
and its PCG64 stream seeding and refills, compiled once per process
family with the system C compiler and loaded through :mod:`ctypes`.
The build is content-addressed: the shared object's file name embeds a
hash of the source, the compiler, and the flags, so repeated processes
load the cached ``.so`` without recompiling (``cache.kernel_build.hit``
/ ``.miss`` perf counters track this).  A cached library is loaded only
if its size and SHA-256 match the ``.sha256`` stamp written with it;
one that does not is moved aside (``.bad-<pid>``) and rebuilt, and the
repair is listed in :data:`CACHE_REPAIRS`.  Each compiling process
writes its own copy of the source in a private directory, under a
per-entry lock.

Every kernel is written to be **bit-identical** to the numpy/scipy
expression it replaces — the kernels-on/off parity suite and the
per-kernel exactness tests pin this.  The non-obvious equivalences:

* ``sosfilt`` — scipy's direct-form-II-transposed recurrence is
  replayed per sample / per section with the same operation order.
  On complex data scipy casts the sections to complex, so each real
  coefficient multiplies as ``c + 0j``; those ``0.0`` terms only decide
  the sign of a zero while the filter state is still zero.  The
  receiver-noise kernel replays them.  The mixer kernel leaves them
  out, so on input that starts with exact zeros it can differ from
  scipy in the sign of a zero output.
* real × complex mixing — numpy promotes the real operand, so the
  product is ``(re = x*lo_re - 0.0*lo_im, im = x*lo_im + 0.0*lo_re)``
  including the sign-of-zero semantics of the ``0.0`` terms.
* ``np.median`` / ``np.percentile`` — selection by value (any exact
  selection is value-identical to ``np.partition``), with numpy's
  virtual index ``(n - 1) * q`` and ``_lerp`` evaluation order.  The
  one selection routine, ``select_k``, samples every eighth value,
  brackets the wanted order statistic between two of the sample's
  order statistics, and makes one branch-free pass that counts the
  values below the bracket and gathers those inside it; it then
  selects among the gathered values only, or among all of them when
  the bracket missed, with a branch-free Lomuto quickselect (median of
  three pseudo-random pivots; a pivot equal to the range's floor
  strips its ties in one pass).  Every step of that quickselect
  shrinks its range, so it ends on NaN too.  Where several tied
  ``+0.0`` / ``-0.0`` could land at the wanted rank, which one does
  depends on the partition, so every median and quantile adds
  ``0.0`` on both backends: a zero result is ``+0.0``.
* ``(re + 1j * im) * scale`` — the receiver-noise build: ``1j * im``
  is numpy's contracted multiply of ``(0 + 1j)`` by ``(im + 0j)``,
  ``re + ...`` promotes ``re`` to ``re + 0j``, and the scale multiplies
  as ``scale + 0j`` in the contracted loop, all replayed with their
  signed zeros inside the filter recurrence.
* complex x complex multiply (``z ** 2``, ``z * rot``) — numpy's
  SIMD loop is FMA-contracted: ``re = fma(ar, br, -(ai*bi))`` and
  ``im = fma(ar, bi, ai*br)`` (verified element-wise against this
  build of numpy).  The projection kernels replay those exact
  ``fma()`` calls; on a host whose numpy dispatches a non-FMA loop
  the parity suite would flag the divergence and ``REPRO_PHY_KERNELS``
  falls back cleanly.  (real x complex promotion takes numpy's
  *generic* loop, which is NOT contracted — the mixer kernel keeps
  plain arithmetic with explicit ``0.0`` terms.)
* ``np.linspace`` — ``edge[i] = i * (delta / div) + start`` with the
  end point pinned to ``stop`` (and the denormal-step fallback
  ``(i / div) * delta + start``), which the 2-D histogram kernel
  replays for its bin edges.
* ``np.searchsorted(side="right")`` — integer semantics, so any
  exact search agrees: the histogram guesses each bin arithmetically
  and walks to the exact count of edges ``<=`` the value, in numpy's
  order where NaN sorts last (binary search if the edges are not
  sorted).
* ``np.sum`` / ``np.mean`` — numpy's pairwise summation (blocks of
  128, eight accumulators; complex arrays summed as interleaved
  doubles), added to the reduction's 0 identity; a float mean is
  ``sum / n``, a complex mean numpy's complex division by the count.
* complex ``np.abs`` — numpy's SIMD loop computes
  ``sqrt(fma(r, r, 1)) * max(|re|, |im|)`` with ``r = min / max``
  (not ``hypot``).  A loop without FMA rounds differently, so
  :func:`load` probes the replica against ``np.abs`` and leaves the
  fused detector that uses it out of the table on a mismatch
  (:data:`PROBE_FAILURES`), so the numpy reference detector runs.
* complex ``np.exp`` — numpy's complex loop agrees with the C
  library's ``cexp`` byte for byte on this build, so the FM0 chain
  calls ``cexp`` after replaying the argument's arithmetic: for the
  de-rotation ramp
  ``np.exp(c * np.arange(n) / fs)``, the contracted multiply of ``c``
  by ``(k + 0j)`` and numpy's Smith division by ``(fs + 0j)``
  (multiplication by ``1 / fs``); for the bit-phase phasors
  ``np.exp(2j * pi * phases)``, the contracted multiply by
  ``(phase + 0j)``.  A numpy with its own complex ``exp``, or another
  C library, may differ, so :func:`load` probes both against
  ``np.exp`` and leaves the chain out on a mismatch, as for ``abs``.
* ``np.add.reduceat`` — each segment is its first element plus the
  pairwise sum of the rest (``a[lo] + pairwise_sum(a[lo+1:hi])``),
  not one pairwise sum; numpy's float remainder ``t % spb`` is
  ``fmod`` for the positive operands the bit-phase step feeds it.
* the 1%/99% histogram box — when both quantiles lie within 64 order
  statistics of the ends, one pass keeps the smallest and largest
  values in sorted buffers; they hold the same order statistics a
  selection would place.
* compare-only loops (Schmitt states, hysteresis slicing, FM0 pairs)
  are trivially exact.
* the fleet step — its state is integers and booleans, and its only
  float operations are ``<`` comparisons of the engine's banked draws
  against the same doubles the numpy step compares them with; what it
  must keep is each stream's draw order (see ``fleet_tags`` and
  ``fleet_digest``).  The fleet run loops the step and counts each
  network's collision-free streak in integers.
* ``np.random.PCG64(seed)`` — numpy's ``SeedSequence``: the seed split
  into 32-bit words (one word below 2**32, two from 2**32 up),
  ``hashmix`` / ``mix`` into a four-word pool, ``generate_state(4,
  uint64)`` (word pairs little end first); then
  ``pcg_setseq_128_srandom_r`` with the first two words as the initial
  state, high word first, and the last two as the sequence.  All of it
  is 32-bit and 128-bit unsigned integer arithmetic, exact on any
  compiler that has ``unsigned __int128``; the entries are not built
  without it.
* ``Generator.random()`` — one XSL-RR 128/64 step, then
  ``(next64 >> 11) * 2**-53``, as numpy's ``next_double``.
* ``Generator.integers(0, p)`` (int64, 1 <= p < 2**32) — bound 1 is 0
  without a draw; otherwise Lemire's multiply-shift on 32-bit draws
  with its rejection loop (threshold ``(2**32 - p) % p``).  A 32-bit
  draw is the low half of a fresh 64-bit one, and the high half is
  kept (``has_uint32`` / ``uinteger``) for the next 32-bit draw, across
  calls too.  numpy draws bounds from 2**32 up from 64-bit words, so
  they run the numpy twin.
  numpy does not promise the same ``Generator`` streams across
  versions, so :func:`load` probes both entries against their numpy
  twins on fixed seeds, both fill kinds and bounds 1, 3, 2**31 and
  2**31 + 1, and leaves them out on a mismatch, as for ``abs`` and
  ``exp``.

Floating-point contraction and fast-math are disabled explicitly
(``-ffp-contract=off -fno-fast-math``): an FMA would change results.
The kernels that call ``fma()`` (projection, FM0 chain, collision
detector) are exported through ``FMA_ENTRY``: on x86-64 they run a
copy compiled for FMA where the CPU has it — the same results, with
each ``fma()`` one instruction instead of a libm call.

Transcendentals are ported only where numpy provably calls the same
function: complex ``exp`` (``cexp``, probed at load, see above).
``np.angle`` is not: numpy's SIMD ``arctan2`` differs from libm's
``atan2`` in the last bit on some inputs, so the three scalar angle
steps of the receive chain (offset, projection axis, bit-grid phase)
run in numpy between C calls, on both backends.

ctypes call overhead is kept off the hot path by a per-thread buffer
"lane": inputs are copied into preallocated scratch arrays whose C
pointers were extracted once, the kernel runs in place, and outputs
are copied out with one ``ndarray.copy``.  That turns the ~8 us of
per-call ``ctypes.data_as`` + allocation bookkeeping into ~1 us.

Inputs are assumed finite (the waveform tier synthesises finite
signals); what the selection kernels return for NaN input is
unspecified, matching the documented contract in
:mod:`repro.phy.kernels`, but every entry returns.  Mixed
``+0.0``/``-0.0`` ties are reachable from the receive chain:
``project_center``'s centre sample makes ``z.real`` exactly ``+0.0``,
so ``(z**2).imag`` holds signed zeros next to its median.  The ``+ 0.0``
on every median and quantile is what keeps those byte-identical.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import perf, telemetry
from repro.phy.kernels import MAX_HIST_BINS, _axis_rotation, _bit_grid_offset

#: Environment variable overriding where compiled kernels are cached.
CACHE_DIR_ENV = "REPRO_KERNELS_CACHE"

#: Maximum second-order sections the C filter kernels support (the hot
#: path uses order-4 Butterworth designs = 2 sections).
MAX_SOS_SECTIONS = 16

_CFLAGS = [
    "-O3",
    "-std=c11",
    "-fPIC",
    "-shared",
    # Bit-exactness: no FMA contraction, no value-unsafe optimisation.
    "-ffp-contract=off",
    "-fno-fast-math",
    # Sizes the cluster stage's fixed grids (labels, filter lines).
    f"-DMAX_HIST_BINS={MAX_HIST_BINS}",
]

_C_SOURCE = r"""
/* repro.phy.kernels C backend — bit-exact replicas of numpy/scipy hot
 * loops.  See _kernels_c.py for the equivalence notes. */

#include <complex.h>
#include <math.h>

typedef long long i64;

/* FMA_ENTRY(ret, name, params, args) exports rk_<name>, running the
 * always-inline body <name>.  On x86-64 it runs a copy compiled for FMA
 * where the CPU has it: the same results (fma() rounds once either
 * way), with each fma() one instruction instead of a libm call (the
 * baseline ISA has none). */
#if defined(__x86_64__) && defined(__GNUC__)
#define FMA_ENTRY(ret, name, params, args)                              \
    __attribute__((target("fma"))) static ret name##_fma params         \
    { return name args; }                                               \
    ret rk_##name params                                                \
    {                                                                   \
        if (__builtin_cpu_supports("fma")) return name##_fma args;      \
        return name args;                                               \
    }
#else
#define FMA_ENTRY(ret, name, params, args)                              \
    ret rk_##name params { return name args; }
#endif

/* ---- order statistics (value-identical to np.partition) ---------- */

/* Branch-free Lomuto partitions of a[0..n): part_lt gathers the values
 * below piv at the front, part_le the values not above it (NaN counts
 * as not above).  Each returns the size of the front part.  The swap
 * is unconditional and the count adds the comparison, so neither loop
 * branches on the data. */
static i64 part_lt(double *a, i64 n, double piv)
{
    i64 s = 0;
    for (i64 i = 0; i < n; i++) {
        double v = a[i];
        a[i] = a[s];
        a[s] = v;
        s += v < piv;
    }
    return s;
}

static i64 part_le(double *a, i64 n, double piv)
{
    i64 s = 0;
    for (i64 i = 0; i < n; i++) {
        double v = a[i];
        a[i] = a[s];
        a[s] = v;
        s += !(piv < v);
    }
    return s;
}

/* A pseudo-random index in [0, m) from the xorshift state *r. */
static inline i64 rand_below(unsigned long long *r, i64 m)
{
    unsigned long long x = *r;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *r = x;
    return (i64)(((x >> 32) * (unsigned long long)m) >> 32);
}

static inline double med3(double a, double b, double c)
{
    double lo = a < b ? a : b, hi = a < b ? b : a;
    return c < lo ? lo : (hi < c ? hi : c);
}

/* x(k), the k-th smallest of a[0..n) by value (0 <= k < n), leaving
 * every value right of position k >= x(k).  Each pivot is the median
 * of three pseudo-random picks.  A pivot no larger than the range's
 * floor (a previous pivot that no value in the range is below) strips
 * every value equal to it instead, so ties cost one pass.  A step that
 * moves neither end of [lo, hi) sets the floor to the range's minimum
 * (or NaN), and the step after it moves one, so the loop ends on any
 * input. */
static double lomuto_select(double *a, i64 n, i64 k)
{
    unsigned long long r = 0x9E3779B97F4A7C15ull ^ (unsigned long long)n;
    i64 lo = 0, hi = n;
    int floored = 0;
    double floor_v = 0.0;
    while (hi - lo > 1) {
        i64 m = hi - lo;
        double p0 = a[lo + rand_below(&r, m)];
        double p1 = a[lo + rand_below(&r, m)];
        double piv = med3(p0, p1, a[lo + rand_below(&r, m)]);
        if (floored && !(floor_v < piv)) {
            i64 t = lo + part_le(a + lo, m, piv);
            if (k < t) return piv;
            lo = t;
            continue;
        }
        i64 s = lo + part_lt(a + lo, m, piv);
        if (k < s) {
            hi = s;
        } else {
            lo = s;
            floor_v = piv;
            floored = 1;
        }
    }
    return a[lo];
}

/* x(k), and x(k + 1) into *next unless next is NULL, of a[0..n). */
static double select_in(double *a, i64 n, i64 k, double *next)
{
    double v = lomuto_select(a, n, k);
    if (next) {
        double m = a[k + 1];
        for (i64 i = k + 2; i < n; i++) m = a[i] < m ? a[i] : m;
        *next = m;
    }
    return v;
}

/* Inputs shorter than this are selected from whole. */
#define SAMPLE_MIN 128
#define SAMPLE_STRIDE 8

/* x(k) of the n values at x (0 <= k < n), and x(k + 1) into *next
 * unless next is NULL (then k + 1 < n); x is only read, work holds n
 * doubles.  Every eighth value is sampled, and two of the sample's
 * order statistics, three standard deviations of the sample rank
 * either side of x(k)'s expected one, bracket x(k).  One branch-free
 * pass counts the values below the bracket and gathers those inside
 * it; when the ranks wanted lie among the gathered values, only they
 * are selected from.  Otherwise (or for a short input) every value
 * is. */
static double select_k(const double *x, i64 n, i64 k, double *next,
                       double *work)
{
    i64 top = next ? k + 1 : k;
    if (n >= SAMPLE_MIN) {
        i64 m = n / SAMPLE_STRIDE;
        for (i64 j = 0; j < m; j++)
            work[j] = x[j * SAMPLE_STRIDE + SAMPLE_STRIDE / 2];
        double p = ((double)k + 0.5) / (double)n;
        double spread = 3.0 * sqrt((double)m * p * (1.0 - p)) + 2.0;
        i64 r_lo = (i64)floor(p * (double)m - spread);
        i64 r_hi = (i64)ceil(p * (double)m + spread) + (top - k);
        double lo = -INFINITY, hi = INFINITY;
        if (r_lo >= 0)
            lo = lomuto_select(work, m, r_lo);
        else
            r_lo = -1;
        if (r_hi < m)
            hi = lomuto_select(work + r_lo + 1, m - r_lo - 1, r_hi - r_lo - 1);
        i64 below = 0, count = 0;
        for (i64 i = 0; i < n; i++) {
            double v = x[i];
            work[count] = v;
            below += v < lo;
            count += (v >= lo) & (v <= hi);
        }
        if (k >= below && top < below + count) {
            if (lo == hi) {
                /* every gathered value equals lo */
                if (next) *next = lo;
                return lo;
            }
            return select_in(work, count, k - below, next);
        }
    }
    for (i64 i = 0; i < n; i++) work[i] = x[i];
    return select_in(work, n, k, next);
}

/* np.median of the n values at x (read only; work holds n doubles),
 * plus 0.0: a zero median is +0.0 whichever signed zero the partition
 * placed.  Even n: the mean of the two middle order statistics,
 * (part[h-1] + part[h]) / 2. */
static double median_of(const double *x, i64 n, double *work)
{
    if (n == 0) return NAN;
    i64 h = n / 2;
    if (n & 1) return select_k(x, n, h, 0, work) + 0.0;
    double upper;
    double lower = select_k(x, n, h - 1, &upper, work);
    return (lower + upper) / 2.0 + 0.0;
}

double rk_median(const double *x, i64 n, double *work)
{
    return median_of(x, n, work);
}

/* 1.4826 * median(|x - median(x)|); scratch holds 2n doubles. */
double rk_mad(const double *x, i64 n, double *scratch)
{
    double *dev = scratch, *work = scratch + n;
    double med = median_of(x, n, work);
    for (i64 i = 0; i < n; i++) dev[i] = fabs(x[i] - med);
    return 1.4826 * median_of(dev, n, work);
}

/* numpy _lerp: a + (b-a)*t, switching to b - (b-a)*(1-t) at t >= 0.5 */
static double lerp_np(double a, double b, double t)
{
    double d = b - a;
    if (t >= 0.5) return b - d * (1.0 - t);
    return a + d * t;
}

/* numpy's 'linear' quantile: order statistics jp <= jn, weight gamma */
static double quantile_index(i64 n, double q, i64 *jp, i64 *jn)
{
    /* numpy's virtual index for the 'linear' method: (n - 1) * q */
    double virt = (double)(n - 1) * q;
    if (virt >= (double)(n - 1)) {
        *jp = *jn = n - 1;
        return 0.0;
    }
    if (virt < 0.0) {
        *jp = *jn = 0;
        return 0.0;
    }
    double fl = floor(virt);
    *jp = (i64)fl;
    *jn = *jp + 1;
    return virt - fl;
}

/* np.quantile(x, q) ('linear') of the n > 0 values at x (read only;
 * work holds n doubles), plus 0.0 as for median_of. */
static double quantile_of(const double *x, i64 n, double q, double *work)
{
    i64 jp, jn;
    double gamma = quantile_index(n, q, &jp, &jn);
    double next;
    double prev = select_k(x, n, jp, jn == jp ? 0 : &next, work);
    if (jn == jp) next = prev;
    return lerp_np(prev, next, gamma) + 0.0;
}

void rk_two_quantiles(const double *x, i64 n, double q0, double q1,
                      double *work, double *out)
{
    out[0] = quantile_of(x, n, q0, work);
    out[1] = quantile_of(x, n, q1, work);
}

/* ---- fused projection (ReaderReceiveChain.project) --------------- */

/* numpy's complex multiply a * b, FMA-contracted as its SIMD loop
 * computes it. */
static inline __attribute__((always_inline)) void
cmul_np(double ar, double ai, double br, double bi, double *re, double *im)
{
    *re = fma(ar, br, -(ai * bi));
    *im = fma(ar, bi, ai * br);
}

/* scratch holds 2n doubles. */
static inline __attribute__((always_inline)) i64
project_center(const double *iq, i64 n, double *scratch, double *out4)
{
    double *vals = scratch, *work = scratch + n;
    for (i64 i = 0; i < n; i++) vals[i] = iq[2 * i];
    double c_re = median_of(vals, n, work);
    for (i64 i = 0; i < n; i++) vals[i] = iq[2 * i + 1];
    double c_im = median_of(vals, n, work);
    /* z = iq - center; z**2 via numpy's FMA-contracted complex
     * multiply: re = fma(zr, zr, -(zi*zi)), im = fma(zr, zi, zi*zr). */
    for (i64 i = 0; i < n; i++) {
        double zr = iq[2 * i] - c_re;
        double zi = iq[2 * i + 1] - c_im;
        vals[i] = fma(zr, zr, -(zi * zi));
    }
    double m_re = median_of(vals, n, work);
    for (i64 i = 0; i < n; i++) {
        double zr = iq[2 * i] - c_re;
        double zi = iq[2 * i + 1] - c_im;
        vals[i] = fma(zr, zi, zi * zr);
    }
    double m_im = median_of(vals, n, work);
    out4[0] = c_re; out4[1] = c_im; out4[2] = m_re; out4[3] = m_im;
    return 0;
}

FMA_ENTRY(i64, project_center,
          (const double *iq, i64 n, double *scratch, double *out4),
          (iq, n, scratch, out4))

static inline __attribute__((always_inline)) i64
project_finish(const double *iq, i64 n, double c_re, double c_im,
               double rot_re, double rot_im, double q0, double q1,
               double *scratch, double *out)
{
    /* projected = real((iq - center) * rot), with numpy's contracted
     * real part: fma(zr, rot_re, -(zi * rot_im)). */
    for (i64 i = 0; i < n; i++) {
        double zr = iq[2 * i] - c_re;
        double zi = iq[2 * i + 1] - c_im;
        out[i] = fma(zr, rot_re, -(zi * rot_im));
    }
    double q[2];
    rk_two_quantiles(out, n, q0, q1, scratch, q);
    double shift = (q[0] + q[1]) / 2.0;
    for (i64 i = 0; i < n; i++) out[i] = out[i] - shift;
    return 0;
}

FMA_ENTRY(i64, project_finish,
          (const double *iq, i64 n, double c_re, double c_im, double rot_re,
           double rot_im, double q0, double q1, double *scratch, double *out),
          (iq, n, c_re, c_im, rot_re, rot_im, q0, q1, scratch, out))

/* ---- compare-only loops ------------------------------------------ */

void rk_schmitt_states(const double *p, i64 n, double hi, double lo,
                       signed char initial, signed char *out)
{
    signed char s = initial;
    for (i64 i = 0; i < n; i++) {
        double v = p[i];
        /* lo wins on overlap, matching the vectorised mark order */
        if (v <= lo) s = 0;
        else if (v >= hi) s = 1;
        out[i] = s;
    }
}

/* scratch holds 2n doubles. */
double rk_schmitt_full(const double *p, i64 n, double hysteresis,
                       double drift, double *scratch, signed char *out)
{
    if (n == 0) return 0.0;
    double spread = rk_mad(p, n, scratch);
    if (spread == 0.0) {
        for (i64 i = 0; i < n; i++) out[i] = 0;
        return spread;
    }
    double center = drift * spread;
    double hi = center + hysteresis * spread;
    double lo = center - hysteresis * spread;
    signed char initial = p[0] > center ? 1 : 0;
    rk_schmitt_states(p, n, hi, lo, initial, out);
    return spread;
}

void rk_hysteresis_slice(const double *env, i64 n, double hi, double lo,
                         signed char *out)
{
    signed char s = 0;
    for (i64 i = 0; i < n; i++) {
        double v = env[i];
        if (s == 0) { if (v >= hi) s = 1; }
        else        { if (v <= lo) s = 0; }
        out[i] = s;
    }
}

void rk_fm0_pairs(const unsigned char *raw, i64 n_pairs, int initial_level,
                  unsigned char *bits, unsigned char *viol)
{
    unsigned char prev = (unsigned char)initial_level;
    for (i64 i = 0; i < n_pairs; i++) {
        unsigned char first = raw[2 * i], second = raw[2 * i + 1];
        viol[i] = (unsigned char)(first == prev);
        bits[i] = (unsigned char)(first == second);
        prev = second;
    }
}

/* ---- integrate-and-dump bit grid --------------------------------- */

i64 rk_bit_grid(i64 n_samples, double samples_per_bit, double grid_offset,
                double margin, i64 *lo_idx, i64 *hi_idx)
{
    /* Replays the sequential `start += samples_per_bit` left fold with
     * rint (half-to-even, same as np.rint / Python round). */
    i64 count = 0;
    double start = grid_offset;
    while (start + samples_per_bit <= (double)n_samples) {
        i64 lo = (i64)rint(start + margin);
        i64 hi = (i64)rint((start + samples_per_bit) - margin);
        if (hi > lo) {
            lo_idx[count] = lo;
            hi_idx[count] = hi;
            count++;
        }
        start += samples_per_bit;
    }
    return count;
}

/* ---- 2-D histogram (np.histogram2d with scalar bins + range) ----- */

/* e <= v in numpy's sort order, where NaN sorts last. */
static int le_np(double e, double v)
{
    return !(v < e || (e != e && v == v));
}

static i64 searchsorted_right(const double *e, i64 m, double v)
{
    i64 lo = 0, hi = m;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (le_np(e[mid], v)) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int edges_sorted(const double *e, i64 m)
{
    for (i64 i = 0; i + 1 < m; i++)
        if (!le_np(e[i], e[i + 1])) return 0;
    return 1;
}

/* searchsorted(e, v, "right") over bins + 1 sorted edges: guess the
 * bin arithmetically (inv = bins / span), then walk to the exact
 * count of edges <= v, so the result is the binary search's. */
static i64 bin_right(const double *e, i64 bins, double inv, double v)
{
    double t = (v - e[0]) * inv;
    i64 g;
    if (!(t >= 0.0)) g = 0;
    else if (t >= (double)bins) g = bins + 1;
    else g = (i64)t + 1;
    while (g > 0 && !le_np(e[g - 1], v)) g--;
    while (g <= bins && le_np(e[g], v)) g++;
    return g;
}

static void linspace_np(double start, double stop, i64 div, double *e)
{
    /* numpy linspace: step = delta/div; edge[i] = i*step + start,
     * end point pinned to stop; denormal-step fallback (gh-5437)
     * divides first. */
    double delta = stop - start;
    double step = delta / (double)div;
    if (step == 0.0) {
        for (i64 i = 0; i <= div; i++)
            e[i] = ((double)i / (double)div) * delta + start;
    } else {
        for (i64 i = 0; i <= div; i++)
            e[i] = (double)i * step + start;
    }
    e[div] = stop;
}

void rk_hist2d(const double *x, const double *y, i64 n, i64 bins,
               double x0, double x1, double y0, double y1,
               double *hist, double *xe, double *ye)
{
    linspace_np(x0, x1, bins, xe);
    linspace_np(y0, y1, bins, ye);
    int x_sorted = edges_sorted(xe, bins + 1);
    int y_sorted = edges_sorted(ye, bins + 1);
    double x_inv = (double)bins / (xe[bins] - xe[0]);
    double y_inv = (double)bins / (ye[bins] - ye[0]);
    for (i64 i = 0; i < bins * bins; i++) hist[i] = 0.0;
    for (i64 i = 0; i < n; i++) {
        double vx = x[i], vy = y[i];
        i64 ix = x_sorted ? bin_right(xe, bins, x_inv, vx)
                          : searchsorted_right(xe, bins + 1, vx);
        i64 iy = y_sorted ? bin_right(ye, bins, y_inv, vy)
                          : searchsorted_right(ye, bins + 1, vy);
        if (vx == x1) ix--;
        if (vy == y1) iy--;
        if (ix > 0 && ix <= bins && iy > 0 && iy <= bins)
            hist[(ix - 1) * bins + (iy - 1)] += 1.0;
    }
}

/* ---- constellation cluster stage (collision detector) ------------ */

#define EDGE_K 64

/* np.quantile(x, [q0, q1]) when both quantiles lie within EDGE_K order
 * statistics of the ends (the 1%/99% box of a few thousand points): one
 * pass keeps the smallest and largest values in sorted buffers, which
 * hold the same order statistics a selection would place.  Returns 0,
 * leaving out alone, when the quantiles lie deeper. */
static int edge_quantiles(const double *x, i64 n, double q0, double q1,
                          double *out)
{
    i64 jp0, jn0, jp1, jn1;
    double g0 = quantile_index(n, q0, &jp0, &jn0);
    double g1 = quantile_index(n, q1, &jp1, &jn1);
    i64 k_lo = jn0 + 1, k_hi = n - jp1;
    if (k_lo > EDGE_K || k_hi > EDGE_K) return 0;
    double lo[EDGE_K], hi[EDGE_K];  /* ascending / descending */
    i64 m_lo = 0, m_hi = 0;
    for (i64 i = 0; i < n; i++) {
        double v = x[i];
        if (m_lo < k_lo || v < lo[k_lo - 1]) {
            i64 j = m_lo < k_lo ? m_lo++ : k_lo - 1;
            while (j > 0 && v < lo[j - 1]) { lo[j] = lo[j - 1]; j--; }
            lo[j] = v;
        }
        if (m_hi < k_hi || v > hi[k_hi - 1]) {
            i64 j = m_hi < k_hi ? m_hi++ : k_hi - 1;
            while (j > 0 && v > hi[j - 1]) { hi[j] = hi[j - 1]; j--; }
            hi[j] = v;
        }
    }
    out[0] = lerp_np(lo[jp0], lo[jn0], g0) + 0.0;
    out[1] = lerp_np(hi[n - 1 - jp1], hi[n - 1 - jn1], g1) + 0.0;
    return 1;
}

void rk_iq_hist(const double *iq, i64 n, i64 bins,
                double q0, double q1, double pad_frac, double pad_min,
                double *re_buf, double *im_buf, double *qscratch,
                double *hist, double *xe, double *ye)
{
    for (i64 i = 0; i < n; i++) {
        re_buf[i] = iq[2 * i];
        im_buf[i] = iq[2 * i + 1];
    }
    double q[2];
    if (!edge_quantiles(re_buf, n, q0, q1, q))
        rk_two_quantiles(re_buf, n, q0, q1, qscratch, q);
    double pad_r = (q[1] - q[0]) * pad_frac;
    if (pad_r < pad_min) pad_r = pad_min;
    double x0 = q[0] - pad_r, x1 = q[1] + pad_r;
    if (!edge_quantiles(im_buf, n, q0, q1, q))
        rk_two_quantiles(im_buf, n, q0, q1, qscratch, q);
    double pad_i = (q[1] - q[0]) * pad_frac;
    if (pad_i < pad_min) pad_i = pad_min;
    double y0 = q[0] - pad_i, y1 = q[1] + pad_i;
    rk_hist2d(re_buf, im_buf, n, bins, x0, x1, y0, y1, hist, xe, ye);
}

static int uf_find(int *parent, int x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

i64 rk_cluster_peaks(const double *hist, i64 bins, double threshold,
                     double *sm, double *tmp, int *labels,
                     double *out_smax)
{
    /* scipy.ndimage replication on a <=MAX_HIST_BINS-square grid:
     * uniform_filter(size=3, constant 0) — separable axis-0 then
     * axis-1 passes of scipy's running-sum recurrence
     * ``tmp += line[ll+2] - line[ll-1]; out[ll] = tmp / 3``;
     * maximum_filter(size=3, constant 0) — separable window max;
     * label() — 4-connected union-find, components numbered in
     * raster order of first appearance. */
    i64 nb = bins * bins;
    double line[MAX_HIST_BINS + 2];
    line[0] = 0.0;
    line[bins + 1] = 0.0;
    for (i64 c = 0; c < bins; c++) {
        for (i64 r = 0; r < bins; r++) line[r + 1] = hist[r * bins + c];
        double s = 0.0;
        s += line[0]; s += line[1]; s += line[2];
        tmp[c] = s / 3.0;
        for (i64 r = 1; r < bins; r++) {
            s += line[r + 2] - line[r - 1];
            tmp[r * bins + c] = s / 3.0;
        }
    }
    for (i64 r = 0; r < bins; r++) {
        for (i64 c = 0; c < bins; c++) line[c + 1] = tmp[r * bins + c];
        double s = 0.0;
        s += line[0]; s += line[1]; s += line[2];
        sm[r * bins] = s / 3.0;
        for (i64 c = 1; c < bins; c++) {
            s += line[c + 2] - line[c - 1];
            sm[r * bins + c] = s / 3.0;
        }
    }
    double smax = sm[0];
    for (i64 i = 1; i < nb; i++)
        if (sm[i] > smax) smax = sm[i];
    *out_smax = smax;
    if (smax <= 0.0) {
        for (i64 i = 0; i < nb; i++) labels[i] = 0;
        return 0;
    }
    for (i64 c = 0; c < bins; c++) {
        for (i64 r = 0; r < bins; r++) line[r + 1] = sm[r * bins + c];
        for (i64 r = 0; r < bins; r++) {
            double m = line[r];
            if (line[r + 1] > m) m = line[r + 1];
            if (line[r + 2] > m) m = line[r + 2];
            tmp[r * bins + c] = m;
        }
    }
    for (i64 r = 0; r < bins; r++) {
        for (i64 c = 0; c < bins; c++) line[c + 1] = tmp[r * bins + c];
        for (i64 c = 0; c < bins; c++) {
            double m = line[c];
            if (line[c + 1] > m) m = line[c + 1];
            if (line[c + 2] > m) m = line[c + 2];
            tmp[r * bins + c] = m;
        }
    }
    double cut = threshold * smax;
    int parent[MAX_HIST_BINS * MAX_HIST_BINS + 1];
    int nprov = 0;
    for (i64 r = 0; r < bins; r++) {
        for (i64 c = 0; c < bins; c++) {
            i64 idx = r * bins + c;
            if (!(sm[idx] == tmp[idx] && sm[idx] >= cut)) {
                labels[idx] = 0;
                continue;
            }
            int up = r > 0 ? labels[idx - bins] : 0;
            int left = c > 0 ? labels[idx - 1] : 0;
            if (!up && !left) {
                nprov++;
                parent[nprov] = nprov;
                labels[idx] = nprov;
            } else if (up && !left) {
                labels[idx] = uf_find(parent, up);
            } else if (!up && left) {
                labels[idx] = uf_find(parent, left);
            } else {
                int ru = uf_find(parent, up);
                int rl = uf_find(parent, left);
                int lo2 = ru < rl ? ru : rl;
                int hi2 = ru < rl ? rl : ru;
                parent[hi2] = lo2;
                labels[idx] = lo2;
            }
        }
    }
    int remap[MAX_HIST_BINS * MAX_HIST_BINS + 1];
    for (int i = 0; i <= nprov; i++) remap[i] = 0;
    int nfinal = 0;
    for (i64 i = 0; i < nb; i++) {
        if (!labels[i]) continue;
        int root = uf_find(parent, labels[i]);
        if (!remap[root]) {
            nfinal++;
            remap[root] = nfinal;
        }
        labels[i] = remap[root];
    }
    return nfinal;
}

/* ---- numpy reduction / abs replicas (collision detector guard) --- */

/* numpy's pairwise float64 sum (blocks of 128, 8 accumulators). */
static double pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = -0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++) r[k] = a[k];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++) r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* numpy's complex pairwise sum: the array summed as n interleaved
 * doubles, even slots real, odd slots imaginary. */
static void pairwise_csum(const double *a, i64 n, double *rr, double *ri)
{
    if (n < 8) {
        *rr = -0.0;
        *ri = -0.0;
        for (i64 i = 0; i < n; i += 2) { *rr += a[i]; *ri += a[i + 1]; }
        return;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++) r[k] = a[k];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++) r[k] += a[i + k];
        *rr = (r[0] + r[2]) + (r[4] + r[6]);
        *ri = (r[1] + r[3]) + (r[5] + r[7]);
        for (; i < n; i += 2) { *rr += a[i]; *ri += a[i + 1]; }
        return;
    }
    double rr1, ri1, rr2, ri2;
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    pairwise_csum(a, n2, &rr1, &ri1);
    pairwise_csum(a + n2, n - n2, &rr2, &ri2);
    *rr = rr1 + rr2;
    *ri = ri1 + ri2;
}

/* np.mean of m complex samples: add.reduce from the 0 identity, then
 * numpy's complex division by the count (Smith's rule with a zero
 * imaginary divisor). */
static void complex_mean(const double *iq, i64 m, double *mr, double *mi)
{
    double sr, si;
    pairwise_csum(iq, 2 * m, &sr, &si);
    sr = 0.0 + sr;
    si = 0.0 + si;
    double br = (double)m, bi = 0.0;
    double rat = bi / br;
    double scl = 1.0 / (br + bi * rat);
    *mr = (sr + si * rat) * scl;
    *mi = (si - sr * rat) * scl;
}

/* np.abs of a complex value as numpy's SIMD loop computes it:
 * sqrt(fma(r, r, 1)) * max(|re|, |im|), r = min / max.  The loader
 * probes this against np.abs before enabling the kernels using it. */
static inline __attribute__((always_inline)) double
cabs_np(double re, double im)
{
    double a = fabs(re), b = fabs(im);
    if (a == INFINITY || b == INFINITY) return INFINITY;
    if (a != a || b != b) return NAN;
    double larger = a > b ? a : b;
    double smaller = a > b ? b : a;
    double ratio = larger == 0.0 ? 0.0 : smaller / larger;
    return sqrt(fma(ratio, ratio, 1.0)) * larger;
}

void rk_cabs(const double *iq, i64 n, double *out)
{
    for (i64 i = 0; i < n; i++) out[i] = cabs_np(iq[2 * i], iq[2 * i + 1]);
}

/* ---- fused collision detector (detect_collision_iq) ------------- */

static inline __attribute__((always_inline)) i64
iq_clusters(const double *iq, i64 n, i64 guard, i64 bins,
            double threshold, double *fa, double *fb, double *fc,
            double *plateau, double *hist, double *xe, double *ye,
            double *grid, int *labels, double *stats)
{
    /* Cluster count of a capture; stats <- (total_var, noise_var),
     * NaN when the guard does not run.  fa/fb/fc hold n doubles,
     * plateau n complex values. */
    const double *p = iq;
    i64 m = n;
    stats[0] = NAN;
    stats[1] = NAN;
    if (guard) {
        /* Settling trim, then the modulation-energy guard: the spread
         * about the mean against the first-difference noise. */
        i64 settle = n / 10 < 200 ? n / 10 : 200;
        p = iq + 2 * settle;
        m = n - settle;
        if (m < 8) return 0;
        double mr, mi;
        complex_mean(p, m, &mr, &mi);
        for (i64 i = 0; i < m; i++) {
            double a = cabs_np(p[2 * i] - mr, p[2 * i + 1] - mi);
            fa[i] = a * a;
        }
        double total_var = (0.0 + pairwise_sum(fa, m)) / (double)m;
        for (i64 i = 0; i + 1 < m; i++) {
            double z0r = p[2 * i] - mr, z0i = p[2 * i + 1] - mi;
            double z1r = p[2 * i + 2] - mr, z1i = p[2 * i + 3] - mi;
            double a = cabs_np(z1r - z0r, z1i - z0i);
            fa[i] = a * a;
        }
        double noise_var =
            ((0.0 + pairwise_sum(fa, m - 1)) / (double)(m - 1)) / 2.0;
        stats[0] = total_var;
        stats[1] = noise_var;
        if (noise_var <= 0 || total_var < 12.0 * noise_var) return 1;
        /* Plateau filter: keep iq[1:] where |diff(iq)| < 3 * median. */
        for (i64 i = 0; i + 1 < m; i++)
            fb[i] = cabs_np(p[2 * i + 2] - p[2 * i],
                            p[2 * i + 3] - p[2 * i + 1]);
        double cut = 3.0 * median_of(fb, m - 1, fc);
        i64 k = 0;
        for (i64 i = 0; i + 1 < m; i++) {
            if (fb[i] < cut) {
                plateau[2 * k] = p[2 * i + 2];
                plateau[2 * k + 1] = p[2 * i + 3];
                k++;
            }
        }
        if (k >= 50) {
            p = plateau;
            m = k;
        }
    }
    if (m == 0) return 0;
    rk_iq_hist(p, m, bins, 1.0 / 100.0, 99.0 / 100.0, 0.1, 1e-12,
               fa, fb, fc, hist, xe, ye);
    double smax;
    i64 peaks = rk_cluster_peaks(hist, bins, threshold, fa, grid, labels,
                                 &smax);
    return smax <= 0 ? 1 : peaks;
}

/* The abs replica's fma() is a fifth of the detector. */
FMA_ENTRY(i64, iq_clusters,
          (const double *iq, i64 n, i64 guard, i64 bins, double threshold,
           double *fa, double *fb, double *fc, double *plateau, double *hist,
           double *xe, double *ye, double *grid, int *labels, double *stats),
          (iq, n, guard, bins, threshold, fa, fb, fc, plateau, hist, xe, ye,
           grid, labels, stats))

/* ---- fused FM0 chain (ReaderReceiveChain.decode_baseband) -------- */

/* Four calls, split where np.angle turns a complex sum into a phase:
 * numpy's SIMD arctan2 differs from libm's atan2 on some inputs, so
 * those three scalar steps stay numpy. */

/* Sample k's de-rotation phasor as correct_frequency_offset computes
 * np.exp(c * k / fs) for the Python complex c = -2j * pi * offset:
 * numpy's contracted multiply of c by (k + 0j), its Smith division by
 * (fs + 0j) (rat = 0 / fs, scl = 1 / (fs + 0 * rat)), then cexp. */
static inline __attribute__((always_inline)) void
ramp_phasor(double c_re, double c_im, double rat, double scl, i64 k,
            double *out)
{
    double tr, ti;
    cmul_np(c_re, c_im, (double)k, 0.0, &tr, &ti);
    double complex e =
        cexp(CMPLX((tr + ti * rat) * scl, (ti - tr * rat) * scl));
    out[0] = creal(e);
    out[1] = cimag(e);
}

/* np.exp(d * phase) for the Python complex d = 2j * pi: numpy's
 * contracted multiply of d by (phase + 0j), then cexp. */
static inline __attribute__((always_inline)) void
unit_phasor(double d_re, double d_im, double phase, double *out)
{
    double ar, ai;
    cmul_np(d_re, d_im, phase, 0.0, &ar, &ai);
    double complex e = cexp(CMPLX(ar, ai));
    out[0] = creal(e);
    out[1] = cimag(e);
}

/* The loader compares these two with np.exp before it registers the
 * chain. */
void rk_ramp(i64 n, double c_re, double c_im, double fs, double *out)
{
    double rat = 0.0 / fs, scl = 1.0 / (fs + 0.0 * rat);
    for (i64 k = 0; k < n; k++)
        ramp_phasor(c_re, c_im, rat, scl, k, out + 2 * k);
}

void rk_unit_phasors(const double *phase, i64 n, double d_re, double d_im,
                     double *out)
{
    for (i64 i = 0; i < n; i++) unit_phasor(d_re, d_im, phase[i], out + 2 * i);
}

/* 1. np.sum(iq[1:] * np.conj(iq[:-1])) for n >= 2, the offset
 * estimate's phasor sum: numpy's pairwise complex sum added to the
 * reduction's 0 identity.  rot holds n - 1 complex values. */
static inline __attribute__((always_inline)) i64
fm0_offset_sum(const double *iq, i64 n, double *rot, double *out2)
{
    for (i64 i = 0; i + 1 < n; i++)
        cmul_np(iq[2 * i + 2], iq[2 * i + 3], iq[2 * i], -iq[2 * i + 1],
                &rot[2 * i], &rot[2 * i + 1]);
    double sr, si;
    pairwise_csum(rot, 2 * (n - 1), &sr, &si);
    out2[0] = 0.0 + sr;
    out2[1] = 0.0 + si;
    return n - 1;
}

FMA_ENTRY(i64, fm0_offset_sum,
          (const double *iq, i64 n, double *rot, double *out2),
          (iq, n, rot, out2))

/* 2. out <- iq times the de-rotation ramp (n complex), then the
 * projection centre of out (out4 as project_center's). */
static inline __attribute__((always_inline)) i64
fm0_derotate(const double *iq, i64 n, double c_re, double c_im, double fs,
             double *out, double *scratch, double *out4)
{
    double rat = 0.0 / fs, scl = 1.0 / (fs + 0.0 * rat);
    for (i64 k = 0; k < n; k++) {
        double e[2];
        ramp_phasor(c_re, c_im, rat, scl, k, e);
        cmul_np(iq[2 * k], iq[2 * k + 1], e[0], e[1], &out[2 * k],
                &out[2 * k + 1]);
    }
    return project_center(out, n, scratch, out4);
}

FMA_ENTRY(i64, fm0_derotate,
          (const double *iq, i64 n, double c_re, double c_im, double fs,
           double *out, double *scratch, double *out4),
          (iq, n, c_re, c_im, fs, out, scratch, out4))

/* 3. Rotate-project and re-centre into projected, slice it into binary
 * (the MAD Schmitt trigger), and average the phasors of its
 * transitions' bit phases: np.mean(np.exp(d * ((t % spb) / spb))) over
 * every t whose state differs from the one before (numpy's float
 * remainder is fmod here: t and spb are positive).  Returns the
 * transition count; out2 <- the mean phasor when there is one. */
static inline __attribute__((always_inline)) i64
fm0_slice(const double *iq, i64 n, double c_re, double c_im, double rot_re,
          double rot_im, double hysteresis, double drift, double spb,
          double d_re, double d_im, double *scratch, double *phasors,
          double *projected, signed char *binary, double *out2)
{
    project_finish(iq, n, c_re, c_im, rot_re, rot_im, 10.0 / 100.0,
                   90.0 / 100.0, scratch, projected);
    rk_schmitt_full(projected, n, hysteresis, drift, scratch, binary);
    i64 m = 0;
    for (i64 t = 1; t < n; t++) {
        if (binary[t] == binary[t - 1]) continue;
        unit_phasor(d_re, d_im, fmod((double)t, spb) / spb, phasors + 2 * m);
        m++;
    }
    if (m) complex_mean(phasors, m, &out2[0], &out2[1]);
    return m;
}

FMA_ENTRY(i64, fm0_slice,
          (const double *iq, i64 n, double c_re, double c_im, double rot_re,
           double rot_im, double hysteresis, double drift, double spb,
           double d_re, double d_im, double *scratch, double *phasors,
           double *projected, signed char *binary, double *out2),
          (iq, n, c_re, c_im, rot_re, rot_im, hysteresis, drift, spb, d_re,
           d_im, scratch, phasors, projected, binary, out2))

/* 4. The bit grid over projected, each window's sum in np.add.reduceat
 * order (a[lo] + pairwise_sum(a[lo+1:hi])), the raw bits (sum > 0),
 * and the FM0 pairs of both half-bit alignments: raw[start:] for start
 * 0 and 1, trimmed to an even length.  Returns the raw-bit count;
 * viol2[start] <- that alignment's violation count where it has a
 * pair. */
i64 rk_fm0_bits(const double *projected, i64 n, double spb,
                double grid_offset, double margin, i64 *lo_idx,
                i64 *hi_idx, unsigned char *raw, unsigned char *bits0,
                unsigned char *bits1, unsigned char *viol, double *viol2)
{
    i64 count = rk_bit_grid(n, spb, grid_offset, margin, lo_idx, hi_idx);
    for (i64 k = 0; k < count; k++) {
        const double *w = projected + lo_idx[k];
        double sum = w[0] + pairwise_sum(w + 1, hi_idx[k] - lo_idx[k] - 1);
        raw[k] = sum > 0.0;
    }
    unsigned char *bits[2] = {bits0, bits1};
    for (i64 start = 0; start < 2; start++) {
        i64 pairs = (count - start) / 2;
        if (pairs < 1) continue;
        rk_fm0_pairs(raw + start, pairs, 1, bits[start], viol);
        i64 v = 0;
        for (i64 i = 0; i < pairs; i++) v += viol[i];
        viol2[start] = (double)v;
    }
    return count;
}

/* ---- IIR filters (scipy DF2T, same op order) --------------------- */

void rk_envelope_rc(const double *x, i64 n, double alpha, double *out)
{
    /* lfilter([alpha], [1, -(1-alpha)]) on |x|, scaled by pi/2 */
    const double one_minus = 1.0 - alpha;
    const double half_pi = 3.14159265358979323846 / 2.0;
    double z = 0.0;
    for (i64 i = 0; i < n; i++) {
        double xi = fabs(x[i]);
        double y = alpha * xi + z;
        z = one_minus * y;
        out[i] = y * half_pi;
    }
}

static int sosfilt_cplx(const double *sos, i64 n_sections,
                        const double *xin, i64 n, i64 dec, double *out)
{
    if (n_sections > 16) return 1;
    double z0r[16], z0i[16], z1r[16], z1i[16];
    for (i64 s = 0; s < n_sections; s++)
        z0r[s] = z0i[s] = z1r[s] = z1i[s] = 0.0;
    i64 oi = 0, until = 0;
    for (i64 i = 0; i < n; i++) {
        double xr = xin[2 * i], xi = xin[2 * i + 1];
        for (i64 s = 0; s < n_sections; s++) {
            const double *c = sos + 6 * s;
            double yr = c[0] * xr + z0r[s];
            double yi = c[0] * xi + z0i[s];
            z0r[s] = c[1] * xr - c[4] * yr + z1r[s];
            z0i[s] = c[1] * xi - c[4] * yi + z1i[s];
            z1r[s] = c[2] * xr - c[5] * yr;
            z1i[s] = c[2] * xi - c[5] * yi;
            xr = yr; xi = yi;
        }
        if (i == until) {
            out[2 * oi] = xr; out[2 * oi + 1] = xi;
            oi++; until += dec;
        }
    }
    return 0;
}

/* ---- receiver noise (modem.receiver_noise_baseband) -------------- */

/* out <- sosfilt(sos, (d[:n] + 1j * d[n:]) * scale) for the 2n draws
 * d, as numpy and scipy compute it.  The complex build: 1j * im is
 * numpy's contracted multiply of (0 + 1j) by (im + 0j), re + that
 * promotes re to (re + 0j), and the scale multiplies as (scale + 0j).
 * scipy casts the sections to complex, so its DF2T recurrence copies
 * each input as 1 * x and multiplies by every real coefficient c as by
 * (c + 0j), uncontracted: the 0.0 terms below, which decide the sign
 * of a zero while the filter state is still zero. */
static inline __attribute__((always_inline)) i64
receiver_noise(const double *d, i64 n, double scale, const double *sos,
               i64 n_sections, double *out)
{
    if (n_sections > 16) return 1;
    double z0r[16], z0i[16], z1r[16], z1i[16];
    for (i64 s = 0; s < n_sections; s++)
        z0r[s] = z0i[s] = z1r[s] = z1i[s] = 0.0;
    for (i64 i = 0; i < n; i++) {
        double tr, ti, br, bi;
        cmul_np(0.0, 1.0, d[n + i], 0.0, &tr, &ti);
        cmul_np(d[i] + tr, 0.0 + ti, scale, 0.0, &br, &bi);
        double xr = 1.0 * br - 0.0 * bi, xi = 1.0 * bi + 0.0 * br;
        for (i64 s = 0; s < n_sections; s++) {
            const double *c = sos + 6 * s;
            double yr = (c[0] * xr - 0.0 * xi) + z0r[s];
            double yi = (c[0] * xi + 0.0 * xr) + z0i[s];
            z0r[s] = ((c[1] * xr - 0.0 * xi) - (c[4] * yr - 0.0 * yi))
                     + z1r[s];
            z0i[s] = ((c[1] * xi + 0.0 * xr) - (c[4] * yi + 0.0 * yr))
                     + z1i[s];
            z1r[s] = (c[2] * xr - 0.0 * xi) - (c[5] * yr - 0.0 * yi);
            z1i[s] = (c[2] * xi + 0.0 * xr) - (c[5] * yi + 0.0 * yr);
            xr = yr;
            xi = yi;
        }
        out[2 * i] = xr;
        out[2 * i + 1] = xi;
    }
    return 0;
}

FMA_ENTRY(i64, receiver_noise,
          (const double *d, i64 n, double scale, const double *sos,
           i64 n_sections, double *out),
          (d, n, scale, sos, n_sections, out))

int rk_mix_sosfilt_dec(const double *x, const double *lo, i64 n,
                       const double *sos, i64 n_sections, i64 dec,
                       double *mixed, double *out)
{
    /* numpy promotes the real operand of real*complex, so the product
     * carries explicit 0.0 terms (sign-of-zero semantics). */
    for (i64 i = 0; i < n; i++) {
        double xv = x[i];
        double lr = lo[2 * i], li = lo[2 * i + 1];
        mixed[2 * i] = xv * lr - 0.0 * li;
        mixed[2 * i + 1] = xv * li + 0.0 * lr;
    }
    return sosfilt_cplx(sos, n_sections, mixed, n, dec, out);
}

/* ---- fleet vector lane (FleetEngine's numpy step) ----------------- */

/* Pointers into one FleetEngine's arrays, set once per engine (the log
 * columns again when they grow).  Booleans are numpy bools, one byte
 * each; (network, tag) arrays are row-major n x t, the rings n x
 * history, the offset bank n x t x o_block.  Mirrored field for field
 * by _FleetCtx.  Every period is a power of two (validate_period), and
 * so is the history (twice the longest), so the remainder of a
 * non-negative value by one is a mask: x % p == (x & (p - 1)). */
typedef struct {
    i64 n, t, history, u_block, o_block;
    i64 nack_threshold, ideal, loss_timer, empty_flag, avoidance;
    double detect_p;
    const i64 *period, *activation;
    const double *beacon_loss, *p_success;
    i64 *offset, *slot_counter, *nack_count, *beacons_received;
    i64 *beacons_missed, *consecutive_losses, *transmissions, *migrations;
    i64 *settles;
    unsigned char *settled, *transmitted_last, *ever_settled, *late_arrival;
    unsigned char *pending_ack, *pending_reset, *last_empty, *appeared;
    i64 *committed, *evicting, *ring_decoded;
    unsigned char *ring_collision, *ring_activity;
    const double *u_buf;
    i64 *u_cursor;
    const i64 *o_buf;
    i64 *o_cursor;
    /* capture verdict per transmitter bitmask: tid, -1 none, -2 unknown */
    const i64 *capture_tid;
    const double *capture_p;
    i64 *log_n_tx, *log_decoded;
    unsigned char *log_collision, *log_acked, *log_empty;
    /* scratch: transmit bitmask per network, unresolved bitmasks,
     * (commits, evictions, unresolved count, slots run), period-long
     * sieve */
    i64 *tx, *pending, *out;
    unsigned char *sieve;
    /* rk_fleet_run: collision-free streak per network, and slot + 1 of
     * the slot on which it first reached the run's streak (-1: not yet) */
    i64 *clean_streak, *converged_at;
} FleetCtx;

#define FLEET_REFILL 1
#define FLEET_RESOLVE 2
#define FLEET_UNRESOLVED (-2)

i64 rk_fleet_ctx_size(void) { return (i64)sizeof(FleetCtx); }

static inline i64 fleet_offset_draw(FleetCtx *c, i64 k)
{
    return c->o_buf[k * c->o_block + c->o_cursor[k]++];
}

static inline double fleet_uniform_draw(FleetCtx *c, i64 n)
{
    return c->u_buf[n * c->u_block + c->u_cursor[n]++];
}

/* BatchReader.make_beacon, the beacon-loss draws and the tag firmware
 * of network n.  Tags are independent here, so each runs its phases in
 * TagMac order (loss demote, feedback, RESET, EMPTY gate) and its
 * offset stream is drawn in that order; the loss uniforms are drawn in
 * tid order, as take_grid hands them out. */
static void fleet_tags(FleetCtx *c, i64 n, i64 slot, i64 row)
{
    const i64 t_n = c->t, h = c->history;
    /* EMPTY from the rings as they stand before a RESET wipes them */
    int empty = 1;
    if (c->empty_flag) {
        const i64 *dec = c->ring_decoded + n * h;
        const unsigned char *col = c->ring_collision + n * h;
        for (i64 t = 0; t < t_n; t++) {
            i64 back = slot - c->period[t];
            i64 at = back & (h - 1);
            if (back >= 0 && (dec[at] == t || col[at])) empty = 0;
        }
    }
    c->last_empty[n] = (unsigned char)empty;
    c->log_empty[row * c->n + n] = (unsigned char)empty;
    /* the outgoing beacon carries the pre-reset ACK */
    int ack = c->pending_ack[n], reset = c->pending_reset[n];
    if (reset) {
        c->pending_reset[n] = 0;
        c->pending_ack[n] = 0;
        for (i64 t = 0; t < t_n; t++) {
            c->appeared[n * t_n + t] = 0;
            c->committed[n * t_n + t] = -1;
            c->evicting[n * t_n + t] = -1;
        }
        for (i64 i = 0; i < h; i++) {
            c->ring_decoded[n * h + i] = -1;
            c->ring_collision[n * h + i] = 0;
            c->ring_activity[n * h + i] = 0;
        }
    }
    const double *u = c->u_buf + n * c->u_block + c->u_cursor[n];
    i64 drawn = 0, tx = 0;
    for (i64 t = 0; t < t_n; t++) {
        if (c->activation[t] > slot) continue;  /* not yet active */
        i64 k = n * t_n + t;
        if (u[drawn++] < c->beacon_loss[t]) {
            c->beacons_missed[k]++;
            c->transmitted_last[k] = 0;
            if (c->loss_timer) {
                /* watchdog demote: unconditional re-pick */
                c->consecutive_losses[k]++;
                c->settled[k] = 0;
                c->nack_count[k] = 0;
                c->migrations[k]++;
                c->offset[k] = fleet_offset_draw(c, k);
            }
            continue;
        }
        c->beacons_received[k]++;
        c->consecutive_losses[k] = 0;
        if (c->transmitted_last[k]) {
            int repick = 0;
            if (ack) {
                if (!c->settled[k]) c->settles[k]++;
                c->settled[k] = 1;
                c->nack_count[k] = 0;
                c->ever_settled[k] = 1;
            } else if (!c->settled[k]) {
                repick = 1;
            } else if (++c->nack_count[k] >= c->nack_threshold) {
                c->settled[k] = 0;
                c->nack_count[k] = 0;
                repick = 1;
            }
            if (repick) {
                c->migrations[k]++;
                c->offset[k] = fleet_offset_draw(c, k);
            }
        }
        c->transmitted_last[k] = 0;
        if (reset) {
            c->settled[k] = 0;
            c->offset[k] = fleet_offset_draw(c, k);
            c->nack_count[k] = 0;
            c->ever_settled[k] = 0;
            c->slot_counter[k] = 0;
        }
        if ((c->slot_counter[k] & (c->period[t] - 1)) == c->offset[k]) {
            if (!empty && c->late_arrival[k] && !c->ever_settled[k]) {
                /* a newcomer deferring to a predicted-busy slot re-rolls
                 * (MIGRATE only) instead of transmitting */
                if (!c->settled[k]) {
                    c->migrations[k]++;
                    c->offset[k] = fleet_offset_draw(c, k);
                }
            } else {
                c->transmissions[k]++;
                c->transmitted_last[k] = 1;
                tx |= (i64)1 << t;
            }
        }
        c->slot_counter[k]++;
    }
    c->u_cursor[n] += drawn;
    c->tx[n] = tx;
    c->log_n_tx[row * c->n + n] = __builtin_popcountll((unsigned long long)tx);
}

/* free_offsets: sieve[o] = 1 iff offset o of a period tag conflicts
 * with none of network n's committed assignments but those of tags a
 * and b; returns whether any offset is free (find_free_offset). */
static int fleet_sieve(FleetCtx *c, i64 n, i64 period, i64 a, i64 b)
{
    const i64 *com = c->committed + n * c->t;
    unsigned char *free = c->sieve;
    for (i64 o = 0; o < period; o++) free[o] = 1;
    for (i64 t = 0; t < c->t; t++) {
        if (com[t] < 0 || t == a || t == b) continue;
        i64 step = c->period[t] < period ? c->period[t] : period;
        for (i64 o = com[t] & (step - 1); o < period; o += step) free[o] = 0;
    }
    for (i64 o = 0; o < period; o++)
        if (free[o]) return 1;
    return 0;
}

/* BatchReader._start_eviction_scalar for a decoded tag d that fits
 * nowhere.  The victim is min(period, name) over the candidates, which
 * is min(period, tid): tids follow the sorted names. */
static void fleet_start_eviction(FleetCtx *c, i64 n, i64 d, i64 period,
                                 i64 *evictions)
{
    const i64 t_n = c->t;
    i64 *ev = c->evicting + n * t_n;
    const i64 *com = c->committed + n * t_n;
    for (i64 v = 0; v < t_n; v++)
        if (ev[v] >= 0 && fleet_sieve(c, n, period, d, v)) return;
    i64 chosen = -1;
    for (i64 v = 0; v < t_n; v++) {
        if (v == d || com[v] < 0 || ev[v] >= 0) continue;
        if (!fleet_sieve(c, n, period, d, v)) continue;
        if (chosen < 0 || c->period[v] < c->period[chosen]) chosen = v;
    }
    if (chosen < 0) return;
    ev[chosen] = 0;
    (*evictions)++;
}

/* BatchReader._decide_ack_scalar on network n for decoded tag d. */
static int fleet_decide_ack(FleetCtx *c, i64 n, i64 d, i64 slot,
                            i64 *commits, i64 *evictions)
{
    i64 period = c->period[d], offset = slot & (period - 1);
    i64 *ev = c->evicting + n * c->t + d;
    i64 *com = c->committed + n * c->t + d;
    if (*ev >= 0) {
        if (*com >= 0 && offset == *com) {
            if (++*ev >= c->nack_threshold) {
                *ev = -1;
                *com = -1;
            }
            return 0;
        }
        *ev = -1;
        *com = -1;
    }
    if (*com == offset) return 1;
    *com = -1;
    if (c->avoidance) {
        if (!fleet_sieve(c, n, period, d, -1)) {
            fleet_start_eviction(c, n, d, period, evictions);
            return 0;
        }
        if (!c->sieve[offset]) return 0;
    }
    *com = offset;
    (*commits)++;
    return 1;
}

/* Arbitration and BatchReader.digest of network n.  The arbitration
 * draws follow the loss draws on the network's slot stream: one for a
 * lone transmitter, else the capture draw (only for a set with a
 * capturable tid) and then the collision-detection draw. */
static void fleet_digest(FleetCtx *c, i64 n, i64 slot, i64 row,
                         i64 *commits, i64 *evictions)
{
    const i64 t_n = c->t, h = c->history;
    i64 tx = c->tx[n], decoded = -1;
    int collision = 0;
    if (tx && !(tx & (tx - 1))) {
        i64 tid = __builtin_ctzll((unsigned long long)tx);
        if (c->ideal || fleet_uniform_draw(c, n) < c->p_success[tid])
            decoded = tid;
    } else if (tx) {
        if (c->ideal) {
            collision = 1;
        } else {
            i64 cap = c->capture_tid[tx];
            if (cap >= 0 && fleet_uniform_draw(c, n) < c->capture_p[tx])
                decoded = cap;
            collision = fleet_uniform_draw(c, n) < c->detect_p;
        }
    }
    i64 pos = slot & (h - 1);
    int occupied = decoded >= 0 || collision;
    c->ring_activity[n * h + pos] = (unsigned char)occupied;
    c->ring_decoded[n * h + pos] = decoded;
    c->ring_collision[n * h + pos] = (unsigned char)collision;
    if (!occupied) {
        /* a committed tag's scheduled slot passed silently */
        i64 *com = c->committed + n * t_n, *ev = c->evicting + n * t_n;
        for (i64 t = 0; t < t_n; t++) {
            if (com[t] >= 0 && com[t] == (slot & (c->period[t] - 1))) {
                com[t] = -1;
                ev[t] = -1;
            }
        }
    }
    int ack = 0;
    if (decoded >= 0 && !collision) {
        c->appeared[n * t_n + decoded] = 1;
        ack = fleet_decide_ack(c, n, decoded, slot, commits, evictions);
    }
    c->pending_ack[n] = (unsigned char)ack;
    c->log_decoded[row * c->n + n] = decoded;
    c->log_collision[row * c->n + n] = (unsigned char)collision;
    c->log_acked[row * c->n + n] = (unsigned char)ack;
}

/* The second half of a slot: FLEET_RESOLVE, with the transmitter sets
 * whose capture verdict is unknown in pending[0 .. out[2]), or 0 after
 * arbitrating and digesting every network (out[0], out[1] <- the
 * slot's commits and evictions). */
i64 rk_fleet_finish(FleetCtx *c, i64 slot, i64 row)
{
    i64 m = 0;
    if (!c->ideal) {
        for (i64 n = 0; n < c->n; n++) {
            i64 tx = c->tx[n];
            if ((tx & (tx - 1)) && c->capture_tid[tx] == FLEET_UNRESOLVED)
                c->pending[m++] = tx;
        }
    }
    c->out[2] = m;
    if (m) return FLEET_RESOLVE;
    i64 commits = 0, evictions = 0;
    for (i64 n = 0; n < c->n; n++)
        fleet_digest(c, n, slot, row, &commits, &evictions);
    c->out[0] = commits;
    c->out[1] = evictions;
    return 0;
}

/* One slot of every network: FLEET_REFILL, having done nothing, when a
 * stream holds fewer draws than a slot's worst case (t + 2 uniforms, 3
 * offsets: a tag re-picks at most for feedback, RESET and the EMPTY
 * gate; 4 is the numpy step's bound, which adds the energy tier's
 * brownout), else the beacons and tags, then rk_fleet_finish. */
i64 rk_fleet_step(FleetCtx *c, i64 slot, i64 row)
{
    for (i64 n = 0; n < c->n; n++)
        if (c->u_cursor[n] + c->t + 2 > c->u_block) return FLEET_REFILL;
    for (i64 k = 0; k < c->n * c->t; k++)
        if (c->o_cursor[k] + 4 > c->o_block) return FLEET_REFILL;
    for (i64 n = 0; n < c->n; n++) fleet_tags(c, n, slot, row);
    return rk_fleet_finish(c, slot, row);
}

/* ---- PCG64 streams (numpy's SeedSequence, PCG64 and Generator) ---- */

/* A stream is one row of six uint64: state hi, state lo, inc hi, inc lo,
 * has_uint32, uinteger (the fields of numpy's PCG64.state).  Without a
 * 128-bit integer type the entries are not built, and load() leaves
 * them out of the table. */
#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;
typedef unsigned long long u64;
typedef unsigned int u32;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline u32 ss_hashmix(u32 value, u32 *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline u32 ss_mix(u32 x, u32 y)
{
    u32 r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* np.random.PCG64(seed).state for every seed in [0, 2**64): the seed's
 * 32-bit words hashed into SeedSequence's four-word pool,
 * generate_state(4, uint64), then pcg_setseq_128_srandom_r with the
 * first two words as the state (high word first), the last two as the
 * sequence.  numpy takes one word below 2**32 and two from there up,
 * and hashes a 0 into each pool word past them: the same as always
 * hashing both words, the high one 0 below 2**32. */
void rk_pcg64_seed(const u64 *seeds, i64 n, u64 *states)
{
    for (i64 s = 0; s < n; s++) {
        u64 seed = seeds[s];
        u32 pool[4], hash_a = 0x43b0d7e5u, hash_b = 0x8b51f9ddu;
        for (int i = 0; i < 4; i++)
            pool[i] = ss_hashmix(i < 2 ? (u32)(seed >> (32 * i)) : 0, &hash_a);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash_a));
        u64 out[4] = {0, 0, 0, 0};
        for (int i = 0; i < 8; i++) {
            u32 v = pool[i & 3] ^ hash_b;
            hash_b *= 0x58f38dedu;
            v *= hash_b;
            v ^= v >> 16;
            out[i >> 1] |= (u64)v << (32 * (i & 1));
        }
        u128 inc = ((((u128)out[2] << 64) | out[3]) << 1) | 1u;
        u128 state = inc;
        state += ((u128)out[0] << 64) | out[1];
        state = state * PCG_MULT + inc;
        u64 *row = states + 6 * s;
        row[0] = (u64)(state >> 64);
        row[1] = (u64)state;
        row[2] = (u64)(inc >> 64);
        row[3] = (u64)inc;
        row[4] = 0;
        row[5] = 0;
    }
}

/* One XSL-RR 128/64 step. */
static inline u64 pcg_next64(u128 *state, u128 inc)
{
    u128 s = *state = *state * PCG_MULT + inc;
    u64 x = (u64)(s >> 64) ^ (u64)s;
    unsigned rot = (unsigned)(s >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

/* numpy's next_uint32: the low half of a fresh draw, the high half
 * kept for the next call. */
static inline u32 pcg_next32(u128 *state, u128 inc, u64 *has, u64 *half)
{
    if (*has) {
        *has = 0;
        return (u32)*half;
    }
    u64 next = pcg_next64(state, inc);
    *has = 1;
    *half = next >> 32;
    return (u32)next;
}

/* Generator.integers(0, bound) for 1 <= bound < 2**32: Lemire's
 * multiply-shift on 32-bit draws with its rejection loop; bound 1
 * takes no draw. */
static void pcg_integers(u128 *state, u128 inc, u64 *has, u64 *half,
                         u32 bound, i64 *out, i64 count)
{
    if (bound == 1) {
        for (i64 k = 0; k < count; k++) out[k] = 0;
        return;
    }
    const u32 threshold = (0xFFFFFFFFu - (bound - 1)) % bound;
    for (i64 k = 0; k < count; k++) {
        u64 m = (u64)pcg_next32(state, inc, has, half) * bound;
        u32 leftover = (u32)m;
        if (leftover < bound) {
            while (leftover < threshold) {
                m = (u64)pcg_next32(state, inc, has, half) * bound;
                leftover = (u32)m;
            }
        }
        out[k] = (i64)(m >> 32);
    }
}

/* Every stream s with cursor[s] + needed > block moves its unread draws
 * to the front of its block row, fills the rest with fresh draws and
 * rewinds its cursor: Generator.random() into doubles when bounds is
 * NULL, else Generator.integers(0, bounds[s]) into int64. */
void rk_pcg64_refill(u64 *states, i64 n, void *buf, i64 block,
                     i64 *cursor, i64 needed, const i64 *bounds)
{
    for (i64 s = 0; s < n; s++) {
        i64 cur = cursor[s];
        if (cur + needed <= block) continue;
        i64 rem = block - cur;
        u64 *row = states + 6 * s;
        u128 state = ((u128)row[0] << 64) | row[1];
        u128 inc = ((u128)row[2] << 64) | row[3];
        if (bounds) {
            i64 *b = (i64 *)buf + s * block;
            for (i64 k = 0; k < rem; k++) b[k] = b[cur + k];
            pcg_integers(&state, inc, &row[4], &row[5], (u32)bounds[s],
                         b + rem, cur);
        } else {
            double *b = (double *)buf + s * block;
            for (i64 k = 0; k < rem; k++) b[k] = b[cur + k];
            for (i64 k = rem; k < block; k++)
                b[k] = (double)(pcg_next64(&state, inc) >> 11)
                       * (1.0 / 9007199254740992.0);
        }
        row[0] = (u64)(state >> 64);
        row[1] = (u64)state;
        cursor[s] = 0;
    }
}
#endif

/* ---- fleet runs: many slots per call ------------------------------ */

/* Called through the GOT: a new PLT entry would move every function
 * above. */
i64 rk_fleet_step(FleetCtx *c, i64 slot, i64 row) __attribute__((noplt));

/* Up to n_slots slots of every network from (slot, row), writing log
 * rows row... in place.  With streak > 0, each finished row's collision
 * bytes update every network's collision-free streak, a network whose
 * streak first reaches streak records slot + 1 of that row in
 * converged_at, and the run also ends once every network has a record.
 * Returns 0 after n_slots slots or that convergence, else the code of
 * the rk_fleet_step that stopped it: FLEET_REFILL at a slot boundary,
 * FLEET_RESOLVE mid-slot.  out[3] <- the slots finished. */
i64 rk_fleet_run(FleetCtx *c, i64 slot, i64 row, i64 n_slots, i64 streak)
{
    i64 open = 0, done = 0, code = 0;
    if (streak > 0)
        for (i64 n = 0; n < c->n; n++) open += c->converged_at[n] < 0;
    while (done < n_slots && (streak <= 0 || open > 0)) {
        code = rk_fleet_step(c, slot + done, row + done);
        if (code) break;
        if (streak > 0) {
            const unsigned char *col = c->log_collision + (row + done) * c->n;
            for (i64 n = 0; n < c->n; n++) {
                c->clean_streak[n] = col[n] ? 0 : c->clean_streak[n] + 1;
                if (c->clean_streak[n] >= streak && c->converged_at[n] < 0) {
                    c->converged_at[n] = slot + done + 1;
                    open--;
                }
            }
        }
        done++;
    }
    c->out[3] = done;
    return code;
}

/* ---- stream seeds (RandomStreams.seed_of and fork) ---------------- */

/* Every helper here is inlined: an out-of-line static function would be
 * emitted ahead of the exported entries and move them. */

static const unsigned int SHA256_K[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

/* Messages hashed side by side: each step of SEED_LANES independent
 * SHA-256 compressions is one loop over the lanes, which the compiler
 * turns into vector code (~3x the throughput of one message at a
 * time). */
#define SEED_LANES 16

/* A message RandomStreams hashes: head (the decimal seed and the
 * separator, at most 21 bytes), then name (UTF-8, any length). */
typedef struct {
    unsigned char head[24];
    i64 n_head;
    const unsigned char *name;
    i64 n_name;
} SeedMessage;

static inline __attribute__((always_inline)) unsigned int
rotr32(unsigned int x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/* SHA-256 (FIPS 180-4): one compression of each lane's block, the
 * big-endian words w[0..15][lane], into its state h[0..7][lane]. */
static inline __attribute__((always_inline)) void
sha256_lanes(unsigned int h[8][SEED_LANES], unsigned int w[64][SEED_LANES])
{
    for (int i = 16; i < 64; i++)
        for (int l = 0; l < SEED_LANES; l++) {
            unsigned int x = w[i - 15][l], y = w[i - 2][l];
            unsigned int s0 = rotr32(x, 7) ^ rotr32(x, 18) ^ (x >> 3);
            unsigned int s1 = rotr32(y, 17) ^ rotr32(y, 19) ^ (y >> 10);
            w[i][l] = w[i - 16][l] + s0 + w[i - 7][l] + s1;
        }
    unsigned int a[SEED_LANES], b[SEED_LANES], c[SEED_LANES], d[SEED_LANES];
    unsigned int e[SEED_LANES], f[SEED_LANES], g[SEED_LANES], k[SEED_LANES];
    for (int l = 0; l < SEED_LANES; l++) {
        a[l] = h[0][l];
        b[l] = h[1][l];
        c[l] = h[2][l];
        d[l] = h[3][l];
        e[l] = h[4][l];
        f[l] = h[5][l];
        g[l] = h[6][l];
        k[l] = h[7][l];
    }
    for (int i = 0; i < 64; i++)
        for (int l = 0; l < SEED_LANES; l++) {
            unsigned int t1 = k[l]
                              + (rotr32(e[l], 6) ^ rotr32(e[l], 11) ^ rotr32(e[l], 25))
                              + ((e[l] & f[l]) ^ (~e[l] & g[l])) + SHA256_K[i] + w[i][l];
            unsigned int t2 = (rotr32(a[l], 2) ^ rotr32(a[l], 13) ^ rotr32(a[l], 22))
                              + ((a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]));
            k[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l] + t1;
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1 + t2;
        }
    for (int l = 0; l < SEED_LANES; l++) {
        h[0][l] += a[l];
        h[1][l] += b[l];
        h[2][l] += c[l];
        h[3][l] += d[l];
        h[4][l] += e[l];
        h[5][l] += f[l];
        h[6][l] += g[l];
        h[7][l] += k[l];
    }
}

/* The padded message's block count: its bytes, the 0x80 marker and
 * the 8-byte bit length. */
static inline __attribute__((always_inline)) i64
seed_blocks(const SeedMessage *m)
{
    return (m->n_head + m->n_name + 8) / 64 + 1;
}

/* Block blk of the padded message m, into lane of w: the message
 * bytes it covers, the 0x80 marker after the last, zeros, and in the
 * last block the big-endian bit length. */
static inline __attribute__((always_inline)) void
seed_block(const SeedMessage *m, i64 blk, unsigned int w[64][SEED_LANES], int lane)
{
    unsigned char block[64] = {0};
    i64 lo = 64 * blk, hi = lo + 64, total = m->n_head + m->n_name;
    for (i64 p = lo; p < m->n_head && p < hi; p++) block[p - lo] = m->head[p];
    for (i64 p = lo > m->n_head ? lo : m->n_head; p < total && p < hi; p++)
        block[p - lo] = m->name[p - m->n_head];
    if (lo <= total && total < hi) block[total - lo] = 0x80;
    if (blk == seed_blocks(m) - 1) {
        unsigned long long bits = (unsigned long long)total * 8;
        for (int i = 0; i < 8; i++) block[56 + i] = (unsigned char)(bits >> (56 - 8 * i));
    }
    for (int i = 0; i < 16; i++)
        w[i][lane] = (unsigned int)block[4 * i] << 24 | (unsigned int)block[4 * i + 1] << 16
                     | (unsigned int)block[4 * i + 2] << 8 | (unsigned int)block[4 * i + 3];
}

/* *out[lane] <- the seed of message m[lane], for each of the first
 * count lanes: the SHA-256 digest's first 8 bytes read little end
 * first.  The digest is h[0], h[1], ... big end first, so those are
 * h[0] and h[1] byte-swapped.  A lane is read after its own last
 * block; the lanes idle after theirs compress zeros. */
static inline __attribute__((always_inline)) void
seed_hash(const SeedMessage *m, int count, unsigned long long **out)
{
    static const unsigned int iv[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
    };
    unsigned int h[8][SEED_LANES], w[64][SEED_LANES];
    i64 blocks[SEED_LANES], most = 0;
    for (int i = 0; i < 8; i++)
        for (int l = 0; l < SEED_LANES; l++) h[i][l] = iv[i];
    for (int l = 0; l < count; l++) {
        blocks[l] = seed_blocks(&m[l]);
        if (blocks[l] > most) most = blocks[l];
    }
    for (i64 blk = 0; blk < most; blk++) {
        for (int l = 0; l < SEED_LANES; l++) {
            if (l < count && blk < blocks[l]) {
                seed_block(&m[l], blk, w, l);
            } else {
                for (int i = 0; i < 16; i++) w[i][l] = 0;
            }
        }
        sha256_lanes(h, w);
        for (int l = 0; l < count; l++)
            if (blk == blocks[l] - 1)
                *out[l] = (unsigned long long)__builtin_bswap32(h[0][l])
                          | (unsigned long long)__builtin_bswap32(h[1][l]) << 32;
    }
}

/* m's head: str(v) (at most 20 digits), then sep. */
static inline __attribute__((always_inline)) void
seed_head(SeedMessage *m, unsigned long long v, unsigned char sep)
{
    unsigned char rev[20];
    i64 n = 0;
    do {
        rev[n++] = (unsigned char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (i64 i = 0; i < n; i++) m->head[i] = rev[n - 1 - i];
    m->head[n] = sep;
    m->n_head = n + 1;
}

/* For each master seed seeds[s] in [0, 2**64): slots[s] <-
 * RandomStreams(seeds[s]).seed_of("slots"), and offsets[s * t + k] <-
 * RandomStreams(seeds[s]).fork(name k).seed_of("offset"), name k being
 * the UTF-8 bytes names[starts[k] .. starts[k + 1]).  Two passes of
 * messages, SEED_LANES at a time: "{seed}:slots" and "{seed}/{name}"
 * (the fork seeds, parked in offsets), then "{fork}:offset". */
void rk_stream_seeds(const unsigned long long *seeds, i64 n,
                     const unsigned char *names, const i64 *starts, i64 t,
                     unsigned long long *slots, unsigned long long *offsets)
{
    static const unsigned char slots_name[5] = {'s', 'l', 'o', 't', 's'};
    static const unsigned char offset_name[6] = {'o', 'f', 'f', 's', 'e', 't'};
    SeedMessage m[SEED_LANES];
    unsigned long long *out[SEED_LANES];
    i64 forks = n * (t + 1), jobs = forks + n * t;
    int count = 0;
    for (i64 j = 0; j < jobs; j++) {
        SeedMessage *msg = &m[count];
        if (j < forks) {
            i64 s = j / (t + 1), k = j % (t + 1) - 1;
            if (k < 0) {
                seed_head(msg, seeds[s], ':');
                msg->name = slots_name;
                msg->n_name = 5;
                out[count] = &slots[s];
            } else {
                seed_head(msg, seeds[s], '/');
                msg->name = names + starts[k];
                msg->n_name = starts[k + 1] - starts[k];
                out[count] = &offsets[s * t + k];
            }
        } else {
            seed_head(msg, offsets[j - forks], ':');
            msg->name = offset_name;
            msg->n_name = 6;
            out[count] = &offsets[j - forks];
        }
        /* The second pass reads the forks: the first is hashed whole
         * before it starts. */
        if (++count == SEED_LANES || j == forks - 1 || j == jobs - 1) {
            seed_hash(m, count, out);
            count = 0;
        }
    }
}
"""


class KernelBuildError(RuntimeError):
    """Raised when the C backend cannot be compiled or loaded."""


def _compiler() -> str:
    cc = os.environ.get("CC")
    if cc:
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    raise KernelBuildError("no C compiler found (cc/gcc/clang)")


def _source_hash(cc: str) -> str:
    h = hashlib.sha256()
    h.update(_C_SOURCE.encode())
    h.update(" ".join(_CFLAGS).encode())
    h.update(cc.encode())
    h.update(sys.platform.encode())
    return h.hexdigest()[:16]


def _candidate_dirs() -> List[str]:
    dirs = []
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        dirs.append(env)
    dirs.append(os.path.join(os.path.dirname(__file__), "_kernels_build"))
    dirs.append(
        os.path.join(tempfile.gettempdir(), f"repro-kernels-{os.getuid()}")
        if hasattr(os, "getuid")
        else os.path.join(tempfile.gettempdir(), "repro-kernels")
    )
    return dirs


#: Kernel-cache repairs made by this process: each names a cached
#: library that failed verification, was moved aside and rebuilt.
CACHE_REPAIRS: List[str] = []


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _verify(so_path: str) -> Optional[str]:
    """Why the cached library must not be loaded, or None if it is sound.

    ``ctypes.CDLL`` maps whatever file it is given, and a truncated
    shared object kills the interpreter (SIGBUS) instead of raising.
    Each build therefore publishes a ``.sha256`` stamp holding the
    library's size and digest, and a hit is only a hit if both match.
    """
    if not os.path.exists(so_path):
        return "missing"
    try:
        with open(so_path + ".sha256", encoding="ascii") as fh:
            size_text, digest = fh.read().split()
        size = os.path.getsize(so_path)
    except (OSError, ValueError) as exc:
        return f"no valid stamp ({type(exc).__name__})"
    if size != int(size_text):
        return f"size {size} != stamped {size_text}"
    if _digest(so_path) != digest:
        return "digest differs from its stamp"
    return None


@contextlib.contextmanager
def _build_lock(path: str) -> Iterator[None]:
    """Serialise compiles of one cache entry (no-op where ``fcntl`` is
    missing: each compile still publishes atomically)."""
    try:
        import fcntl
    except ImportError:
        yield
        return
    with open(path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _compile(cc: str, cache_dir: str, so_path: str) -> None:
    """Build in a private directory, then publish library and stamp.

    Each process compiles its own copy of the source, so none can
    truncate the file under another's compiler.
    """
    work = tempfile.mkdtemp(prefix=".build-", dir=cache_dir)
    try:
        src_path = os.path.join(work, "_repro_kernels.c")
        out_path = os.path.join(work, "_repro_kernels.so")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        cmd = [cc, *_CFLAGS, "-o", out_path, src_path, "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{cc} failed ({proc.returncode}): {proc.stderr[-500:]}"
            )
        stamp_path = os.path.join(work, "stamp")
        with open(stamp_path, "w", encoding="ascii") as fh:
            fh.write(f"{os.path.getsize(out_path)} {_digest(out_path)}\n")
        os.replace(out_path, so_path)
        os.replace(stamp_path, so_path + ".sha256")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _build_library() -> Tuple[str, str]:
    """Compile (or reuse) the shared object; returns (path, cc)."""
    cc = _compiler()
    tag = _source_hash(cc)
    stem = f"_repro_kernels_{tag}"
    last_error: Optional[Exception] = None
    for cache_dir in _candidate_dirs():
        try:
            so_path = os.path.join(cache_dir, stem + ".so")
            if _verify(so_path) is None:
                perf.count("cache.kernel_build.hit")
                return so_path, cc
            os.makedirs(cache_dir, exist_ok=True)
            with _build_lock(os.path.join(cache_dir, stem + ".lock")):
                # Another process may have built it while we waited.
                problem = _verify(so_path)
                if problem is None:
                    perf.count("cache.kernel_build.hit")
                    return so_path, cc
                if problem != "missing":
                    aside = f"{so_path}.bad-{os.getpid()}"
                    os.replace(so_path, aside)
                    CACHE_REPAIRS.append(
                        f"{so_path}: {problem}; moved to {aside} and rebuilt"
                    )
                _compile(cc, cache_dir, so_path)
            perf.count("cache.kernel_build.miss")
            return so_path, cc
        except KernelBuildError:
            raise
        except Exception as exc:  # unwritable dir, timeout, ...
            last_error = exc
            continue
    raise KernelBuildError(f"no writable kernel cache dir: {last_error}")


#: Compiled entries left out of the table because a load-time probe
#: found the host's numpy computing differently, or the compiler lacks
#: what they need: name -> reason.
PROBE_FAILURES: Dict[str, str] = {}


def _abs_probe() -> np.ndarray:
    """Fixed finite complex values spanning scales, ties and zeros."""
    rng = np.random.default_rng(0xAB5)
    z = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    z *= 10.0 ** rng.integers(-150, 150, size=2048)
    edge = [0j, -0.0 - 0.0j, 1 + 1j, 3 - 4j, 1e-310 + 2e-310j, 5e-324j,
            1e300 + 1e300j, 1.0 + 1e-17j]
    return np.ascontiguousarray(np.concatenate([z, edge]))


def _abs_matches_numpy(lib: ctypes.CDLL) -> bool:
    """Whether the C complex-abs replica is byte-identical to ``np.abs``
    on the probe values."""
    probe = _abs_probe()
    got = np.empty(probe.size)
    lib.rk_cabs(probe.ctypes.data, probe.size, got.ctypes.data)
    return got.tobytes() == np.abs(probe).tobytes()


def _exp_matches_numpy(lib: ctypes.CDLL) -> bool:
    """Whether the FM0 chain's C de-rotation ramps and bit-phase phasors
    are byte-identical to ``np.exp`` on probe offsets and phases."""
    rng = np.random.default_rng(0xE4)
    n = 2048
    got = np.empty(n, dtype=np.complex128)
    for fs in (4504.504504504504, 9009.0, 1125.0, 48000.0):
        for offset in (0.0, *rng.uniform(-fs / 2, fs / 2, size=3)):
            c = -2j * math.pi * float(offset)
            lib.rk_ramp(n, c.real, c.imag, fs, got.ctypes.data)
            if got.tobytes() != np.exp(c * np.arange(n) / fs).tobytes():
                return False
    phases = np.concatenate(
        [rng.random(4096), [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), 5e-324]]
    )
    turn = 2j * math.pi
    got = np.empty(phases.size, dtype=np.complex128)
    lib.rk_unit_phasors(
        phases.ctypes.data, phases.size, turn.real, turn.imag, got.ctypes.data
    )
    return got.tobytes() == np.exp(turn * phases).tobytes()


def _pcg64_matches_numpy(seed: Callable, refill: Callable) -> bool:
    """Whether the compiled PCG64 entries seed and draw byte for byte as
    their numpy twins: fixed seeds around the one- and two-word
    boundaries, ``random`` and ``integers`` fills with bounds 1, 3,
    2**31 and 2**31 + 1 (which rejects nearly half its draws), and
    second refills of 1 to 12 draws, so that the 32-bit half-word carry
    crosses calls."""
    from repro.phy.kernels import _np_pcg64_refill, _np_pcg64_seed

    rng = np.random.default_rng(0x9C6)
    seeds = np.concatenate([
        np.array([0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**64 - 1, size=6, dtype=np.uint64, endpoint=True),
        rng.integers(0, 2**32, size=6, dtype=np.uint64),
    ])
    states = seed(seeds)
    if states.tobytes() != _np_pcg64_seed(seeds).tobytes():
        return False
    n, block = seeds.size, 13
    bounds = np.resize(np.array([1, 3, 2**31, 2**31 + 1], dtype=np.int64), n)
    for kind, dtype in ((None, np.float64), (bounds, np.int64)):
        runs = []
        for fill in (refill, _np_pcg64_refill):
            rows = states.copy()
            buf = np.zeros((n, block), dtype=dtype)
            cursor = np.full(n, block, dtype=np.int64)
            fill(rows, buf, cursor, block, kind)
            cursor[:] = 1 + np.arange(n) % (block - 1)
            fill(rows, buf, cursor, block, kind)
            runs.append(rows.tobytes() + buf.tobytes() + cursor.tobytes())
        if runs[0] != runs[1]:
            return False
    return True


def _stream_seeds_match_hashlib(stream_seeds: Callable) -> bool:
    """Whether the compiled stream-seed entry derives what its
    ``hashlib`` twin derives: seeds around the word and decimal-length
    boundaries and the ends of the range, and names that are empty,
    non-ASCII, or long enough for one or two further SHA-256 blocks."""
    from repro.phy.kernels import _np_stream_seeds

    seeds = [0, 1, 9, 10, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345678901234567]
    names = [
        "tag1", "tag12", "", "ü", "标签", "x" * 40, "y" * 54, "z" * 55,
        "w" * 119, "v" * 200,
    ]
    got = stream_seeds(seeds, names)
    want = _np_stream_seeds(seeds, names)
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


_tls = threading.local()


class _Lane:
    """Per-thread reusable buffers with C pointers extracted once.

    ``ndarray.ctypes.data`` costs ~1.3 us per access and
    ``ctypes.data_as`` ~2.4 us; at ~15 kernel calls per slot that
    bookkeeping would dominate the kernels themselves.  The lane keeps
    every scratch/in/out buffer alive for the thread's lifetime with
    its raw pointer cached, so a call is one ``np.copyto`` in, one C
    call, and (for array results) one ``ndarray.copy`` out.
    """

    __slots__ = (
        "cap",
        "fa", "pfa",        # float64 input/output lane
        "fb", "pfb",        # float64 scratch, 2 * cap (destroyed by kernels)
        "fc", "pfc",        # float64 secondary output lane
        "i8", "pi8",        # int8 output lane
        "u8a", "pu8a",      # uint8 input lane
        "u8b", "pu8b",      # uint8 output lane
        "u8c", "pu8c",      # uint8 output lane
        "ca", "pca",        # complex128 input lane
        "cb", "pcb",        # complex128 scratch lane
        "cc", "pcc",        # complex128 output lane
        "ia", "pia",        # int64 output lane
        "ib", "pib",        # int64 output lane
        "hist", "phist",    # histogram counts
        "xe", "pxe",        # histogram x edges
        "ye", "pye",        # histogram y edges
        "grid", "pgrid",    # cluster-stage float grid
        "l32", "pl32",      # cluster labels (int32)
        "out16", "pout16",  # small scalar-tuple returns
    )

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.fa = np.empty(cap)
        self.pfa = self.fa.ctypes.data
        self.fb = np.empty(2 * cap)
        self.pfb = self.fb.ctypes.data
        self.fc = np.empty(cap)
        self.pfc = self.fc.ctypes.data
        self.i8 = np.empty(cap, dtype=np.int8)
        self.pi8 = self.i8.ctypes.data
        self.u8a = np.empty(cap, dtype=np.uint8)
        self.pu8a = self.u8a.ctypes.data
        self.u8b = np.empty(cap, dtype=np.uint8)
        self.pu8b = self.u8b.ctypes.data
        self.u8c = np.empty(cap, dtype=np.uint8)
        self.pu8c = self.u8c.ctypes.data
        self.ca = np.empty(cap, dtype=np.complex128)
        self.pca = self.ca.ctypes.data
        self.cb = np.empty(cap, dtype=np.complex128)
        self.pcb = self.cb.ctypes.data
        self.cc = np.empty(cap, dtype=np.complex128)
        self.pcc = self.cc.ctypes.data
        self.ia = np.empty(cap, dtype=np.int64)
        self.pia = self.ia.ctypes.data
        self.ib = np.empty(cap, dtype=np.int64)
        self.pib = self.ib.ctypes.data
        self.hist = np.empty(MAX_HIST_BINS * MAX_HIST_BINS)
        self.phist = self.hist.ctypes.data
        self.xe = np.empty(MAX_HIST_BINS + 1)
        self.pxe = self.xe.ctypes.data
        self.ye = np.empty(MAX_HIST_BINS + 1)
        self.pye = self.ye.ctypes.data
        self.grid = np.empty(MAX_HIST_BINS * MAX_HIST_BINS)
        self.pgrid = self.grid.ctypes.data
        self.l32 = np.empty(MAX_HIST_BINS * MAX_HIST_BINS, dtype=np.int32)
        self.pl32 = self.l32.ctypes.data
        self.out16 = np.empty(16)
        self.pout16 = self.out16.ctypes.data


def _lane(n: int) -> _Lane:
    lane = getattr(_tls, "lane", None)
    if lane is None or lane.cap < n:
        lane = _Lane(max(2 * n, 8192))
        _tls.lane = lane
    return lane


_I64 = ctypes.c_longlong
_PTR = ctypes.c_void_p


class _FleetCtx(ctypes.Structure):
    """ctypes mirror of the C ``FleetCtx``, field for field."""

    _fields_ = [
        (name, _I64)
        for name in (
            "n", "t", "history", "u_block", "o_block", "nack_threshold",
            "ideal", "loss_timer", "empty_flag", "avoidance",
        )
    ] + [("detect_p", ctypes.c_double)] + [
        (name, _PTR)
        for name in (
            "period", "activation", "beacon_loss", "p_success",
            "offset", "slot_counter", "nack_count", "beacons_received",
            "beacons_missed", "consecutive_losses", "transmissions",
            "migrations", "settles",
            "settled", "transmitted_last", "ever_settled", "late_arrival",
            "pending_ack", "pending_reset", "last_empty", "appeared",
            "committed", "evicting", "ring_decoded",
            "ring_collision", "ring_activity",
            "u_buf", "u_cursor", "o_buf", "o_cursor",
            "capture_tid", "capture_p",
            "log_n_tx", "log_decoded", "log_collision", "log_acked",
            "log_empty",
            "tx", "pending", "out", "sieve", "clean_streak", "converged_at",
        )
    ]


#: ``rk_fleet_step`` / ``rk_fleet_finish`` / ``rk_fleet_run`` return codes.
_FLEET_REFILL = 1
_FLEET_RESOLVE = 2


def _address(array: np.ndarray, dtype) -> int:
    """The data pointer of a C-contiguous ``dtype`` array."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"compiled kernel needs C-contiguous {np.dtype(dtype)}")
    return array.ctypes.data


class _FleetStepper:
    """One engine's compiled slot loop.

    Every array the C step reads or writes belongs to the engine, which
    updates them in place on its numpy step too, so their pointers are
    taken once; the slot log's columns are re-pointed when they grow.
    The engine keeps the stepper, and the stepper no reference to the
    engine: a cycle would hold each finished engine's arrays until the
    cyclic collector ran.
    """

    def __init__(self, engine, finish: Callable, run: Callable) -> None:
        from repro.channel.medium import CLUSTER_DETECTION_PROBABILITY

        self._finish = finish
        self._run = run
        n, t = engine.n_networks, engine.n_tags
        cfg = engine.config
        tags, reader = engine.tags, engine.reader
        uniforms, offsets = engine._uniforms, engine._offsets
        self.tx = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=np.int64)
        self.out = np.zeros(4, dtype=np.int64)
        self.sieve = np.zeros(max(engine._periods_list), dtype=np.uint8)
        ctx = self.ctx = _FleetCtx(
            n=n,
            t=t,
            history=reader._history,
            u_block=uniforms._block,
            o_block=offsets._block,
            nack_threshold=cfg.nack_threshold,
            ideal=cfg.ideal_channel,
            loss_timer=cfg.enable_beacon_loss_timer,
            empty_flag=cfg.enable_empty_flag,
            avoidance=cfg.enable_future_avoidance,
            detect_p=CLUSTER_DETECTION_PROBABILITY,
        )
        f64, i64, b8 = np.float64, np.int64, np.bool_
        arrays = [
            ("period", engine._periods, i64),
            ("activation", engine._activation, i64),
            ("beacon_loss", engine._beacon_loss, f64),
            ("p_success", engine._p_success, f64),
            ("u_buf", uniforms._buf, f64),
            ("u_cursor", uniforms._cursor, i64),
            ("o_buf", offsets._buf, i64),
            ("o_cursor", offsets._cursor, i64),
            ("capture_tid", engine._capture_tid, i64),
            ("capture_p", engine._capture_p, f64),
            ("tx", self.tx, i64),
            ("pending", self.pending, i64),
            ("out", self.out, i64),
            ("sieve", self.sieve, np.uint8),
            ("clean_streak", engine._clean_streak, i64),
            ("converged_at", engine._converged_at, i64),
        ]
        for name in (
            "offset", "slot_counter", "nack_count", "beacons_received",
            "beacons_missed", "consecutive_losses", "transmissions",
            "migrations", "settles",
        ):
            arrays.append((name, getattr(tags, name), i64))
        for name in ("settled", "transmitted_last", "ever_settled", "late_arrival"):
            arrays.append((name, getattr(tags, name), b8))
        for name in ("pending_ack", "pending_reset", "last_empty", "appeared"):
            arrays.append((name, getattr(reader, name), b8))
        arrays += [
            ("committed", reader.committed, i64),
            ("evicting", reader.evicting, i64),
            ("ring_decoded", reader._ring_decoded, i64),
            ("ring_collision", reader._ring_collision, b8),
            ("ring_activity", reader._ring_activity, b8),
        ]
        for name, array, dtype in arrays:
            setattr(ctx, name, _address(array, dtype))
        self._ref = ctypes.addressof(ctx)
        self._point_log(engine.log)

    def _point_log(self, log) -> None:
        ctx = self.ctx
        self._log_generation = log.generation
        n_tx, decoded, collision, acked, empty = log.buffers()
        ctx.log_n_tx = _address(n_tx, np.int64)
        ctx.log_decoded = _address(decoded, np.int64)
        ctx.log_collision = _address(collision, np.bool_)
        ctx.log_acked = _address(acked, np.bool_)
        ctx.log_empty = _address(empty, np.bool_)

    def _resolve(self, engine, slot: int, row: int, code: int) -> None:
        """Finish a slot left open on ``FLEET_RESOLVE``."""
        while code == _FLEET_RESOLVE:
            # In row order, as the numpy step meets them.
            masks = self.pending[: self.out[2]].tolist()
            for mask in dict.fromkeys(masks):
                engine._resolve_mask(mask)
            code = self._finish(self._ref, slot, row)

    def run(self, engine, n_slots: int, streak: int) -> int:
        """Up to ``n_slots`` slots through ``rk_fleet_run``, re-entered
        after each refill and resolve; returns the slots run.  Each call
        fills only the log's free rows, so the log grows exactly as one
        row per slot would grow it."""
        log, out = engine.log, self.out
        # Telemetry counts every slot as it closes.
        per_call = n_slots if telemetry.active() is None else 1
        done = 0
        while done < n_slots:
            row, free = log.open_rows()
            if log.generation != self._log_generation:
                self._point_log(log)
            slot = engine.slots_elapsed
            want = min(free, n_slots - done, per_call)
            code = self._run(self._ref, slot, row, want, streak)
            ran = int(out[3])
            if code == _FLEET_RESOLVE:
                self._resolve(engine, slot + ran, row + ran, code)
                ran += 1
            if ran:
                log.close_rows(ran)
                engine._slot += ran
                done += ran
                engine._close_compiled_slot(row + ran - 1, int(out[0]), int(out[1]))
            if code == _FLEET_REFILL:
                engine._refill_banks()
            elif code == _FLEET_RESOLVE:
                # The slot finished here: its streak is tracked here too.
                if streak and engine._track_streak(row + ran - 1, streak):
                    break
            elif ran < want:
                break  # every network has converged
        return done


def load() -> Dict[str, Callable]:
    """Build/load the shared object and return the kernel table.

    Raises :class:`KernelBuildError` (or OSError from ``CDLL``) when the
    backend is unavailable; the caller falls back to numpy.
    """
    PROBE_FAILURES.clear()
    so_path, _cc = _build_library()
    lib = ctypes.CDLL(so_path)

    i64 = ctypes.c_longlong
    f64 = ctypes.c_double
    ptr = ctypes.c_void_p

    lib.rk_median.restype = f64
    lib.rk_median.argtypes = [ptr, i64, ptr]
    lib.rk_mad.restype = f64
    lib.rk_mad.argtypes = [ptr, i64, ptr]
    lib.rk_two_quantiles.restype = None
    lib.rk_two_quantiles.argtypes = [ptr, i64, f64, f64, ptr, ptr]
    lib.rk_project_center.restype = i64
    lib.rk_project_center.argtypes = [ptr, i64, ptr, ptr]
    lib.rk_project_finish.restype = i64
    lib.rk_project_finish.argtypes = [
        ptr, i64, f64, f64, f64, f64, f64, f64, ptr, ptr
    ]
    lib.rk_schmitt_states.restype = None
    lib.rk_schmitt_states.argtypes = [ptr, i64, f64, f64, ctypes.c_byte, ptr]
    lib.rk_schmitt_full.restype = f64
    lib.rk_schmitt_full.argtypes = [ptr, i64, f64, f64, ptr, ptr]
    lib.rk_hysteresis_slice.restype = None
    lib.rk_hysteresis_slice.argtypes = [ptr, i64, f64, f64, ptr]
    lib.rk_fm0_pairs.restype = None
    lib.rk_fm0_pairs.argtypes = [ptr, i64, ctypes.c_int, ptr, ptr]
    lib.rk_bit_grid.restype = i64
    lib.rk_bit_grid.argtypes = [i64, f64, f64, f64, ptr, ptr]
    lib.rk_hist2d.restype = None
    lib.rk_hist2d.argtypes = [
        ptr, ptr, i64, i64, f64, f64, f64, f64, ptr, ptr, ptr
    ]
    lib.rk_iq_hist.restype = None
    lib.rk_iq_hist.argtypes = [
        ptr, i64, i64, f64, f64, f64, f64, ptr, ptr, ptr, ptr, ptr, ptr
    ]
    lib.rk_cluster_peaks.restype = i64
    lib.rk_cluster_peaks.argtypes = [ptr, i64, f64, ptr, ptr, ptr, ptr]
    lib.rk_cabs.restype = None
    lib.rk_cabs.argtypes = [ptr, i64, ptr]
    lib.rk_iq_clusters.restype = i64
    lib.rk_iq_clusters.argtypes = [
        ptr, i64, i64, i64, f64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ptr,
    ]
    lib.rk_ramp.restype = None
    lib.rk_ramp.argtypes = [i64, f64, f64, f64, ptr]
    lib.rk_unit_phasors.restype = None
    lib.rk_unit_phasors.argtypes = [ptr, i64, f64, f64, ptr]
    lib.rk_fm0_offset_sum.restype = i64
    lib.rk_fm0_offset_sum.argtypes = [ptr, i64, ptr, ptr]
    lib.rk_fm0_derotate.restype = i64
    lib.rk_fm0_derotate.argtypes = [ptr, i64, f64, f64, f64, ptr, ptr, ptr]
    lib.rk_fm0_slice.restype = i64
    lib.rk_fm0_slice.argtypes = [
        ptr, i64, f64, f64, f64, f64, f64, f64, f64, f64, f64, ptr, ptr, ptr,
        ptr, ptr,
    ]
    lib.rk_fm0_bits.restype = i64
    lib.rk_fm0_bits.argtypes = [
        ptr, i64, f64, f64, f64, ptr, ptr, ptr, ptr, ptr, ptr, ptr
    ]
    lib.rk_envelope_rc.restype = None
    lib.rk_envelope_rc.argtypes = [ptr, i64, f64, ptr]
    lib.rk_receiver_noise.restype = i64
    lib.rk_receiver_noise.argtypes = [ptr, i64, f64, ptr, i64, ptr]
    lib.rk_mix_sosfilt_dec.restype = ctypes.c_int
    lib.rk_mix_sosfilt_dec.argtypes = [ptr, ptr, i64, ptr, i64, i64, ptr, ptr]
    lib.rk_fleet_ctx_size.restype = i64
    lib.rk_fleet_ctx_size.argtypes = []
    lib.rk_fleet_finish.restype = i64
    lib.rk_fleet_finish.argtypes = [ptr, i64, i64]
    lib.rk_fleet_run.restype = i64
    lib.rk_fleet_run.argtypes = [ptr, i64, i64, i64, i64]
    lib.rk_stream_seeds.restype = None
    lib.rk_stream_seeds.argtypes = [ptr, i64, ptr, ptr, i64, ptr, ptr]
    if lib.rk_fleet_ctx_size() != ctypes.sizeof(_FleetCtx):
        raise KernelBuildError("FleetCtx layout differs from its ctypes mirror")
    # The PCG64 entries are built only where the compiler has __int128.
    has_pcg64 = hasattr(lib, "rk_pcg64_refill")
    if has_pcg64:
        lib.rk_pcg64_seed.restype = None
        lib.rk_pcg64_seed.argtypes = [ptr, i64, ptr]
        lib.rk_pcg64_refill.restype = None
        lib.rk_pcg64_refill.argtypes = [ptr, i64, ptr, i64, ptr, i64, ptr]

    c_median = lib.rk_median
    c_mad = lib.rk_mad
    c_two_q = lib.rk_two_quantiles
    c_center = lib.rk_project_center
    c_finish = lib.rk_project_finish
    c_states = lib.rk_schmitt_states
    c_schmitt = lib.rk_schmitt_full
    c_hyst = lib.rk_hysteresis_slice
    c_fm0 = lib.rk_fm0_pairs
    c_grid = lib.rk_bit_grid
    c_hist = lib.rk_hist2d
    c_iq_hist = lib.rk_iq_hist
    c_peaks = lib.rk_cluster_peaks
    c_iq_clusters = lib.rk_iq_clusters
    c_offset_sum = lib.rk_fm0_offset_sum
    c_derotate = lib.rk_fm0_derotate
    c_slice = lib.rk_fm0_slice
    c_bits = lib.rk_fm0_bits
    c_env = lib.rk_envelope_rc
    c_noise = lib.rk_receiver_noise
    c_mix = lib.rk_mix_sosfilt_dec
    c_fleet_finish = lib.rk_fleet_finish
    c_fleet_run = lib.rk_fleet_run

    def median(x: np.ndarray) -> float:
        a = np.asarray(x, dtype=np.float64)
        n = a.size
        if n == 0:
            return float(np.median(a))
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        return c_median(lane.pfa, n, lane.pfb)

    def mad_spread(x: np.ndarray) -> float:
        a = np.asarray(x, dtype=np.float64)
        n = a.size
        if n == 0:
            return 1.4826 * float(np.median(np.abs(a - np.median(a))))
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        return c_mad(lane.pfa, n, lane.pfb)

    def two_quantiles(
        x: np.ndarray, q0: float, q1: float
    ) -> Tuple[float, float]:
        a = np.asarray(x, dtype=np.float64)
        n = a.size
        if n == 0:
            lo, hi = np.quantile(a, [q0, q1])
            return float(lo), float(hi)
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        c_two_q(lane.pfa, n, q0, q1, lane.pfb, lane.pout16)
        out = lane.out16
        return out[0], out[1]

    def project_center(
        iq: np.ndarray,
    ) -> Tuple[float, float, float, float]:
        a = np.asarray(iq, dtype=np.complex128)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.ca[:n], a)
        c_center(lane.pca, n, lane.pfb, lane.pout16)
        out = lane.out16
        return out[0], out[1], out[2], out[3]

    def project_finish(
        iq: np.ndarray,
        c_re: float,
        c_im: float,
        rot_re: float,
        rot_im: float,
        q0: float,
        q1: float,
    ) -> np.ndarray:
        a = np.asarray(iq, dtype=np.complex128)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.ca[:n], a)
        c_finish(
            lane.pca, n, c_re, c_im, rot_re, rot_im, q0, q1,
            lane.pfb, lane.pfa,
        )
        return lane.fa[:n].copy()

    def project(iq: np.ndarray) -> np.ndarray:
        # One lane copy serves both halves; the scalar angle/phasor
        # step between them stays numpy (see kernels.project).
        a = np.asarray(iq, dtype=np.complex128)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.ca[:n], a)
        c_center(lane.pca, n, lane.pfb, lane.pout16)
        out = lane.out16
        rot_re, rot_im = _axis_rotation(out[2], out[3])
        c_finish(
            lane.pca, n, out[0], out[1], rot_re, rot_im,
            10.0 / 100.0, 90.0 / 100.0, lane.pfb, lane.pfa,
        )
        return lane.fa[:n].copy()

    turn = 2j * math.pi  # the bit-phase phasor's Python complex factor

    def fm0_chain(
        iq: np.ndarray,
        baseband_rate_hz: float,
        raw_rate_bps: float,
        hysteresis: float,
        drift: float,
    ):
        # Four C calls around the three scalar np.angle steps, which
        # stay numpy (see kernels.fm0_chain); iq is a non-empty
        # complex128 array.  Scalars come back through out16 and are
        # read as Python floats: the arithmetic on them is then Python's,
        # as in the reference.
        n = iq.size
        fs = baseband_rate_hz
        spb = fs / raw_rate_bps
        lane = _lane(max(n, int(n / spb) + 2))
        np.copyto(lane.ca[:n], iq)
        out = lane.out16
        offset = 0.0
        if n >= 2:
            c_offset_sum(lane.pca, n, lane.pcb, lane.pout16)
            # frequency_offset_estimate's scalar tail
            angle = np.angle(complex(*out[:2].tolist()))
            offset = float(angle * fs / (2 * math.pi))
        c = -2j * math.pi * offset
        c_derotate(lane.pca, n, c.real, c.imag, fs, lane.pcc, lane.pfb,
                   lane.pout16)
        baseband = lane.cc[:n].copy()
        c_re, c_im, m_re, m_im = out[:4].tolist()
        rot_re, rot_im = _axis_rotation(m_re, m_im)
        if not c_slice(
            lane.pcc, n, c_re, c_im, rot_re, rot_im, hysteresis, drift, spb,
            turn.real, turn.imag, lane.pfb, lane.pcb, lane.pfa, lane.pi8,
            lane.pout16,
        ):
            return baseband, offset, np.empty(0, dtype=np.uint8), ()
        grid_offset = _bit_grid_offset(complex(*out[:2].tolist()), spb)
        count = c_bits(
            lane.pfa, n, spb, grid_offset, 0.1 * spb, lane.pia, lane.pib,
            lane.pu8a, lane.pu8b, lane.pu8c, lane.pi8, lane.pout16,
        )
        violations = out[:2].tolist()
        alignments = []
        for start, bits in ((0, lane.u8b), (1, lane.u8c)):
            pairs = (count - start) // 2
            if pairs > 0:
                alignments.append(
                    (start, bits[:pairs].copy(), int(violations[start]))
                )
        return baseband, offset, lane.u8a[:count].copy(), tuple(alignments)

    def schmitt_states(
        projected: np.ndarray, hi: float, lo: float, initial: int
    ) -> np.ndarray:
        a = np.asarray(projected, dtype=np.float64)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        c_states(lane.pfa, n, hi, lo, int(initial), lane.pi8)
        return lane.i8[:n].copy()

    def schmitt_full(
        projected: np.ndarray, hysteresis: float, drift: float
    ) -> np.ndarray:
        a = np.asarray(projected, dtype=np.float64)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        c_schmitt(lane.pfa, n, hysteresis, drift, lane.pfb, lane.pi8)
        return lane.i8[:n].copy()

    def hysteresis_slice(
        env: np.ndarray, hi: float, lo: float
    ) -> np.ndarray:
        a = np.asarray(env, dtype=np.float64)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        c_hyst(lane.pfa, n, hi, lo, lane.pi8)
        return lane.i8[:n].copy()

    def fm0_pairs(
        raw, initial_level: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(raw, dtype=np.uint8)
        n = arr.size
        n_pairs = n // 2
        lane = _lane(n)
        np.copyto(lane.u8a[:n], arr)
        c_fm0(lane.pu8a, n_pairs, int(initial_level), lane.pu8b, lane.pu8c)
        return lane.u8b[:n_pairs].copy(), lane.u8c[:n_pairs].copy()

    def bit_grid(
        n_samples: int,
        samples_per_bit: float,
        grid_offset: float,
        margin: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if samples_per_bit <= 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        cap = int(n_samples / samples_per_bit) + 2
        lane = _lane(max(cap, 1))
        count = c_grid(
            int(n_samples), samples_per_bit, grid_offset, margin,
            lane.pia, lane.pib,
        )
        return lane.ia[:count].copy(), lane.ib[:count].copy()

    def hist2d_counts(
        x: np.ndarray,
        y: np.ndarray,
        bins: int,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        n = xa.size
        lane = _lane(n)
        np.copyto(lane.fa[:n], xa)
        np.copyto(lane.fc[:n], ya)
        c_hist(
            lane.pfa, lane.pfc, n, int(bins),
            float(x_range[0]), float(x_range[1]),
            float(y_range[0]), float(y_range[1]),
            lane.phist, lane.pxe, lane.pye,
        )
        hist = lane.hist[: bins * bins].copy().reshape(bins, bins)
        return hist, lane.xe[: bins + 1].copy(), lane.ye[: bins + 1].copy()

    def cluster_histogram(
        iq: np.ndarray, bins: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = np.asarray(iq, dtype=np.complex128)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.ca[:n], a)
        c_iq_hist(
            lane.pca, n, int(bins), 1.0 / 100.0, 99.0 / 100.0,
            0.1, 1e-12,
            lane.pfa, lane.pfc, lane.pfb, lane.phist, lane.pxe, lane.pye,
        )
        hist = lane.hist[: bins * bins].copy().reshape(bins, bins)
        return hist, lane.xe[: bins + 1].copy(), lane.ye[: bins + 1].copy()

    def cluster_peaks(
        hist: np.ndarray, peak_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray, int, float]:
        bins = hist.shape[0]
        h = np.ascontiguousarray(hist, dtype=np.float64)
        nb = bins * bins
        lane = _lane(nb)
        np.copyto(lane.hist[:nb], h.reshape(-1))
        n_peaks = c_peaks(
            lane.phist, int(bins), float(peak_threshold),
            lane.pfa, lane.pgrid, lane.pl32, lane.pout16,
        )
        smoothed = lane.fa[:nb].copy().reshape(bins, bins)
        labels = lane.l32[:nb].copy().reshape(bins, bins)
        return smoothed, labels, int(n_peaks), float(lane.out16[0])

    def iq_clusters(
        iq: np.ndarray, bins: int, peak_threshold: float, guard: bool
    ) -> Tuple[int, float, float]:
        a = np.asarray(iq, dtype=np.complex128)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.ca[:n], a)
        count = c_iq_clusters(
            lane.pca, n, guard, bins, peak_threshold,
            lane.pfa, lane.pfb, lane.pfc, lane.pcb,
            lane.phist, lane.pxe, lane.pye, lane.pgrid, lane.pl32,
            lane.pout16,
        )
        stats = lane.out16
        return count, float(stats[0]), float(stats[1])

    def envelope_rc(waveform: np.ndarray, alpha: float) -> np.ndarray:
        a = np.asarray(waveform, dtype=np.float64)
        n = a.size
        lane = _lane(n)
        np.copyto(lane.fa[:n], a)
        c_env(lane.pfa, n, alpha, lane.pfc)
        return lane.fc[:n].copy()

    def receiver_noise(
        draws: np.ndarray, scale: float, sos: np.ndarray
    ) -> np.ndarray:
        d = np.asarray(draws, dtype=np.float64)
        s = np.ascontiguousarray(sos, dtype=np.float64)
        if s.shape[0] > MAX_SOS_SECTIONS:
            raise ValueError("too many SOS sections for the C kernel")
        n = d.size // 2
        lane = _lane(n)
        np.copyto(lane.fb[: 2 * n], d)
        np.copyto(lane.fa[: s.size], s.reshape(-1))
        c_noise(lane.pfb, n, scale, lane.pfa, s.shape[0], lane.pcc)
        return lane.cc[:n].copy()

    def mix_sosfilt_decimate(
        x: np.ndarray, lo: np.ndarray, sos: np.ndarray, decimation: int
    ) -> np.ndarray:
        xv = np.asarray(x, dtype=np.float64)
        lov = np.asarray(lo, dtype=np.complex128)
        s = np.ascontiguousarray(sos, dtype=np.float64)
        if s.shape[0] > MAX_SOS_SECTIONS:
            raise ValueError("too many SOS sections for the C kernel")
        n = xv.size
        dec = int(decimation)
        m = -(-n // dec) if n else 0
        lane = _lane(n)
        np.copyto(lane.fc[:n], xv)
        np.copyto(lane.ca[:n], lov)
        np.copyto(lane.fa[: s.size], s.reshape(-1))
        c_mix(
            lane.pfc, lane.pca, n, lane.pfa, s.shape[0], dec,
            lane.pcb, lane.pcc,
        )
        return lane.cc[:m].copy()

    def fleet_run(engine, n_slots: int, streak: int) -> int:
        stepper = engine._compiled_stepper
        if stepper is None or stepper._run is not c_fleet_run:
            stepper = _FleetStepper(engine, c_fleet_finish, c_fleet_run)
            engine._compiled_stepper = stepper
        return stepper.run(engine, n_slots, streak)

    def pcg64_seed(seeds: np.ndarray) -> np.ndarray:
        states = np.empty((seeds.size, 6), dtype=np.uint64)
        lib.rk_pcg64_seed(seeds.ctypes.data, seeds.size, states.ctypes.data)
        return states

    def pcg64_refill(
        states: np.ndarray,
        buf: np.ndarray,
        cursor: np.ndarray,
        needed: int,
        bounds: Optional[np.ndarray],
    ) -> None:
        lib.rk_pcg64_refill(
            _address(states, np.uint64),
            cursor.size,
            _address(buf, np.float64 if bounds is None else np.int64),
            buf.shape[1],
            _address(cursor, np.int64),
            needed,
            None if bounds is None else _address(bounds, np.int64),
        )

    def stream_seeds(
        seeds: List[int], names: List[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Every seed lies in [0, 2**64) (see kernels.stream_seeds).
        encoded = [name.encode() for name in names]
        starts = np.zeros(len(encoded) + 1, dtype=np.int64)
        starts[1:] = np.cumsum([len(e) for e in encoded])
        master = np.array(seeds, dtype=np.uint64)
        slots = np.empty(master.size, dtype=np.uint64)
        offsets = np.empty((master.size, len(encoded)), dtype=np.uint64)
        lib.rk_stream_seeds(
            master.ctypes.data, master.size, b"".join(encoded),
            starts.ctypes.data, len(encoded), slots.ctypes.data,
            offsets.ctypes.data,
        )
        return slots, offsets

    table = {
        "median": median,
        "mad_spread": mad_spread,
        "two_quantiles": two_quantiles,
        "project": project,
        "project_center": project_center,
        "project_finish": project_finish,
        "cluster_histogram": cluster_histogram,
        "cluster_peaks": cluster_peaks,
        "schmitt_states": schmitt_states,
        "schmitt_full": schmitt_full,
        "hysteresis_slice": hysteresis_slice,
        "fm0_pairs": fm0_pairs,
        "bit_grid": bit_grid,
        "hist2d_counts": hist2d_counts,
        "envelope_rc": envelope_rc,
        "receiver_noise": receiver_noise,
        "mix_sosfilt_decimate": mix_sosfilt_decimate,
        "fleet_run": fleet_run,
    }
    # numpy picks its complex-abs loop by CPU; the fused detector's
    # replica matches the FMA loops only, so it is registered where it
    # reproduces np.abs on the probe, and the numpy reference detector
    # runs elsewhere.
    if _abs_matches_numpy(lib):
        table["iq_clusters"] = iq_clusters
    else:
        PROBE_FAILURES["iq_clusters"] = (
            "np.abs on this host differs from the C replica; "
            "the detector runs its numpy reference"
        )
    # numpy's complex exp may not be the C library's cexp the chain
    # calls, so the chain is registered where its ramps and phasors
    # reproduce np.exp on the probe, like the detector above.
    if _exp_matches_numpy(lib):
        table["fm0_chain"] = fm0_chain
    else:
        PROBE_FAILURES["fm0_chain"] = (
            "np.exp on this host differs from the C ramp and phasors; "
            "the FM0 chain runs its numpy reference"
        )
    # numpy does not promise the same Generator streams across
    # versions, so the PCG64 replicas are registered where they draw
    # what this numpy draws.
    if not has_pcg64:
        reason = "the C compiler has no __int128"
    elif not _pcg64_matches_numpy(pcg64_seed, pcg64_refill):
        reason = "this numpy's PCG64 streams differ from the C replica"
    else:
        reason = None
        table["pcg64_seed"] = pcg64_seed
        table["pcg64_refill"] = pcg64_refill
    if reason is not None:
        for name in ("pcg64_seed", "pcg64_refill"):
            PROBE_FAILURES[name] = f"{reason}; the fleet banks draw through numpy"
    # The stream seeds replay hashlib's SHA-256 in integer arithmetic;
    # the probe guards the replica against a miscompiled host.
    if _stream_seeds_match_hashlib(stream_seeds):
        table["stream_seeds"] = stream_seeds
    else:
        PROBE_FAILURES["stream_seeds"] = (
            "the C SHA-256 replica differs from hashlib; the fleet's "
            "stream seeds are derived through RandomStreams"
        )
    return table
