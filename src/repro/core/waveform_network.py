"""Waveform-fidelity network execution.

The third and highest fidelity level.  The slot-level simulator draws
slot outcomes from calibrated probabilities; the real-time variant adds
physical timing; *this* variant puts the actual signal processing in
the loop: every slot's uplink is synthesised as a sampled capture
(carrier leak + per-tag backscatter phasors + receiver noise) and
arbitrated by the real reader chain — FM0 decoding through
:class:`~repro.phy.reader_dsp.ReaderReceiveChain` and collision
detection through :func:`~repro.phy.iq.detect_collision_iq`.

It is orders of magnitude slower per slot than the slot-level
simulator, so it runs tens-to-hundreds of slots, not tens of
thousands; its job is to certify that the fast simulator's outcome
model (decode success, capture effect, cluster detection) matches what
the DSP actually does on this channel (see
``tests/core/test_waveform_network.py`` and
``benchmarks/bench_waveform_loop.py``).

Per-slot cost is kept down four ways: the capture is downconverted
*once* and the rate-matched baseband shared between the FM0 decoder
and the IQ-cluster detector; link-budget quantities (backscatter
amplitude, propagation delay) are cached per tag and auto-invalidated
when the medium reports a mutation (its channel generation counter);
receiver noise is drawn directly at the decimated baseband
(:func:`repro.phy.modem.receiver_noise_baseband`), skipping ~10^5
full-rate Gaussians + a full-rate filter run per slot; and, on the
template fast path (:func:`repro.phy.cache.fast_path_enabled`,
``REPRO_PHY_FAST=0`` to disable), each tag's frame is served from a
cached filtered-baseband quadrature template, so a steady-state slot
assembles ~10^3-sample basebands with a handful of scalar-vector ops
instead of synthesising and filtering a fresh ~10^5-sample capture.
The reference path (fast path off) keeps the full passband synthesis
as the executable spec; both paths share one noise draw and agree to
~1 ulp on the baseband, so decode outcomes are byte-identical across
the differential suite (``tests/phy/test_fast_path_differential.py``).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import perf, telemetry
from repro.channel.medium import AcousticMedium, SlotObservation
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.fig12_uplink import WAVEFORM_AMPLITUDE_CALIBRATION
from repro.faults.injectors import flip_bits
from repro.phy import cache as phy_cache
from repro.phy import kernels
from repro.phy.iq import detect_collision_iq
from repro.phy.modem import BackscatterUplink, receiver_noise_baseband
from repro.phy.modulation import LinkConfig, get_modulation
from repro.phy.packets import UplinkPacket
from repro.phy.reader_dsp import ReaderReceiveChain

#: Lead-in / tail / padding geometry of every slot capture (seconds of
#: absorptive idle before the frame, after it, and extra samples at the
#: end — the filter settles in the lead-in).
SLOT_LEAD_IN_S = 0.03
SLOT_TAIL_S = 0.012
SLOT_EXTRA_SAMPLES = 2000


def stable_name_hash(name: str) -> int:
    """Deterministic 32-bit hash of a tag name.

    ``hash(str)`` varies with ``PYTHONHASHSEED`` across interpreter
    runs, which made default waveform payloads — and therefore whole
    captures — irreproducible run-to-run.  CRC-32 is stable
    everywhere.
    """
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class WaveformSlotLog:
    """DSP-level detail for one simulated slot."""

    slot: int
    transmitters: List[str]
    decoded_tids: List[int]
    n_clusters: int


class WaveformNetwork(SlottedNetwork):
    """The slot-allocation MAC with the real DSP arbitrating slots."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        medium: Optional[AcousticMedium] = None,
        config: Optional[NetworkConfig] = None,
        payloads: Optional[Mapping[str, int]] = None,
        faults=None,
        fault_recorder=None,
        uplink_plan: Optional[Mapping[str, LinkConfig]] = None,
        rate_controller=None,
    ) -> None:
        super().__init__(
            tag_periods,
            medium,
            config,
            faults=faults,
            fault_recorder=fault_recorder,
            uplink_plan=uplink_plan,
            rate_controller=rate_controller,
        )
        self._uplink = BackscatterUplink(pzt=self.medium.pzt)
        self._chain = ReaderReceiveChain()
        self._phase_rng = self._streams.stream("phases")
        self._tid_to_name = {mac.tid: name for name, mac in self.tags.items()}
        self._payloads = dict(payloads or {})
        self._link_cache: Dict[str, Tuple[float, float]] = {}
        self._link_generation = self.medium.channel_generation
        self._capture_scratch = np.empty(0)
        self._fixed_config = LinkConfig(
            "fm0_ook", float(self.config.ul_raw_rate_bps)
        )
        self.slot_logs: List[WaveformSlotLog] = []

    # -- link-budget cache -------------------------------------------------

    def _link_budget(self, name: str) -> Tuple[float, float]:
        """(calibrated backscatter amplitude, propagation delay) for a
        tag, computed on first use and cached — the medium graph walk
        dominated per-slot synthesis cost before caching.

        The cache tracks the medium's channel generation counter:
        any mutation reported through
        :meth:`~repro.channel.medium.AcousticMedium.invalidate_channel_cache`
        drops the cached budgets automatically, so a strain sweep can
        never read stale amplitudes.
        """
        generation = self.medium.channel_generation
        if generation != self._link_generation:
            self._link_cache.clear()
            self._link_generation = generation
        cached = self._link_cache.get(name)
        if cached is None:
            cached = (
                WAVEFORM_AMPLITUDE_CALIBRATION
                * self.medium.backscatter_amplitude_v(name),
                self.medium.propagation_delay_s(name),
            )
            self._link_cache[name] = cached
        return cached

    def _payload_for(self, name: str) -> int:
        """Default uplink payload for a tag: a stable hash of its name.

        Stable per tag (not per slot): the MAC consumes only the
        decoded tid, so rotating payload contents would add nothing to
        the certification while defeating every frame-level reuse —
        FM0 memoisation and the tag-component template cache both key
        on the encoded bits.  Callers that want per-slot payload
        variety pass ``payloads=`` or override this method.
        """
        return self._payloads.get(name, stable_name_hash(name) % 4096)

    def _assemble_baseband_fast(
        self,
        plans: Sequence[Tuple[Sequence[int], float, float, float]],
        rate: float,
        cutoff_hz: float,
        decimation: int,
        modulation: str = "fm0_ook",
    ) -> np.ndarray:
        """Assemble the slot's decimated baseband from cached templates.

        Mixing, filtering, and decimation are linear, so the baseband
        of ``leak + sum_i a_i * profile_i * cos(wt + p_i)`` is the sum
        of the cached leak baseband and each tag's filtered quadrature
        template rotated by its carrier phase (angle-sum identity) and
        scaled by its amplitude — a few scalar-vector multiplies over
        ~10^3 samples, replacing the ~10^5-sample synthesis + filter
        run of the reference path.  Equal to the reference baseband to
        ~1 ulp (float reassociation across the linear decomposition).

        The template cache keys on the modulation name, so adaptive
        slots mixing chirp, FSK, and FM0 frames share the machinery:
        line coding and the unit envelope profile come from the
        registered :class:`~repro.phy.modulation.Modulation` (for
        ``fm0_ook`` exactly the legacy FM0 calls, so default-path
        basebands are bit-identical).
        """
        uplink = self._uplink
        fs = uplink.sample_rate_hz
        mod = get_modulation(modulation)
        low_ratio = (
            uplink.pzt.absorptive_coefficient / uplink.pzt.reflective_coefficient
        )
        n_lead = int(round(SLOT_LEAD_IN_S * fs))
        n_tail = int(round(SLOT_TAIL_S * fs))
        entries = []
        n_capture = 0
        for bits, amplitude_v, delay_s, phase in plans:
            raw = mod.line_encode(bits)
            template = phy_cache.tag_template(
                raw, rate, fs, uplink.carrier_hz, low_ratio, n_lead, n_tail,
                modulation,
            )
            n_delay = int(round(delay_s * fs))
            n_capture = max(n_capture, n_delay + template.n_body)
            entries.append((template, n_delay, amplitude_v, phase))
        n_capture += SLOT_EXTRA_SAMPLES
        m = -(-n_capture // decimation)
        iq = phy_cache.leak_baseband(
            n_capture,
            uplink.leak_amplitude_v,
            fs,
            uplink.carrier_hz,
            cutoff_hz,
            decimation,
        )[:m].copy()
        if entries:
            # GEMM-shaped combine: stack every transmitter's quadrature
            # templates as rows and collapse them with one BLAS gemv
            # (coefs @ stack) instead of 2N sequential axpy passes.
            coefs = np.empty(2 * len(entries))
            pairs = []
            for idx, (template, n_delay, amplitude_v, phase) in enumerate(
                entries
            ):
                bc, bs = template.baseband(
                    n_delay, n_capture, cutoff_hz, decimation
                )
                pairs.append(bc)
                pairs.append(bs)
                coefs[2 * idx] = amplitude_v * math.cos(phase)
                coefs[2 * idx + 1] = -(amplitude_v * math.sin(phase))
            kernels.combine_templates(iq, pairs, coefs)
        return iq

    def _plan_transmission(self, name: str):
        """Frame bits, faulted link budget, and carrier phase for one
        transmitter — the per-tag half of slot synthesis.

        Draws exactly one phase from the shared stream per call, in
        caller order, so grouping tags by modulation downstream cannot
        perturb replayability.
        """
        mac = self.tags[name]
        packet = UplinkPacket(tid=mac.tid, payload=self._payload_for(name))
        amplitude_v, delay_s = self._link_budget(name)
        bits = packet.to_bits()
        ctl = self.faults
        if ctl is not None:
            # Faults reach the DSP as physics: SNR penalties
            # shrink the synthesised backscatter, bit flips
            # corrupt the frame before line coding — the real
            # receive chain then fails (or survives) on its own.
            penalty_db = ctl.snr_penalty_for(name)
            if penalty_db:
                amplitude_v *= 10.0 ** (-penalty_db / 20.0)
            flips = ctl.uplink_bit_flips(name, len(bits))
            if flips:
                bits = flip_bits(bits, flips)
        phase = float(self._phase_rng.uniform(0, 2 * np.pi))
        return bits, amplitude_v, delay_s, phase

    def _observe(self, transmitters: Sequence[str]) -> SlotObservation:
        """Synthesise the slot's capture and run the real receive path.

        Every transmitter rides the :class:`~repro.phy.modulation.LinkConfig`
        of the uplink plan, or the fixed-rate FM0 link when the plan is
        absent or silent about it, so a fixed-rate slot is simply the
        one-group case.  Tags on different configs occupy disjoint
        envelope bands (chirp sweep, tone pair, FM0 main lobe), so
        cross-modulation interference is treated as orthogonal: each
        config group gets its own synthesis, its own receiver-noise
        draw, and its own decode + cluster pass, and collision
        arbitration runs within groups only.  Phases are drawn in
        transmitter order *before* grouping and groups are processed in
        sorted config order, keeping the run replayable.  The slot
        observation reports the first decoded transmitter (sorted-group
        order) and a collision if any group collided.

        Both synthesis paths (template fast path and reference passband
        synthesis) draw the per-tag carrier phases and the shared
        baseband noise from the same stream in the same order, so a run
        is replayable across ``REPRO_PHY_FAST`` settings — the
        differential suite pins the decode outcomes byte-identical.
        """
        transmitters = list(transmitters)
        if not transmitters:
            self.slot_logs.append(
                WaveformSlotLog(self.reader.slot_index, [], [], 0)
            )
            return SlotObservation((), None, False)

        if self.rate_controller is not None:
            penalties = (
                self._faults.penalties_for(transmitters)
                if self._faults is not None
                else None
            )
            self._advance_rate_control(transmitters, penalties)

        uplink = self._uplink
        chain = self._chain
        fs = uplink.sample_rate_hz
        fast = phy_cache.fast_path_enabled()
        plan = self._uplink_plan
        fixed = self._fixed_config

        groups: Dict[LinkConfig, list] = {}
        for name in transmitters:
            config = fixed if plan is None else plan.get(name, fixed)
            groups.setdefault(config, []).append(self._plan_transmission(name))

        decoded_tids: List[int] = []
        n_clusters = 0
        collision = False
        for config in sorted(groups):
            plans = groups[config]
            mod = get_modulation(config.modulation)
            rate = config.bitrate_bps
            cutoff_hz = mod.cutoff_hz(rate)
            decimation = mod.decimation(fs, rate)
            baseband_rate = fs / decimation
            with perf.timed("waveform.synthesize"):
                if fast:
                    iq = self._assemble_baseband_fast(
                        plans, rate, cutoff_hz, decimation, config.modulation
                    )
                else:
                    components = [
                        uplink.tag_component(
                            bits,
                            rate,
                            amplitude_v,
                            phase_rad=phase,
                            delay_s=delay_s,
                            lead_in_s=SLOT_LEAD_IN_S,
                            tail_s=SLOT_TAIL_S,
                            modulation=config.modulation,
                        )
                        for bits, amplitude_v, delay_s, phase in plans
                    ]
                    n_capture = (
                        max(len(c) for c in components) + SLOT_EXTRA_SAMPLES
                    )
                    if len(self._capture_scratch) < n_capture:
                        self._capture_scratch = np.empty(
                            max(n_capture, 2 * len(self._capture_scratch))
                        )
                    capture = uplink.capture_clean(
                        components,
                        extra_samples=SLOT_EXTRA_SAMPLES,
                        out=self._capture_scratch,
                    )
                    iq, _ = chain.raw_baseband_config(capture, config)
                # Receiver noise enters at the decimated baseband — one
                # draw shared verbatim by both synthesis paths.
                iq += receiver_noise_baseband(
                    len(iq),
                    self.medium.noise.psd_v2_per_hz,
                    fs,
                    cutoff_hz,
                    decimation,
                    self._phase_rng,
                )
            # One downconversion feeds both the decoder and the cluster
            # detector.
            with perf.timed("waveform.demodulate"):
                outcome = chain.decode_config(iq, baseband_rate, config)
                clusters = detect_collision_iq(iq)
            decoded_tids.extend(p.tid for p in outcome.packets)
            n_clusters += clusters.n_clusters
            collision = collision or clusters.collision

        perf.count("waveform.slots")
        tel = telemetry.active()
        if tel is not None:
            tel.inc("waveform.slots")
            if decoded_tids:
                tel.inc("waveform.decodes")
            if collision:
                tel.inc("waveform.collisions")

        self.slot_logs.append(
            WaveformSlotLog(
                self.reader.slot_index,
                transmitters,
                decoded_tids,
                n_clusters,
            )
        )

        # A multi-transmitter slot can decode without a cluster-detected
        # collision (capture + merged constellation) — exactly the case
        # the paper's anti-capture rule targets; report what the
        # receiver saw.
        decoded_name: Optional[str] = None
        for tid in decoded_tids:
            name = self._tid_to_name.get(tid)
            if name in transmitters:
                decoded_name = name
                break
        return SlotObservation(tuple(transmitters), decoded_name, collision)
