"""The BiW as a shared acoustic medium.

:class:`AcousticMedium` is the channel abstraction the rest of the stack
talks to.  It combines the structural graph, the propagation model, the
per-mount PZTs, and the noise models, and answers the questions the
protocol layers ask:

* How strong is the carrier at tag X?  (energy harvesting, DL decoding)
* What uplink SNR does tag X achieve at bit rate R?  (Fig. 12a)
* What is the probability a UL/DL packet survives?  (Figs. 12b/13a)
* Given the set of tags transmitting in a slot, what does the reader
  observe?  (capture effect + IQ-cluster collision detection, Sec. 5.3)

Two fidelity levels share these numbers: the waveform-level PHY
experiments synthesise signals with the same amplitudes, and the
slot-level network simulator uses the derived outcome probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channel import acoustics
from repro.channel.biw import BiWModel, onvo_l60
from repro.channel.noise import (
    REVERB_COMPRESSION,
    ReceiverNoise,
    ReverberationField,
)
from repro.channel.propagation import PropagationModel
from repro.channel.pzt import PZTTransducer

#: Backscatter amplitude at the reader RX from the nearest tag (tag8),
#: the calibration anchor for the Fig. 12(a) SNR curves (volts).
REFERENCE_BACKSCATTER_V = 0.010

#: FM0 occupies roughly one bit-rate of bandwidth around the carrier.
FM0_BANDWIDTH_PER_BPS = 1.0

#: Minimum amplitude gap (dB) for the capture effect to let the reader
#: decode the strongest of several colliding transmissions.
CAPTURE_THRESHOLD_DB = 5.0

#: Probability the IQ-cluster detector flags a genuine collision
#: (clusters can merge when two tags land at similar amplitude/phase).
CLUSTER_DETECTION_PROBABILITY = 0.98

#: Residual burst-loss floor for a clean single transmission; models the
#: occasional decode glitch that keeps Fig. 12(b) loss nonzero (<0.5%).
BASE_BURST_LOSS = 0.001

#: Conversion penalty (dB) a tag-to-tag link pays on top of the acoustic
#: path loss: the receiving tag demodulates another tag's *backscatter*
#: — a weak sideband, not the reader's strong carrier — with a passive
#: envelope detector and no matched receive chain.  This is the
#: backscatter-of-backscatter regime of multi-hop tag-to-tag networks.
T2T_CONVERSION_LOSS_DB = 6.0


@dataclass(frozen=True)
class ForeignCarrier:
    """A non-associated reader's continuous carrier as this medium's
    receiver hears it.

    ``source`` names the foreign reader's mount; ``frequency_hz`` is the
    carrier it actually emits (the planner's assignment, or a drifted
    value under fault injection); ``response`` derates its amplitude for
    plate modes away from the primary resonance.
    """

    source: str
    frequency_hz: float
    response: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if not 0 < self.response <= 1:
            raise ValueError("carrier response must be in (0, 1]")


@dataclass(frozen=True)
class SlotObservation:
    """What the reader's receive chain reports for one uplink slot."""

    transmitters: Sequence[str]
    decoded_tag: Optional[str]
    collision_detected: bool

    @property
    def n_transmitters(self) -> int:
        return len(self.transmitters)

    @property
    def is_empty(self) -> bool:
        return not self.transmitters


class AcousticMedium:
    """Shared vibration channel over a BiW with mounted transducers."""

    def __init__(
        self,
        biw: Optional[BiWModel] = None,
        propagation: Optional[PropagationModel] = None,
        tag_pzt: Optional[PZTTransducer] = None,
        receiver_noise: Optional[ReceiverNoise] = None,
        reverberation: Optional[ReverberationField] = None,
        reference_tag: str = "tag8",
        source: str = "reader",
        carrier_frequency_hz: float = acoustics.CARRIER_FREQUENCY_HZ,
    ) -> None:
        self._biw = biw if biw is not None else onvo_l60()
        self._propagation = (
            propagation if propagation is not None else PropagationModel(self._biw)
        )
        self._pzt = tag_pzt if tag_pzt is not None else PZTTransducer()
        self._noise = receiver_noise if receiver_noise is not None else ReceiverNoise()
        self._reverb = (
            reverberation if reverberation is not None else ReverberationField()
        )
        self._source = source
        if source not in self._biw.mounts:
            raise KeyError(f"source mount {source!r} does not exist")
        self._reference_tag = reference_tag
        if reference_tag not in self._biw.mounts:
            raise KeyError(f"reference tag {reference_tag!r} is not mounted")
        self._reference_rt_loss = self._propagation.roundtrip_loss_db(
            reference_tag, source
        )
        if carrier_frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        self._carrier_frequency_hz = carrier_frequency_hz
        self._carrier_response = 1.0
        self._foreign_carriers: Tuple[ForeignCarrier, ...] = ()
        self._interference_power: Dict[float, float] = {}
        self._channel_generation = 0

    @property
    def channel_generation(self) -> int:
        """Mutation counter, bumped by :meth:`invalidate_channel_cache`.

        Downstream caches of derived link quantities (e.g. the
        waveform network's per-tag link budgets) compare this counter
        instead of requiring an explicit invalidation call, so a
        mutation reported to the medium propagates everywhere.
        """
        return self._channel_generation

    def invalidate_channel_cache(self) -> None:
        """Recompute derived channel state after a structural change.

        Fault injection and strain sweeps can mutate the underlying BiW
        (junction-loss steps, re-tensioned joints); this drops the
        propagation model's memoised paths, re-anchors the reference
        round-trip loss, and bumps :attr:`channel_generation` so every
        downstream link cache self-invalidates.
        """
        self._propagation.invalidate_cache()
        self._reference_rt_loss = self._propagation.roundtrip_loss_db(
            self._reference_tag, self._source
        )
        self._interference_power.clear()
        self._channel_generation += 1

    # -- carrier plan (multi-reader frequency division) ----------------------

    @property
    def carrier_frequency_hz(self) -> float:
        """The carrier this medium's source currently emits."""
        return self._carrier_frequency_hz

    @property
    def carrier_response(self) -> float:
        """Plate-mode amplitude derating of the local carrier (1.0 on
        the primary resonance)."""
        return self._carrier_response

    @property
    def foreign_carriers(self) -> Tuple[ForeignCarrier, ...]:
        """Foreign reader carriers currently modeled, or () — the
        single-reader normal path, where no interference terms exist."""
        return self._foreign_carriers

    def set_carrier(self, frequency_hz: float, response: float = 1.0) -> bool:
        """Retune the local carrier to ``frequency_hz`` with the given
        plate-mode ``response`` derating (applied to both the harvest
        carrier and the backscatter link budget).

        Returns True when anything changed; an idempotent call is a
        no-op that leaves :attr:`channel_generation` untouched, so the
        default-tuned path stays byte-identical.
        """
        if frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if not 0 < response <= 1:
            raise ValueError("carrier response must be in (0, 1]")
        if (
            frequency_hz == self._carrier_frequency_hz
            and response == self._carrier_response
        ):
            return False
        self._carrier_frequency_hz = frequency_hz
        self._carrier_response = response
        self._interference_power.clear()
        self._channel_generation += 1
        return True

    def set_foreign_carriers(
        self, carriers: Iterable[ForeignCarrier]
    ) -> bool:
        """Declare the other readers' carriers coupling into this
        receiver.  Each source must be a mounted transducer distinct
        from this medium's own source.

        Returns True when the set changed (bumping
        :attr:`channel_generation` so downstream link caches refresh);
        setting the same tuple again is a no-op.
        """
        tup = tuple(carriers)
        for fc in tup:
            if fc.source == self._source:
                raise ValueError(
                    f"{fc.source!r} is this medium's own source"
                )
            if fc.source not in self._biw.mounts:
                raise KeyError(f"foreign source {fc.source!r} is not mounted")
        if tup == self._foreign_carriers:
            return False
        self._foreign_carriers = tup
        self._interference_power.clear()
        self._channel_generation += 1
        return True

    def foreign_interference_power(self, bit_rate_bps: float) -> float:
        """In-band interference power (V²) from every foreign carrier.

        Each foreign reader's CW tone propagates to this medium's
        receiver at its link amplitude, then is suppressed by the
        carrier-rejection model of
        :func:`repro.channel.acoustics.carrier_rejection_db` — the
        phase-noise floor for co-channel carriers plus 20 dB/decade of
        spacing rolloff.  Returns 0.0 with no foreign carriers.
        """
        if not self._foreign_carriers:
            return 0.0
        if bit_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        cached = self._interference_power.get(bit_rate_bps)
        if cached is not None:
            return cached
        total = 0.0
        for fc in self._foreign_carriers:
            amplitude = (
                self._propagation.link(fc.source, self._source).amplitude_v
                * fc.response
            )
            rejection = acoustics.carrier_rejection_db(
                abs(fc.frequency_hz - self._carrier_frequency_hz), bit_rate_bps
            )
            residual = amplitude * acoustics.db_to_amplitude_ratio(-rejection)
            total += residual**2 / 2.0
        self._interference_power[bit_rate_bps] = total
        return total

    def uplink_sir_db(self, tag: str, bit_rate_bps: float = 375.0) -> float:
        """Signal-to-(foreign-carrier-)interference ratio for one tag's
        backscatter, ignoring thermal noise.  ``inf`` with no foreign
        carriers — the planner and telemetry treat that as a clean
        channel."""
        interference = self.foreign_interference_power(bit_rate_bps)
        if interference <= 0.0:
            return math.inf
        signal_power = self.backscatter_amplitude_v(tag) ** 2 / 2.0
        return acoustics.power_ratio_to_db(signal_power / interference)

    # -- basic link quantities ---------------------------------------------

    @property
    def biw(self) -> BiWModel:
        return self._biw

    @property
    def propagation(self) -> PropagationModel:
        return self._propagation

    @property
    def pzt(self) -> PZTTransducer:
        return self._pzt

    @property
    def noise(self) -> ReceiverNoise:
        return self._noise

    @property
    def source(self) -> str:
        """The mount whose transducer drives the carrier."""
        return self._source

    def tag_names(self) -> List[str]:
        """All tag mounts (not this medium's source, not any mount named
        like a reader), sorted by index."""
        names = [
            m
            for m in self._biw.mounts
            if m != self._source and not m.startswith("reader")
        ]
        return sorted(names, key=_tag_sort_key)

    def carrier_amplitude_v(self, tag: str) -> float:
        """Open-circuit PZT peak voltage at ``tag`` from the reader carrier.

        This is the Vp that feeds the tag's multi-stage voltage
        multiplier (Sec. 3.2) and its DL envelope detector.  A carrier
        retuned off the primary resonance (multi-reader frequency
        plans) is derated by the plate-mode response.
        """
        amplitude = self._propagation.carrier_amplitude_at(tag, self._source)
        if self._carrier_response != 1.0:
            amplitude *= self._carrier_response
        return amplitude

    def propagation_delay_s(self, tag: str) -> float:
        """One-way group delay of the source→tag acoustic path."""
        return self._propagation.link(self._source, tag).delay_s

    def backscatter_amplitude_v(self, tag: str) -> float:
        """Amplitude of the tag's backscatter component at the reader RX.

        The raw round-trip loss spread between near and far tags is
        compressed by the reverberant field (strong links also pump a
        strong diffuse field), with the compression exponent calibrated
        so Fig. 12(a)'s per-tag SNR spread reproduces.
        """
        rt_loss = self._propagation.roundtrip_loss_db(tag, self._source)
        relative_db = -REVERB_COMPRESSION * (rt_loss - self._reference_rt_loss)
        amplitude = (
            REFERENCE_BACKSCATTER_V
            * self._pzt.modulation_depth
            / PZTTransducer().modulation_depth
            * acoustics.db_to_amplitude_ratio(relative_db)
        )
        if self._carrier_response != 1.0:
            # Backscatter rides the local carrier: an off-resonance plan
            # derates the round trip once (the tag re-radiates whatever
            # it receives, so the derating is not squared).
            amplitude *= self._carrier_response
        return amplitude

    # -- uplink quality -----------------------------------------------------

    def uplink_snr_db(
        self, tag: str, bit_rate_bps: float, penalty_db: float = 0.0
    ) -> float:
        """SNR of the tag's backscatter at the reader (paper Fig. 12a).

        Signal power is the backscatter component's power; noise is the
        receiver PSD integrated over the FM0 occupied bandwidth (~ the
        bit rate), matching the paper's PSD-ratio definition.

        ``penalty_db`` subtracts a transient SNR degradation (fault
        injection: noise bursts, attenuation drift); 0 on the normal
        path.

        With foreign reader carriers declared
        (:meth:`set_foreign_carriers`) this is an SINR: their residual
        in-band power adds to the receiver noise.  The branch is guarded
        so the single-reader path computes byte-identical floats.
        """
        if bit_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        amplitude = self.backscatter_amplitude_v(tag)
        signal_power = amplitude**2 / 2.0
        bandwidth = FM0_BANDWIDTH_PER_BPS * bit_rate_bps
        noise_power = self._noise.power_in_band(bandwidth)
        if self._foreign_carriers:
            noise_power = noise_power + self.foreign_interference_power(
                bit_rate_bps
            )
        return acoustics.power_ratio_to_db(signal_power / noise_power) - penalty_db

    def uplink_bit_error_rate(
        self, tag: str, bit_rate_bps: float, penalty_db: float = 0.0
    ) -> float:
        """Per-bit error probability for FM0 OOK at the given rate.

        The reader's matched half-bit integration makes detection
        near-coherent: BER ~ Q(sqrt(SNR)).  With the SNRs of this
        deployment the term is tiny at the default rate, so packet loss
        is dominated by the burst floor — the paper's <0.5% regime —
        and only becomes visible for the far tags at 3000 bps.
        """
        snr_linear = acoustics.db_to_power_ratio(
            self.uplink_snr_db(tag, bit_rate_bps, penalty_db)
        )
        return 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))

    def uplink_packet_success(
        self,
        tag: str,
        bit_rate_bps: float,
        packet_bits: int = 64,
        penalty_db: float = 0.0,
    ) -> float:
        """Probability an uplink packet decodes cleanly (Fig. 12b).

        Combines per-bit errors with a small rate-dependent burst-loss
        floor (sync slips and transient disturbances grow slightly with
        bit rate, mirroring the mild upward trend of Fig. 12b).
        """
        if packet_bits <= 0:
            raise ValueError("packet must contain at least one bit")
        ber = self.uplink_bit_error_rate(tag, bit_rate_bps, penalty_db)
        clean_bits = (1.0 - ber) ** packet_bits
        burst = BASE_BURST_LOSS * (1.0 + bit_rate_bps / 1500.0)
        return clean_bits * (1.0 - min(burst, 1.0))

    # -- adaptive-PHY link budget ---------------------------------------------

    #: Reference raw rate (bps) for :meth:`link_quality_db` — the stock
    #: fig12 operating point, so quality numbers line up with the
    #: paper's SNR ladder regardless of what rate a link currently runs.
    QUALITY_REFERENCE_RATE_BPS = 375.0

    def link_quality_db(self, tag: str, penalty_db: float = 0.0) -> float:
        """Rate-independent link quality (dB) the rate controller consumes.

        The uplink SNR at the reference 375 bps FM0 bandwidth: one
        number per link that every rung of the rate ladder is
        calibrated against (``repro.phy.rate.DEFAULT_LADDER``).
        """
        return self.uplink_snr_db(
            tag, self.QUALITY_REFERENCE_RATE_BPS, penalty_db=penalty_db
        )

    def link_config_snr_db(
        self, tag: str, config, penalty_db: float = 0.0
    ) -> float:
        """Uplink SNR (dB) under a :class:`repro.phy.modulation.LinkConfig`.

        FM0 configs reproduce :meth:`uplink_snr_db` float-for-float;
        other modulations integrate the receiver noise over their own
        occupied bandwidth and derate the signal by the modulation's
        power efficiency.
        """
        from repro.phy.modulation import get_modulation

        mod = get_modulation(config.modulation)
        if mod.uses_fm0_chain:
            return self.uplink_snr_db(
                tag, config.bitrate_bps, penalty_db=penalty_db
            )
        amplitude = self.backscatter_amplitude_v(tag)
        signal_power = mod.power_efficiency * amplitude**2 / 2.0
        bandwidth = mod.occupied_bandwidth_hz(config.bitrate_bps)
        noise_power = self._noise.power_in_band(bandwidth)
        if self._foreign_carriers:
            noise_power = noise_power + self.foreign_interference_power(
                config.bitrate_bps
            )
        return acoustics.power_ratio_to_db(signal_power / noise_power) - penalty_db

    def link_config_packet_success(
        self,
        tag: str,
        config,
        packet_bits: Optional[int] = None,
        penalty_db: float = 0.0,
    ) -> float:
        """Per-frame success probability under an arbitrary link config.

        ``packet_bits`` counts *raw* on-air bits; the default is the
        modulation's raw footprint of the 32-bit UL frame (64 for FM0 —
        matching :meth:`uplink_packet_success`'s legacy default — 32
        for the one-bit-per-raw-bit modes).  The burst floor scales
        with the modulation's ``burst_scale`` (constant-envelope FSK
        dodges most envelope-transient glitches).
        """
        from repro.phy.modulation import get_modulation

        mod = get_modulation(config.modulation)
        if packet_bits is None:
            packet_bits = mod.frame_raw_bits(32)
        if mod.uses_fm0_chain:
            return self.uplink_packet_success(
                tag, config.bitrate_bps, packet_bits, penalty_db=penalty_db
            )
        snr_linear = acoustics.db_to_power_ratio(
            self.link_config_snr_db(tag, config, penalty_db=penalty_db)
        )
        ber = mod.bit_error_rate(snr_linear, config.bitrate_bps)
        clean_bits = (1.0 - ber) ** packet_bits
        burst = (
            BASE_BURST_LOSS
            * mod.burst_scale
            * (1.0 + config.bitrate_bps / 1500.0)
        )
        return clean_bits * (1.0 - min(burst, 1.0))

    # -- tag-to-tag (relay) link budget ---------------------------------------

    def tag_to_tag_loss_db(self, src: str, dst: str) -> float:
        """Total loss (dB) of the T2T backscatter link ``src`` → ``dst``.

        The relaying tag's signal is backscatter of the reader carrier,
        so the budget chains the carrier's trip to ``src``, the acoustic
        path ``src`` → ``dst`` over the structural graph (the same
        per-metre + per-junction model every other link uses), and the
        :data:`T2T_CONVERSION_LOSS_DB` backscatter-of-backscatter
        penalty at the receiving tag.
        """
        return (
            self._propagation.link(self._source, src).loss_db
            + self._propagation.link(src, dst).loss_db
            + T2T_CONVERSION_LOSS_DB
        )

    def tag_to_tag_amplitude_v(self, src: str, dst: str) -> float:
        """Amplitude of ``src``'s backscatter at ``dst``'s detector.

        Anchored to the same :data:`REFERENCE_BACKSCATTER_V` calibration
        point as :meth:`backscatter_amplitude_v`, with the same
        reverberant compression of the raw loss spread — the diffuse
        field a strong carrier pumps helps every receiver on the
        structure, tags included.
        """
        loss = self.tag_to_tag_loss_db(src, dst)
        relative_db = -REVERB_COMPRESSION * (loss - self._reference_rt_loss)
        amplitude = (
            REFERENCE_BACKSCATTER_V
            * self._pzt.modulation_depth
            / PZTTransducer().modulation_depth
            * acoustics.db_to_amplitude_ratio(relative_db)
        )
        if self._carrier_response != 1.0:
            amplitude *= self._carrier_response
        return amplitude

    def tag_to_tag_snr_db(
        self, src: str, dst: str, bit_rate_bps: float = 375.0
    ) -> float:
        """SNR of the ``src`` → ``dst`` T2T link at ``dst``'s detector."""
        if bit_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        amplitude = self.tag_to_tag_amplitude_v(src, dst)
        signal_power = amplitude**2 / 2.0
        bandwidth = FM0_BANDWIDTH_PER_BPS * bit_rate_bps
        noise_power = self._noise.power_in_band(bandwidth)
        return acoustics.power_ratio_to_db(signal_power / noise_power)

    def tag_to_tag_packet_success(
        self,
        src: str,
        dst: str,
        bit_rate_bps: float = 375.0,
        packet_bits: int = 64,
    ) -> float:
        """Probability a forwarded frame survives the T2T hop.

        Same near-coherent FM0 error model and burst floor as the
        uplink (:meth:`uplink_packet_success`), evaluated at the T2T
        link's SNR.
        """
        if packet_bits <= 0:
            raise ValueError("packet must contain at least one bit")
        snr_linear = acoustics.db_to_power_ratio(
            self.tag_to_tag_snr_db(src, dst, bit_rate_bps)
        )
        ber = 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))
        clean_bits = (1.0 - ber) ** packet_bits
        burst = BASE_BURST_LOSS * (1.0 + bit_rate_bps / 1500.0)
        return clean_bits * (1.0 - min(burst, 1.0))

    # -- slot-level uplink arbitration ---------------------------------------

    def observe_slot(
        self,
        transmitters: Iterable[str],
        rng: np.random.Generator,
        bit_rate_bps: float = 375.0,
        packet_bits: int = 64,
        penalty_db: Optional[Mapping[str, float]] = None,
        config_for: Optional[Mapping[str, object]] = None,
    ) -> SlotObservation:
        """Resolve one uplink slot: who (if anyone) the reader decodes,
        and whether its IQ-cluster detector flags a collision.

        * 0 transmitters: nothing decoded, no collision.
        * 1 transmitter: decoded with the link's packet success rate.
        * >=2 transmitters: the capture effect may still let the reader
          decode the strongest tag if it dominates the sum of the others
          by :data:`CAPTURE_THRESHOLD_DB`; independently, the IQ-domain
          cluster count exposes the collision with high probability
          (Sec. 5.3 "Reader Feedback Mechanism").

        ``penalty_db`` maps tag -> transient SNR penalty (dB) from fault
        injection; None (the normal path) means no penalties.

        ``config_for`` maps tag -> :class:`repro.phy.modulation.LinkConfig`
        for the adaptive PHY; tags absent from the map (and every tag
        when it is None, the fixed-rate link) use ``bit_rate_bps`` /
        ``packet_bits``.  The RNG draw order is identical either way —
        per-tag success probabilities are the only thing a config
        changes — which is what keeps an FM0-only plan byte-identical
        to no plan.
        """
        tags = list(transmitters)
        if not tags:
            return SlotObservation((), None, False)

        def tag_success(tag: str, pen: float) -> float:
            if config_for is not None:
                config = config_for.get(tag)
                if config is not None:
                    return self.link_config_packet_success(
                        tag, config, penalty_db=pen
                    )
            return self.uplink_packet_success(
                tag, bit_rate_bps, packet_bits, penalty_db=pen
            )

        if len(tags) == 1:
            tag = tags[0]
            pen = penalty_db.get(tag, 0.0) if penalty_db else 0.0
            success = tag_success(tag, pen)
            decoded = tag if rng.random() < success else None
            return SlotObservation(tuple(tags), decoded, False)

        amplitudes = {t: self.backscatter_amplitude_v(t) for t in tags}
        if penalty_db:
            for t in tags:
                pen = penalty_db.get(t, 0.0)
                if pen:
                    amplitudes[t] *= acoustics.db_to_amplitude_ratio(-pen)
        strongest = max(tags, key=lambda t: amplitudes[t])
        interference = math.sqrt(
            sum(amplitudes[t] ** 2 for t in tags if t != strongest)
        )
        gap_db = acoustics.amplitude_ratio_to_db(
            amplitudes[strongest] / interference
        ) if interference > 0 else math.inf

        decoded = None
        if gap_db >= CAPTURE_THRESHOLD_DB:
            pen = penalty_db.get(strongest, 0.0) if penalty_db else 0.0
            success = tag_success(strongest, pen)
            if rng.random() < success:
                decoded = strongest
        collision_detected = rng.random() < CLUSTER_DETECTION_PROBABILITY
        return SlotObservation(tuple(tags), decoded, collision_detected)

    # -- downlink quality -----------------------------------------------------

    def downlink_snr_db(self, tag: str) -> float:
        """Carrier-to-noise ratio at the tag's envelope detector.

        The tag sees the full carrier (not a backscatter residue), so DL
        SNR is high everywhere; DL errors are timing-driven, not
        noise-driven (Sec. 6.3).
        """
        amplitude = self.carrier_amplitude_v(tag)
        signal_power = amplitude**2 / 2.0
        # Envelope detector bandwidth ~ a few kHz around the carrier.
        noise_power = self._noise.power_in_band(4000.0) + self._reverb.in_band_psd(
            amplitude
        ) * 4000.0
        return acoustics.power_ratio_to_db(signal_power / noise_power)

    def beacon_loss_probability(self, tag: str, bit_rate_bps: float = 250.0) -> float:
        """Probability a DL beacon fails to decode at ``tag``.

        Delegates to the PIE timing-error model (the dominant DL failure
        mode); at the default 250 bps this is well under 0.1%, matching
        the paper's beacon-loss assumption in Appendix C.
        """
        from repro.phy.pie import pie_packet_loss_probability

        return pie_packet_loss_probability(
            bit_rate_bps, downlink_snr_db=self.downlink_snr_db(tag)
        )


def _tag_sort_key(name: str) -> tuple:
    digits = "".join(ch for ch in name if ch.isdigit())
    return (name.rstrip("0123456789"), int(digits) if digits else -1)
