"""Slot-level network simulator for the full ARACHNET protocol.

Runs reader + tags + channel through the slotted timeline the paper
evaluates: each slot opens with a DL beacon (per-tag loss draws from
the channel's PIE model), scheduled tags backscatter, the reader's
receive chain arbitrates the slot (capture effect + IQ-cluster
collision detection), and the verdict rides the next beacon.

Supports every experimental lever of Sec. 6.4: the nine c1-c9
transmission patterns, RESET-triggered first-convergence measurement
(Fig. 15), long-running slot statistics (Fig. 16), staggered tag
activation from the charging model, and the ablation switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro import telemetry
from repro.channel.medium import AcousticMedium, SlotObservation
from repro.core.reader_protocol import ReaderMac, SlotRecord
from repro.core.state_machine import DEFAULT_NACK_THRESHOLD, TagState
from repro.core.tag_protocol import TagMac
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # avoid importing the fault layer unless it is used
    from repro.faults.controller import FaultController
    from repro.faults.schedule import FaultSchedule
    from repro.phy.modulation import LinkConfig
    from repro.phy.rate import RateController
    from repro.sim.trace import TraceRecorder

#: Default slot duration (s), Sec. 6.4 ("empirically set to 1 s").
DEFAULT_SLOT_DURATION_S = 1.0


@dataclass(frozen=True)
class NetworkConfig:
    """Tunable knobs of a slotted simulation run."""

    slot_duration_s: float = DEFAULT_SLOT_DURATION_S
    ul_raw_rate_bps: float = 375.0
    dl_raw_rate_bps: float = 250.0
    nack_threshold: int = DEFAULT_NACK_THRESHOLD
    enable_empty_flag: bool = True
    enable_future_avoidance: bool = True
    enable_beacon_loss_timer: bool = True
    #: Per-tag per-slot beacon-loss probability override; None derives
    #: it from the channel's PIE timing model.
    beacon_loss_probability: Optional[float] = None
    #: Ideal channel: no UL decode failures, perfect collision
    #: detection (for protocol-only analysis).
    ideal_channel: bool = False
    seed: int = 0


def derive_beacon_loss(
    config: NetworkConfig, medium: AcousticMedium, name: str
) -> float:
    """Per-slot beacon-loss probability for one tag: the config
    override if set, zero on the ideal channel, else the channel's PIE
    timing model."""
    if config.beacon_loss_probability is not None:
        return config.beacon_loss_probability
    if config.ideal_channel:
        return 0.0
    return medium.beacon_loss_probability(name, config.dl_raw_rate_bps)


def ideal_observation(transmitters: Sequence[str]) -> SlotObservation:
    """Ideal-channel arbitration: a lone transmitter always decodes,
    and any overlap is always detected as a collision."""
    if len(transmitters) == 1:
        return SlotObservation(tuple(transmitters), transmitters[0], False)
    if transmitters:
        return SlotObservation(tuple(transmitters), None, True)
    return SlotObservation((), None, False)


class SlottedNetwork:
    """One deployment of the distributed slot-allocation protocol."""

    def __init__(
        self,
        tag_periods: Mapping[str, int],
        medium: Optional[AcousticMedium] = None,
        config: Optional[NetworkConfig] = None,
        activation_slot: Optional[Mapping[str, int]] = None,
        faults: "Optional[FaultSchedule]" = None,
        fault_recorder: "Optional[TraceRecorder]" = None,
        uplink_plan: "Optional[Mapping[str, LinkConfig]]" = None,
        rate_controller: "Optional[RateController]" = None,
    ) -> None:
        if not tag_periods:
            raise ValueError("need at least one tag")
        self.config = config if config is not None else NetworkConfig()
        self.medium = medium if medium is not None else AcousticMedium()
        for tag in tag_periods:
            if tag not in self.medium.biw.mounts:
                raise KeyError(f"tag {tag!r} is not mounted on the BiW")
        self._streams = RandomStreams(self.config.seed)
        self._slot_rng = self._streams.stream("slots")

        self.reader = ReaderMac(
            tag_periods,
            nack_threshold=self.config.nack_threshold,
            enable_empty_flag=self.config.enable_empty_flag,
            enable_future_avoidance=self.config.enable_future_avoidance,
        )
        self.tags: Dict[str, TagMac] = {}
        self._beacon_loss: Dict[str, float] = {}
        self.activation_slot = dict(activation_slot or {})
        for tid, (name, period) in enumerate(sorted(tag_periods.items())):
            rng = self._streams.fork(name).stream("offset")
            self.tags[name] = TagMac(
                tag_name=name,
                tid=tid,
                period=period,
                offset_picker=lambda p, r=rng: int(r.integers(0, p)),
                nack_threshold=self.config.nack_threshold,
                respect_empty_flag=self.config.enable_empty_flag,
                late_arrival=self.activation_slot.get(name, 0) > 0,
            )
            self._beacon_loss[name] = derive_beacon_loss(
                self.config, self.medium, name
            )
        self.records: List[SlotRecord] = []
        # Tags sitting out the slot loop: homed on another reader
        # (multi-reader overlap zones) or unpowered (energy tier).
        # Empty on the normal path: the per-slot check is a single
        # falsy-set test, and these tags consume no RNG draws, so the
        # seam is strictly opt-in.
        self._parked: set = set()

        # Adaptive PHY is strictly opt-in, like faults below: with no
        # plan and no controller the attributes stay None and every
        # tag rides the fixed-rate FM0 link (an FM0-only plan is
        # byte-identical to none, pinned by
        # tests/phy/test_adaptive_differential.py).
        self.rate_controller = rate_controller
        self._uplink_plan: "Optional[Dict[str, LinkConfig]]" = None
        if uplink_plan is not None:
            self._uplink_plan = dict(uplink_plan)
        elif rate_controller is not None:
            self._uplink_plan = {}
        self._quality_cache: Dict[str, float] = {}
        self._quality_generation = -1

        # Fault injection is strictly opt-in: with no schedule the
        # controller is never created, its RNG stream never instantiated,
        # and step() takes a single always-false branch — the fault-free
        # run is byte-identical to a build without this subsystem.
        self._faults: "Optional[FaultController]" = None
        if faults is not None:
            from repro.faults.controller import FaultController

            self._faults = FaultController(
                faults,
                self,
                self._streams.stream("faults"),
                recorder=fault_recorder,
            )

    @property
    def faults(self) -> "Optional[FaultController]":
        """The bound fault controller, or None on the normal path."""
        return self._faults

    # -- parking: tags sitting the slot out ----------------------------------

    @property
    def parked_tags(self) -> frozenset:
        """Tags provisioned here but sitting the slot loop out (homed
        on another reader, or unpowered on the energy tier)."""
        return frozenset(self._parked)

    def park_tag(self, name: str) -> None:
        """Silence ``name``: it stays provisioned (the reader keeps its
        period in the roster) but neither receives beacons nor draws
        from the RNG streams until :meth:`unpark_tag`.  Used by the
        multi-reader layer for overlap-zone tags homed elsewhere."""
        if name not in self.tags:
            raise KeyError(f"tag {name!r} is not part of this network")
        self._parked.add(name)

    def unpark_tag(self, name: str) -> None:
        """Re-admit a parked tag to the slot loop."""
        if name not in self.tags:
            raise KeyError(f"tag {name!r} is not part of this network")
        self._parked.discard(name)

    # -- beacon loss bookkeeping -------------------------------------------

    def beacon_loss_probability_for(self, name: str) -> float:
        """Current per-slot beacon-loss probability for one tag."""
        return self._beacon_loss[name]

    def refresh_beacon_loss(self) -> None:
        """Re-derive the per-tag beacon-loss table from the channel
        (after a fault injector mutated the medium)."""
        for name in self._beacon_loss:
            self._beacon_loss[name] = derive_beacon_loss(
                self.config, self.medium, name
            )

    # -- adaptive uplink (opt-in) -------------------------------------------

    @property
    def uplink_plan(self) -> "Optional[Dict[str, LinkConfig]]":
        """Current per-tag link configs (None when the PHY is fixed-rate)."""
        return None if self._uplink_plan is None else dict(self._uplink_plan)

    def _link_quality(self, name: str) -> float:
        """Clean-channel link quality, cached per channel generation."""
        generation = self.medium.channel_generation
        if generation != self._quality_generation:
            self._quality_cache.clear()
            self._quality_generation = generation
        quality = self._quality_cache.get(name)
        if quality is None:
            quality = self.medium.link_quality_db(name)
            self._quality_cache[name] = quality
        return quality

    def _advance_rate_control(
        self,
        transmitters: Sequence[str],
        penalties: Optional[Mapping[str, float]],
    ) -> None:
        """Feed this slot's link qualities to the controller (only
        called when one is installed).

        Draws nothing from any RNG stream — quality is a deterministic
        function of the channel and the fault penalties — so rate
        control never perturbs the shared slot stream.
        """
        controller = self.rate_controller
        from repro.phy.rate import QUALITY_HISTOGRAM_BOUNDS_DB, QUALITY_METRIC

        tel = telemetry.active()
        for name in transmitters:
            quality = self._link_quality(name)
            if penalties:
                quality -= penalties.get(name, 0.0)
            if tel is not None:
                tel.histogram(
                    QUALITY_METRIC,
                    bounds=QUALITY_HISTOGRAM_BOUNDS_DB,
                    tag=name,
                ).observe(quality)
            self._uplink_plan[name] = controller.observe(name, quality)

    # -- channel arbitration ---------------------------------------------------

    def _observe(self, transmitters: Sequence[str]) -> SlotObservation:
        if self.config.ideal_channel:
            return ideal_observation(transmitters)
        penalties = (
            self._faults.penalties_for(transmitters)
            if self._faults is not None
            else None
        )
        if self.rate_controller is not None:
            self._advance_rate_control(transmitters, penalties)
        return self.medium.observe_slot(
            transmitters,
            self._slot_rng,
            bit_rate_bps=self.config.ul_raw_rate_bps,
            penalty_db=penalties,
            config_for=self._uplink_plan,
        )

    # -- execution ---------------------------------------------------------------

    def step(self) -> SlotRecord:
        """Advance the network by one slot.

        The one slot exchange of Sec. 5: DL beacon, per-tag decision,
        reader arbitration, verdict logged for the next beacon.  Tiers
        and features plug in through seams rather than private copies
        of this loop: :meth:`_open_slot` before anything else, the
        ``_parked`` set of tags sitting the slot out, the tag MACs'
        own hooks, :meth:`_observe` for arbitration, and
        :meth:`_close_slot` to settle the verdict.
        """
        self._open_slot()
        slot = self.reader.slot_index
        ctl = self._faults
        if ctl is not None:
            ctl.on_slot_start(slot)
        beacon = self.reader.make_beacon()
        transmitters: List[str] = []
        parked = self._parked
        for name, tag in self.tags.items():
            if slot < self.activation_slot.get(name, 0):
                continue  # still charging; not yet part of the network
            if parked and name in parked:
                # Sitting out: silent, and crucially drawing nothing
                # from the slot stream, so an all-unparked run is
                # byte-identical to a build without this seam.
                tag.transmitted_last_slot = False
                continue
            lost = self._slot_rng.random() < self._beacon_loss[name]
            if ctl is not None:
                if ctl.tag_offline(name):
                    # Brownout: the MCU is dark — no reception, no
                    # watchdog; the counter simply stalls.  (The loss
                    # draw above still happens, keeping the shared slot
                    # stream aligned across fault scenarios.)
                    tag.transmitted_last_slot = False
                    continue
                lost = ctl.beacon_lost(name, lost)
            if lost:
                if self.config.enable_beacon_loss_timer:
                    tag.on_beacon_loss()
                else:
                    # Ablation: no watchdog — the tag silently skips the
                    # slot and its counter stalls (vanilla Sec. 5.2
                    # behaviour under desynchronisation).
                    tag.beacons_missed += 1
                    tag.transmitted_last_slot = False
                continue
            decision = tag.on_beacon(
                beacon if ctl is None else ctl.beacon_for(name, beacon)
            )
            if decision.transmit and (ctl is None or ctl.transmit_allowed(name)):
                transmitters.append(name)
        observation = self._observe(transmitters)
        if ctl is not None:
            observation = ctl.transform_observation(observation)
        record = self._close_slot(observation)
        if ctl is not None:
            ctl.on_slot_end(slot, record)
        tel = telemetry.active()
        if tel is not None:
            self._record_telemetry(tel, record)
        return record

    def _open_slot(self) -> None:
        """Per-slot hook, run before the fault controller and the
        beacon loop (no-op here)."""

    def _close_slot(self, observation: SlotObservation) -> SlotRecord:
        """Hand the arbitrated slot to the reader and log its record;
        subclasses extend this to rewrite the observation or to settle
        per-slot state against the record."""
        record = self.reader.on_slot_observation(observation)
        self.records.append(record)
        return record

    def _record_telemetry(self, tel, record: SlotRecord) -> None:
        """Digest one slot record into the active metrics registry.

        Only reached when collection is enabled; everything recorded is
        a pure function of the record, so telemetry never perturbs the
        simulation (no RNG draws, no protocol state).
        """
        tel.inc("mac.slots")
        if not record.truly_nonempty:
            tel.inc("mac.idle_slots")
        if record.collision_detected:
            tel.inc("mac.collisions")
        if record.empty_flag:
            tel.inc("mac.empty_flags")
        if record.decoded is not None:
            tel.inc("mac.decodes")
            if record.acked:
                tel.inc("mac.acks")
                tel.inc("mac.tag.acked", tag=record.decoded)
            else:
                tel.inc("mac.tag.nacked", tag=record.decoded)

    def run(self, n_slots: int) -> List[SlotRecord]:
        """Run ``n_slots`` slots, returning their records."""
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        start = len(self.records)
        for _ in range(n_slots):
            self.step()
        return self.records[start:]

    def reset(self) -> None:
        """Broadcast RESET in the next beacon (Sec. 4.2 CMD)."""
        self.reader.request_reset()

    def run_until_converged(
        self, streak: int = 32, max_slots: int = 200_000
    ) -> Optional[int]:
        """Slots until the reader sees ``streak`` consecutive
        collision-free slots — the paper's first-convergence-time metric
        (Sec. 6.4).  Returns the slot count including the streak, or
        None if ``max_slots`` elapse first.
        """
        if streak < 1:
            raise ValueError("streak must be >= 1")
        clean = 0
        for i in range(max_slots):
            record = self.step()
            clean = 0 if record.collision_detected else clean + 1
            if clean >= streak:
                tel = telemetry.active()
                if tel is not None:
                    tel.observe("mac.convergence_slots", i + 1)
                return i + 1
        return None

    # -- state queries -------------------------------------------------------------

    def settled_fraction(self) -> float:
        """Fraction of activated tags currently in SETTLE."""
        active = [
            t
            for n, t in self.tags.items()
            if self.reader.slot_index >= self.activation_slot.get(n, 0)
        ]
        if not active:
            return 0.0
        return sum(1 for t in active if t.state is TagState.SETTLE) / len(active)

    def tag_states(self) -> Dict[str, TagState]:
        return {n: t.state for n, t in self.tags.items()}

    def tag_offsets(self) -> Dict[str, int]:
        return {n: t.offset for n, t in self.tags.items()}
