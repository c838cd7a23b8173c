"""The fleet engine: N slot-tier networks, one vectorised step.

:class:`FleetEngine` holds N independent deployments of one BiW
scenario (same tag roster, periods, channel and protocol config;
different seeds) and advances all of them one slot per
:meth:`step_all` call.  Two lanes run in lockstep:

* the **vector lane** — plain networks stepped through batched numpy
  kernels over structure-of-arrays state (:class:`~repro.fleet.state.TagArrays`,
  :class:`~repro.fleet.reader.BatchReader`, block-buffered RNG banks);
* the **scalar lane** — networks with a fault schedule or a resilience
  supervisor attached, embedded as real
  :class:`~repro.core.network.SlottedNetwork` objects so the rich
  fault/recovery semantics stay exactly the sequential ones.

Determinism contract: for every network, the per-slot log produced
here is **byte-identical** to a sequential run of the same scenario
under the same seed — the same RandomStreams-derived generators are
consumed in the same per-stream order (see :mod:`repro.fleet.rng`),
and every floating-point comparison is either an elementwise float64
op (bit-identical to scalar math) or delegated to the sequential code
itself (multi-transmitter capture arbitration calls
``AcousticMedium.observe_slot`` directly).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.channel.medium import CLUSTER_DETECTION_PROBABILITY, AcousticMedium
from repro.core.network import NetworkConfig, SlottedNetwork, derive_beacon_loss
from repro.core.reader_protocol import SlotRecord
from repro.fleet.reader import BatchReader
from repro.fleet.rng import OffsetBank, UniformBank
from repro.fleet.state import FleetSpec, SlotLog, TagArrays
from repro.sim.random import RandomStreams


class FleetEngine:
    """Step a fleet of identical-scenario networks in lockstep.

    Parameters
    ----------
    tag_periods:
        Shared tag roster (name -> period), as for ``SlottedNetwork``.
    specs:
        One :class:`~repro.fleet.state.FleetSpec` per network.  Specs
        with faults or a supervisor run on the scalar lane.
    config:
        Shared :class:`NetworkConfig`; its ``seed`` field is ignored —
        each network uses its spec's seed.
    activation_slot:
        Shared staggered-activation map (plain mode only).
    medium_factory:
        Builds one channel per scalar-lane network plus one for the
        vector lane (fault injectors mutate their network's medium, so
        instances must not be shared).  Defaults to ``AcousticMedium``.
    energy:
        Run every network as an
        :class:`~repro.core.energy_network.EnergyAwareNetwork`: live
        supercapacitor accounting gates participation, and brownouts
        cold-boot the MAC.  Incompatible with ``activation_slot``
        (activation emerges from the physics); specs with fault
        schedules ride the scalar lane as faulted energy networks.
    """

    def __init__(
        self,
        tag_periods,
        specs: Sequence[FleetSpec],
        config: Optional[NetworkConfig] = None,
        activation_slot=None,
        medium_factory: Optional[Callable[[], AcousticMedium]] = None,
        energy: bool = False,
        sensor_samples_per_slot: float = 0.0,
        sensor_sample_duration_s: float = 1.0e-3,
        initial_capacitor_v: float = 0.0,
    ) -> None:
        if not tag_periods:
            raise ValueError("need at least one tag")
        if not specs:
            raise ValueError("need at least one network")
        names_seen = set()
        for spec in specs:
            if spec.name in names_seen:
                raise ValueError(f"duplicate network name {spec.name!r}")
            names_seen.add(spec.name)
        self.config = config if config is not None else NetworkConfig()
        self.specs = list(specs)
        self._factory = medium_factory if medium_factory is not None else AcousticMedium
        self._medium = self._factory()
        for tag in tag_periods:
            if tag not in self._medium.biw.mounts:
                raise KeyError(f"tag {tag!r} is not mounted on the BiW")
        self._energy = energy
        self.activation_slot = dict(activation_slot or {})
        if energy and self.activation_slot:
            raise ValueError(
                "energy mode derives activation from the physics; "
                "activation_slot is not supported"
            )

        items = sorted(tag_periods.items())
        self._names: List[str] = [n for n, _ in items]
        self._periods_list: List[int] = [int(p) for _, p in items]
        self._periods = np.asarray(self._periods_list, dtype=np.int64)
        self._tid_by_name = {n: i for i, n in enumerate(self._names)}
        self.n_tags = len(self._names)
        self.n_networks = len(self.specs)
        self._tag_periods = dict(tag_periods)

        self._slot = 0
        self._build_scalar_lane(
            sensor_samples_per_slot, sensor_sample_duration_s, initial_capacitor_v
        )
        self._build_vector_lane(
            sensor_samples_per_slot, sensor_sample_duration_s, initial_capacitor_v
        )

    # -- construction --------------------------------------------------------

    def _build_scalar_lane(
        self, samples: float, sample_s: float, initial_v: float
    ) -> None:
        self._scalar_nets: Dict[str, SlottedNetwork] = {}
        self._scalar_steppers: List[Callable[[], SlotRecord]] = []
        for spec in self.specs:
            if spec.vectorizable:
                continue
            cfg = replace(self.config, seed=spec.seed)
            if self._energy:
                from repro.core.energy_network import EnergyAwareNetwork

                net: SlottedNetwork = EnergyAwareNetwork(
                    self._tag_periods,
                    self._factory(),
                    cfg,
                    sensor_samples_per_slot=samples,
                    sensor_sample_duration_s=sample_s,
                    initial_capacitor_v=initial_v,
                    faults=spec.faults,
                )
            else:
                net = SlottedNetwork(
                    self._tag_periods,
                    self._factory(),
                    cfg,
                    activation_slot=self.activation_slot,
                    faults=spec.faults,
                )
            stepper: Callable[[], SlotRecord] = net.step
            if spec.supervisor_factory is not None:
                stepper = spec.supervisor_factory(net).step
            self._scalar_nets[spec.name] = net
            self._scalar_steppers.append(stepper)

    def _build_vector_lane(
        self, samples: float, sample_s: float, initial_v: float
    ) -> None:
        vec_specs = [s for s in self.specs if s.vectorizable]
        self._vec_names = [s.name for s in vec_specs]
        self._vec_index = {name: i for i, name in enumerate(self._vec_names)}
        nv = self.n_vector = len(vec_specs)
        self.log = SlotLog()
        if nv == 0:
            return

        slot_gens = []
        offset_gens = []
        for spec in vec_specs:
            streams = RandomStreams(spec.seed)
            slot_gens.append(streams.stream("slots"))
            offset_gens.append(
                [streams.fork(name).stream("offset") for name in self._names]
            )
        self._uniforms = UniformBank(slot_gens)
        self._offsets = OffsetBank(offset_gens, self._periods_list)
        self._capture_cache: Dict[tuple, tuple] = {}
        self._capture_generation = self._medium.channel_generation

        self.tags = TagArrays.allocate(nv, self.n_tags)
        # The state-machine constructor draws each tag's initial offset.
        self._offsets.take_masked(
            np.ones((nv, self.n_tags), dtype=bool), self.tags.offset
        )

        self.reader = BatchReader(
            nv,
            self._names,
            self._periods_list,
            nack_threshold=self.config.nack_threshold,
            enable_empty_flag=self.config.enable_empty_flag,
            enable_future_avoidance=self.config.enable_future_avoidance,
        )

        self._beacon_loss = np.asarray(
            [derive_beacon_loss(self.config, self._medium, n) for n in self._names]
        )
        if not self.config.ideal_channel:
            self._p_success = np.asarray(
                [
                    self._medium.uplink_packet_success(
                        n, self.config.ul_raw_rate_bps
                    )
                    for n in self._names
                ]
            )
        self._activation = np.asarray(
            [self.activation_slot.get(n, 0) for n in self._names], dtype=np.int64
        )

        self.devices = None
        if self._energy:
            from repro.fleet.energy import DeviceArrays

            self.devices = DeviceArrays(
                nv,
                [self._medium.carrier_amplitude_v(n) for n in self._names],
                slot_duration_s=self.config.slot_duration_s,
                ul_raw_rate_bps=self.config.ul_raw_rate_bps,
                sensor_samples_per_slot=samples,
                sensor_sample_duration_s=sample_s,
                initial_capacitor_v=initial_v,
            )
            self.tags.late_arrival[:] = ~self.devices.powered
        else:
            self.tags.late_arrival[:] = self._activation[None, :] > 0

    # -- execution -----------------------------------------------------------

    def step_all(self) -> None:
        """Advance every network in the fleet by one slot."""
        if self.n_vector:
            self._step_vector()
        for stepper in self._scalar_steppers:
            stepper()
        self._slot += 1

    def run(self, n_slots: int) -> None:
        """Advance the whole fleet by ``n_slots`` slots."""
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        for _ in range(n_slots):
            self.step_all()

    def _step_vector(self) -> None:
        slot = self._slot
        # Per slot a network draws at most one loss uniform per tag
        # plus two arbitration uniforms; a tag stream yields at most
        # three protocol re-picks plus one brownout reboot.
        self._uniforms.ensure(self.n_tags + 2)
        self._offsets.ensure(4)

        ack, empty, reset = self.reader.make_beacon(slot)
        if self._energy:
            eligible = self.devices.powered.copy()
            counts = eligible.sum(axis=1)
            ranks = np.cumsum(eligible, axis=1) - 1
            ranks[~eligible] = -1
            u = self._uniforms.take_ranked(ranks, counts)
            lost = eligible & (u < self._beacon_loss[None, :])
        else:
            active = np.nonzero(self._activation <= slot)[0]
            eligible = np.zeros((self.n_vector, self.n_tags), dtype=bool)
            lost = np.zeros((self.n_vector, self.n_tags), dtype=bool)
            if active.size:
                eligible[:, active] = True
                u = self._uniforms.take_grid(active.size)
                lost[:, active] = u < self._beacon_loss[active]

        transmit = self._tag_kernel(eligible, lost, ack, empty, reset)
        n_tx = transmit.sum(axis=1)
        decoded_tid, collision = self._arbitrate(transmit, n_tx)
        acked = self.reader.digest(slot, decoded_tid, collision)
        self.log.append_slot(n_tx, decoded_tid, collision, acked, empty)

        if self._energy:
            browned = self.devices.advance_slot(transmit)
            if browned.any():
                # Mid-slot brownout is a cold boot: fresh offset, fresh
                # counter, rejoin as an EMPTY-gated late arrival.
                t = self.tags
                t.settled[browned] = False
                t.nack_count[browned] = 0
                self._offsets.take_masked(browned, t.offset)
                t.slot_counter[browned] = 0
                t.transmitted_last[browned] = False
                t.ever_settled[browned] = False
                t.late_arrival[browned] = True
        tel = telemetry.active()
        if tel is not None:
            self._emit_telemetry(tel, n_tx, decoded_tid, collision, acked, empty)

    def _tag_kernel(
        self,
        eligible: np.ndarray,
        lost: np.ndarray,
        ack: np.ndarray,
        empty: np.ndarray,
        reset: np.ndarray,
    ) -> np.ndarray:
        """All N networks' tag firmware for one slot; returns the
        transmit matrix.  Phase order matches ``TagMac`` exactly:
        watchdog XOR (feedback -> RESET -> EMPTY gate), so each tag
        stream's draws land in sequential order."""
        t = self.tags
        recv = eligible & ~lost

        if lost.any():
            t.beacons_missed[lost] += 1
            t.transmitted_last[lost] = False
            if self.config.enable_beacon_loss_timer:
                # Watchdog demote: unconditional re-pick (Sec. 5.4).
                t.consecutive_losses[lost] += 1
                t.settled[lost] = False
                t.nack_count[lost] = 0
                t.migrations[lost] += 1
                self._offsets.take_masked(lost, t.offset)

        t.beacons_received[recv] += 1
        t.consecutive_losses[recv] = 0

        fb = recv & t.transmitted_last
        if fb.any():
            fb_ack = fb & ack[:, None]
            fb_nack = fb & ~ack[:, None]
            newly_settled = fb_ack & ~t.settled
            t.settles[newly_settled] += 1
            t.settled[fb_ack] = True
            t.nack_count[fb_ack] = 0
            t.ever_settled[fb_ack] = True
            repick = fb_nack & ~t.settled
            in_settle = fb_nack & t.settled
            t.nack_count[in_settle] += 1
            demote = in_settle & (t.nack_count >= self.config.nack_threshold)
            t.settled[demote] = False
            t.nack_count[demote] = 0
            repick |= demote
            t.migrations[repick] += 1
            self._offsets.take_masked(repick, t.offset)
        t.transmitted_last[recv] = False

        rst = recv & reset[:, None]
        if rst.any():
            t.settled[rst] = False
            self._offsets.take_masked(rst, t.offset)
            t.nack_count[rst] = 0
            t.ever_settled[rst] = False
            t.slot_counter[rst] = 0

        scheduled = recv & (t.slot_counter % self._periods[None, :] == t.offset)
        if self.config.enable_empty_flag:
            is_new = t.late_arrival & ~t.ever_settled
            gate = scheduled & is_new & ~empty[:, None]
            if gate.any():
                # Newcomer deferring to a predicted-busy slot re-rolls
                # instead of transmitting (MIGRATE only).
                g_repick = gate & ~t.settled
                t.migrations[g_repick] += 1
                self._offsets.take_masked(g_repick, t.offset)
            transmit = scheduled & ~gate
        else:
            transmit = scheduled
        t.transmissions[transmit] += 1
        t.transmitted_last[transmit] = True
        t.slot_counter[recv] += 1
        return transmit

    def _arbitrate(self, transmit: np.ndarray, n_tx: np.ndarray):
        """Receive-chain verdict per network: (decoded tid | -1, collision)."""
        nv = self.n_vector
        decoded_tid = np.full(nv, -1, dtype=np.int64)
        collision = np.zeros(nv, dtype=bool)
        single = n_tx == 1
        if self.config.ideal_channel:
            if single.any():
                rows = np.nonzero(single)[0]
                decoded_tid[rows] = np.argmax(transmit[rows], axis=1)
            collision = n_tx > 1
            return decoded_tid, collision
        if single.any():
            rows = np.nonzero(single)[0]
            tids = np.argmax(transmit[rows], axis=1)
            u = self._uniforms.take_rows(rows)
            ok = u < self._p_success[tids]
            decoded_tid[rows[ok]] = tids[ok]
        multi = n_tx >= 2
        if multi.any():
            # Capture arbitration compares a log-domain amplitude gap
            # against a threshold — a last-ulp-sensitive comparison that
            # must stay bit-identical to ``observe_slot``.  The gap and
            # success probability are pure functions of the transmitter
            # set, so each distinct set is resolved through observe_slot
            # once (via the row-RNG shim) and memoised; repeats replay
            # the cached verdict against fresh draws.
            for n in np.nonzero(multi)[0]:
                key = tuple(np.nonzero(transmit[n])[0].tolist())
                entry = self._capture_cache.get(key)
                if entry is None:
                    entry = self._resolve_capture(key)
                    self._capture_cache[key] = entry
                capture_tid, success = entry
                row = int(n)
                if capture_tid >= 0:
                    if self._uniforms.take_scalar(row) < success:
                        decoded_tid[n] = capture_tid
                collision[n] = (
                    self._uniforms.take_scalar(row)
                    < CLUSTER_DETECTION_PROBABILITY
                )
        return decoded_tid, collision

    def _resolve_capture(self, tids) -> tuple:
        """One transmitter set's constant arbitration parameters:
        (capturable tid | -1, its packet-success probability), taken
        from a single sequential ``observe_slot`` call.  A probe RNG
        that never decodes tells us whether the capture branch was
        taken (two draws) or not (one draw)."""
        if self._medium.channel_generation != self._capture_generation:
            self._capture_cache.clear()
            self._capture_generation = self._medium.channel_generation
        names = [self._names[t] for t in tids]
        draws: List[float] = []

        class _Probe:
            def random(probe) -> float:  # noqa: N805 - shim
                draws.append(0.0)
                return 2.0  # never below any probability: no decode

        obs = self._medium.observe_slot(
            names, _Probe(), bit_rate_bps=self.config.ul_raw_rate_bps
        )
        assert obs.decoded_tag is None
        if len(draws) < 2:
            return (-1, 0.0)
        # Capture branch taken: recover the strongest tag and its
        # success probability exactly as observe_slot derived them.
        amplitudes = {n: self._medium.backscatter_amplitude_v(n) for n in names}
        strongest = max(names, key=lambda n: amplitudes[n])
        success = self._medium.uplink_packet_success(
            strongest, self.config.ul_raw_rate_bps
        )
        return (self._tid_by_name[strongest], success)

    def _emit_telemetry(self, tel, n_tx, decoded_tid, collision, acked, empty):
        """Aggregate the slot's counters into the active registry.

        Metric names match the sequential tier's; values are summed
        over the vector lane (counters only, so cross-process merges
        stay order-independent).
        """
        tel.inc("mac.slots", self.n_vector)
        idle = int((n_tx == 0).sum())
        if idle:
            tel.inc("mac.idle_slots", idle)
        col = int(collision.sum())
        if col:
            tel.inc("mac.collisions", col)
        emp = int(empty.sum())
        if emp:
            tel.inc("mac.empty_flags", emp)
        dec = decoded_tid >= 0
        n_dec = int(dec.sum())
        if n_dec:
            tel.inc("mac.decodes", n_dec)
            n_ack = int((dec & acked).sum())
            if n_ack:
                tel.inc("mac.acks", n_ack)
            per_ack = np.bincount(
                decoded_tid[dec & acked], minlength=self.n_tags
            )
            per_nack = np.bincount(
                decoded_tid[dec & ~acked], minlength=self.n_tags
            )
            for tid, name in enumerate(self._names):
                if per_ack[tid]:
                    tel.inc("mac.tag.acked", int(per_ack[tid]), tag=name)
                if per_nack[tid]:
                    tel.inc("mac.tag.nacked", int(per_nack[tid]), tag=name)
        if self.reader.commits_this_slot:
            tel.inc("mac.reader.commits", self.reader.commits_this_slot)
        if self.reader.evictions_this_slot:
            tel.inc("mac.reader.evictions", self.reader.evictions_this_slot)

    # -- control -------------------------------------------------------------

    def request_reset(self, names: Optional[Sequence[str]] = None) -> None:
        """Broadcast RESET in the selected networks' next beacons
        (all networks when ``names`` is None)."""
        targets = list(names) if names is not None else [s.name for s in self.specs]
        mask = np.zeros(max(self.n_vector, 1), dtype=bool)
        for name in targets:
            if name in self._vec_index:
                mask[self._vec_index[name]] = True
            elif name in self._scalar_nets:
                self._scalar_nets[name].reset()
            else:
                raise KeyError(f"unknown network {name!r}")
        if self.n_vector and mask.any():
            self.reader.request_reset(mask[: self.n_vector])

    # -- results -------------------------------------------------------------

    @property
    def slots_elapsed(self) -> int:
        return self._slot

    def records(self, name: str) -> List[SlotRecord]:
        """One network's slot log, as sequential-tier ``SlotRecord``s."""
        if name in self._scalar_nets:
            return self._scalar_nets[name].records
        row = self._vec_index.get(name)
        if row is None:
            raise KeyError(f"unknown network {name!r}")
        out: List[SlotRecord] = []
        for slot in range(len(self.log)):
            d = int(self.log.decoded_tid[slot][row])
            out.append(
                SlotRecord(
                    slot=slot,
                    n_transmitters=int(self.log.n_transmitters[slot][row]),
                    decoded=self._names[d] if d >= 0 else None,
                    collision_detected=bool(self.log.collision[slot][row]),
                    acked=bool(self.log.acked[slot][row]),
                    empty_flag=bool(self.log.empty_flag[slot][row]),
                )
            )
        return out

    def scalar_network(self, name: str) -> SlottedNetwork:
        """The embedded sequential network behind a scalar-lane spec
        (faulted or supervised) — e.g. to inspect a faulted energy
        network's per-tag ``energy_log``.  Raises for vector-lane
        specs, whose state lives in the SoA arrays instead."""
        if name not in self._scalar_nets:
            raise KeyError(f"{name!r} is not a scalar-lane network")
        return self._scalar_nets[name]

    def settled_fraction(self, name: str) -> float:
        """Fraction of activated tags currently settled, per network."""
        if name in self._scalar_nets:
            return self._scalar_nets[name].settled_fraction()
        row = self._vec_index[name]
        if self._energy:
            active = np.ones(self.n_tags, dtype=bool)
        else:
            active = self._activation <= self._slot
        n_active = int(active.sum())
        if not n_active:
            return 0.0
        return int(self.tags.settled[row, active].sum()) / n_active

    def summary(self, name: str) -> Dict[str, object]:
        """Deterministic per-network scorecard (runner result rows)."""
        records = self.records(name)
        decodes = sum(1 for r in records if r.decoded is not None)
        acks = sum(1 for r in records if r.acked)
        collisions = sum(1 for r in records if r.collision_detected)
        idle = sum(1 for r in records if r.n_transmitters == 0)
        return {
            "network": name,
            "slots": len(records),
            "decodes": decodes,
            "acks": acks,
            "collisions": collisions,
            "idle_slots": idle,
            "settled_fraction": self.settled_fraction(name),
        }

    def summaries(self) -> List[Dict[str, object]]:
        """Scorecards for every network, in spec order."""
        return [self.summary(spec.name) for spec in self.specs]

    def aggregate_tag_slots(self) -> int:
        """Total (network x tag x slot) work units stepped so far."""
        return self._slot * self.n_networks * self.n_tags
