"""The fleet engine: N slot-tier networks, one vectorised step.

:class:`FleetEngine` holds N independent deployments of one BiW
scenario (same tag roster, periods, channel and protocol config;
different seeds) and advances all of them one slot per
:meth:`step_all` call, or many per :meth:`run`.  Every network is a
plain one, stepped over structure-of-arrays state
(:class:`~repro.fleet.state.TagArrays`,
:class:`~repro.fleet.reader.BatchReader`, block-buffered RNG banks)
by one compiled call for any number of slots
(:func:`repro.phy.kernels.fleet_run`) or by the numpy step it
reproduces.  A network with a fault schedule or a resilience
supervisor runs as its own
:class:`~repro.core.network.SlottedNetwork` or
:class:`~repro.resilience.supervisor.NetworkSupervisor`.

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

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.channel.medium import CLUSTER_DETECTION_PROBABILITY, AcousticMedium
from repro.core.network import NetworkConfig, derive_beacon_loss, slot_count
from repro.core.reader_protocol import SlotRecord
from repro.fleet.reader import BatchReader
from repro.fleet.rng import OffsetBank, UniformBank
from repro.fleet.state import FleetSpec, SlotLog, TagArrays
from repro.phy import kernels
from repro.sim.random import RandomStreams


class FleetEngine:
    """Step a fleet of identical-scenario networks in lockstep.

    Parameters
    ----------
    tag_periods:
        Shared tag roster (name -> period), as for ``SlottedNetwork``.
    specs:
        One :class:`~repro.fleet.state.FleetSpec` per network.
    config:
        Shared :class:`NetworkConfig`; its ``seed`` field is ignored —
        each network uses its spec's seed.
    activation_slot:
        Shared staggered-activation map (plain mode only).
    medium:
        The shared channel.  Defaults to a fresh ``AcousticMedium``.
    energy:
        Run every network as an
        :class:`~repro.core.energy_network.EnergyAwareNetwork`: live
        supercapacitor accounting gates participation, and brownouts
        cold-boot the MAC.  Incompatible with ``activation_slot``
        (activation emerges from the physics).
    """

    #: Keys of a :meth:`summary` scorecard, in order.
    SUMMARY_KEYS = (
        "network",
        "slots",
        "decodes",
        "acks",
        "collisions",
        "idle_slots",
        "settled_fraction",
    )

    def __init__(
        self,
        tag_periods,
        specs: Sequence[FleetSpec],
        config: Optional[NetworkConfig] = None,
        activation_slot=None,
        medium: Optional[AcousticMedium] = None,
        energy: bool = False,
        sensor_samples_per_slot: float = 0.0,
        sensor_sample_duration_s: float = 1.0e-3,
        initial_capacitor_v: float = 0.0,
    ) -> None:
        if not tag_periods:
            raise ValueError("need at least one tag")
        if not specs:
            raise ValueError("need at least one network")
        self._rows: Dict[str, int] = {}
        for row, spec in enumerate(specs):
            if spec.name in self._rows:
                raise ValueError(f"duplicate network name {spec.name!r}")
            self._rows[spec.name] = row
        self.config = config if config is not None else NetworkConfig()
        self.specs = list(specs)
        self._medium = medium if medium is not None else AcousticMedium()
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

        self._slot = 0
        self._build_vector_lane(
            sensor_samples_per_slot, sensor_sample_duration_s, initial_capacitor_v
        )

    # -- construction --------------------------------------------------------

    def _build_vector_lane(
        self, samples: float, sample_s: float, initial_v: float
    ) -> None:
        nv = self.n_networks
        self.log = SlotLog(nv)
        # run_until_converged's per-network tally: the collision-free
        # streak, and the slot count at which it first reached the
        # run's streak (-1 until then).  Updated in place, like every
        # array the compiled step points at.
        self._clean_streak = np.zeros(nv, dtype=np.int64)
        self._converged_at = np.full(nv, -1, dtype=np.int64)

        slot_seeds = []
        offset_seeds = []
        for spec in self.specs:
            streams = RandomStreams(spec.seed)
            slot_seeds.append(streams.seed_of("slots"))
            offset_seeds.append(
                [streams.fork(name).seed_of("offset") for name in self._names]
            )
        self._uniforms = UniformBank(slot_seeds)
        self._offsets = OffsetBank(offset_seeds, self._periods_list)
        self._capture_cache: Dict[tuple, tuple] = {}
        self._capture_generation = self._medium.channel_generation
        # The compiled step's copy of the capture verdicts, indexed by
        # transmitter bitmask: tid (-1 none, -2 unresolved), probability.
        fits = self.n_tags <= kernels.MAX_FLEET_TAGS
        table_size = 1 << self.n_tags if fits else 0
        self._capture_tid = np.full(table_size, -2, dtype=np.int64)
        self._capture_p = np.zeros(table_size)
        self._compiled_stepper = None

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
            [derive_beacon_loss(self.config, self._medium, n) for n in self._names],
            dtype=np.float64,
        )
        # The ideal channel decodes a lone transmitter without a draw.
        self._p_success = np.zeros(self.n_tags)
        if not self.config.ideal_channel:
            self._p_success[:] = [
                self._medium.uplink_packet_success(n, self.config.ul_raw_rate_bps)
                for n in self._names
            ]
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
        kernels.fleet_run(self, 1)

    def run(self, n_slots: int) -> None:
        """Advance the whole fleet by ``n_slots`` slots through
        :func:`repro.phy.kernels.fleet_run`, leaving the state as many
        :meth:`step_all` calls leave."""
        kernels.fleet_run(self, slot_count(n_slots, "n_slots"))

    def run_until_converged(
        self, streak: int = 32, max_slots: int = 200_000
    ) -> Dict[str, Optional[int]]:
        """Step every network until each has seen ``streak``
        consecutive collision-free slots, or ``max_slots`` slots pass.

        Returns each network's first-convergence time, counted from
        this call as :meth:`SlottedNetwork.run_until_converged
        <repro.core.network.SlottedNetwork.run_until_converged>` counts
        it: the slots up to and including the one completing its
        streak, or None within ``max_slots``.  The networks step in
        lockstep, so one that converged keeps stepping until the last
        one does; a one-network engine stops on its network's slot,
        leaving the state that network's sequential run leaves.
        """
        streak = slot_count(streak, "streak")
        max_slots = slot_count(max_slots, "max_slots")
        start = self._slot
        self._clean_streak.fill(0)
        self._converged_at.fill(-1)
        kernels.fleet_run(self, max_slots, streak)
        return {
            spec.name: slot - start if slot >= 0 else None
            for spec, slot in zip(self.specs, self._converged_at.tolist())
        }

    def _track_streak(self, row: int, streak: int) -> bool:
        """Update every network's collision-free streak from
        log ``row``, the slot just run; a network reaching ``streak``
        for the first time records the slot count.  Returns whether
        every network has converged."""
        clean = self._clean_streak
        clean += 1
        clean[self.log.buffers()[2][row]] = 0
        self._converged_at[(clean >= streak) & (self._converged_at < 0)] = self._slot
        return bool((self._converged_at >= 0).all())

    @property
    def energy(self) -> bool:
        """Whether the networks run the energy tier's physics."""
        return self._energy

    def _run_numpy(self, n_slots: int, streak: int) -> int:
        """Up to ``n_slots`` numpy steps, tracking and stopping on
        convergence for ``streak`` > 0: the reference the compiled
        :func:`~repro.phy.kernels.fleet_run` reproduces."""
        for done in range(1, n_slots + 1):
            self._step_numpy()
            self._slot += 1
            if streak and self._track_streak(len(self.log) - 1, streak):
                return done
        return n_slots

    def _refill_banks(self) -> None:
        # Per slot a network draws at most one loss uniform per tag
        # plus two arbitration uniforms; a tag stream yields at most
        # three protocol re-picks plus one brownout reboot.
        self._uniforms.ensure(self.n_tags + 2)
        self._offsets.ensure(4)

    def _step_numpy(self) -> None:
        """One slot of every network as numpy array operations: the
        reference the compiled :func:`~repro.phy.kernels.fleet_run`
        reproduces slot for slot."""
        slot = self._slot
        self._refill_banks()

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
            eligible = np.zeros((self.n_networks, self.n_tags), dtype=bool)
            lost = np.zeros((self.n_networks, self.n_tags), dtype=bool)
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
        decoded_tid = np.full(self.n_networks, -1, dtype=np.int64)
        collision = np.zeros(self.n_networks, dtype=bool)
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
                capture_tid, success = self._capture_entry(key)
                row = int(n)
                if capture_tid >= 0:
                    if self._uniforms.take_scalar(row) < success:
                        decoded_tid[n] = capture_tid
                collision[n] = (
                    self._uniforms.take_scalar(row)
                    < CLUSTER_DETECTION_PROBABILITY
                )
        return decoded_tid, collision

    def _capture_entry(self, key: tuple) -> tuple:
        """The memoised capture verdict of a transmitter set (sorted
        tids)."""
        entry = self._capture_cache.get(key)
        if entry is None:
            entry = self._resolve_capture(key)
            self._capture_cache[key] = entry
        return entry

    def _resolve_mask(self, mask: int) -> None:
        """Fill the compiled step's verdict for a transmitter bitmask."""
        key = tuple(t for t in range(self.n_tags) if mask >> t & 1)
        self._capture_tid[mask], self._capture_p[mask] = self._capture_entry(key)

    def _resolve_capture(self, tids) -> tuple:
        """One transmitter set's constant arbitration parameters:
        (capturable tid | -1, its packet-success probability), taken
        from a single sequential ``observe_slot`` call.  A probe RNG
        that never decodes tells us whether the capture branch was
        taken (two draws) or not (one draw)."""
        if self._medium.channel_generation != self._capture_generation:
            self._capture_cache.clear()
            self._capture_tid.fill(-2)
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

    def _close_compiled_slot(self, row: int, commits: int, evictions: int) -> None:
        """The compiled step's bookkeeping after it wrote log ``row``."""
        self.reader.commits_this_slot = commits
        self.reader.evictions_this_slot = evictions
        tel = telemetry.active()
        if tel is not None:
            self._emit_telemetry(tel, *(column[row] for column in self.log.buffers()))

    def _emit_telemetry(self, tel, n_tx, decoded_tid, collision, acked, empty):
        """Aggregate the slot's counters into the active registry.

        Metric names match the sequential tier's; values are summed
        over the fleet (counters only, so cross-process merges stay
        order-independent).
        """
        tel.inc("mac.slots", self.n_networks)
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
        rows = slice(None) if names is None else [self._vector_row(n) for n in names]
        mask = np.zeros(self.n_networks, dtype=bool)
        mask[rows] = True
        self.reader.request_reset(mask)

    # -- results -------------------------------------------------------------

    @property
    def slots_elapsed(self) -> int:
        return self._slot

    def _vector_row(self, name: str) -> int:
        row = self._rows.get(name)
        if row is None:
            raise KeyError(f"unknown network {name!r}")
        return row

    def records(self, name: str) -> List[SlotRecord]:
        """One network's slot log, as a fresh list of sequential-tier
        ``SlotRecord``s."""
        row = self._vector_row(name)
        log = self.log
        # Tid -1 (nothing decoded) indexes the trailing None.
        decoded = map((self._names + [None]).__getitem__, log.decoded_tid[:, row].tolist())
        return list(
            map(
                SlotRecord,
                range(len(log)),
                log.n_transmitters[:, row].tolist(),
                decoded,
                log.collision[:, row].tolist(),
                log.acked[:, row].tolist(),
                log.empty_flag[:, row].tolist(),
            )
        )

    def settled_fraction(self, name: str) -> float:
        """Fraction of activated tags currently settled, per network."""
        row = self._vector_row(name)
        return self._settled_fractions(slice(row, row + 1))[0]

    def _settled_fractions(self, rows: slice) -> List[float]:
        """Settled fraction of each network in ``rows``."""
        if self._energy:
            active = np.ones(self.n_tags, dtype=bool)
        else:
            active = self._activation <= self._slot
        n_active = int(active.sum())
        settled = self.tags.settled[rows][:, active].sum(axis=1).tolist()
        return [count / n_active if n_active else 0.0 for count in settled]

    def summary(self, name: str) -> Dict[str, object]:
        """Deterministic per-network scorecard (runner result rows)."""
        row = self._vector_row(name)
        return self._vector_summaries(slice(row, row + 1))[0]

    def _vector_summaries(self, rows: slice) -> List[Dict[str, object]]:
        """Scorecards of the networks in ``rows``: each tally is one
        reduction over their slot-log columns."""
        log = self.log
        tallies = (
            (log.decoded_tid[:, rows] >= 0).sum(axis=0),
            log.acked[:, rows].sum(axis=0),
            log.collision[:, rows].sum(axis=0),
            (log.n_transmitters[:, rows] == 0).sum(axis=0),
        )
        return [
            dict(zip(self.SUMMARY_KEYS, (spec.name, len(log), *values)))
            for spec, *values in zip(
                self.specs[rows],
                *(t.tolist() for t in tallies),
                self._settled_fractions(rows),
            )
        ]

    def summaries(self) -> List[Dict[str, object]]:
        """Scorecards for every network, in spec order."""
        return self._vector_summaries(slice(None))

    def aggregate_tag_slots(self) -> int:
        """Total (network x tag x slot) work units stepped so far."""
        return self._slot * self.n_networks * self.n_tags
