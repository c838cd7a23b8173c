"""Slot-level network with multi-hop tag-to-tag relaying.

:class:`RelaySlottedNetwork` extends the base simulator with engaged
relay routes: a junction-shadowed source's transmissions are diverted
into a chain of healthy relays over T2T links, buffered one frame at a
time, and forwarded to the reader in a granted slot (cut-through: a
frame advances as many chain hops as succeed within one granted slot).
The source keeps its own slot cadence and learns each frame's fate
through *relay-aware ACK semantics*: the first-hop T2T outcome
overrides the broadcast ACK bit of its next beacon, so its MAC state
machine settles exactly as if the reader had heard it.

The network runs the base slot loop unchanged and hooks in through its
seams: a slot-opening check that retires routes whose grant vanished,
each engaged source's MAC (a :class:`~repro.core.tag_protocol.TagUplinkHook`
that applies the T2T ACK override and diverts frames into the chain),
and, once the first route engages, the forwarding block ahead of
:meth:`_observe` and decode attribution plus delivery credit around
:meth:`_close_slot`.

Zero-cost-when-off contract: until a route engages, the forwarding
seams are the base implementations and the slot-opening check is one
falsy-dict test — no relay RNG stream is ever created, no extra draws
occur, and slot logs are byte-identical to a plain
:class:`SlottedNetwork`.  The differential tests and the bench_smoke
relay gate pin this.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.channel.medium import SlotObservation
from repro.core.network import SlottedNetwork
from repro.core.reader_protocol import SlotRecord
from repro.core.tag_protocol import TagMac
from repro.phy.packets import DownlinkBeacon
from repro.relay.budget import RelayTable
from repro.relay.mac import (
    DEFAULT_MAX_FORWARD_ATTEMPTS,
    DEFAULT_PROBE_EVERY,
    RelayReaderMac,
    RelayRoute,
)


class RelaySlottedNetwork(SlottedNetwork):
    """A :class:`SlottedNetwork` whose tags can forward for each other."""

    def __init__(
        self,
        *args,
        relaying_enabled: bool = True,
        relay_table: Optional[RelayTable] = None,
        probe_every: int = DEFAULT_PROBE_EVERY,
        max_forward_attempts: int = DEFAULT_MAX_FORWARD_ATTEMPTS,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if probe_every < 0:
            raise ValueError("probe_every must be >= 0 (0 disables probing)")
        if max_forward_attempts < 1:
            raise ValueError("need at least one forwarding attempt")
        # Swap in the relay-capable reader.  With no grants outstanding
        # it is behaviourally identical to the base ReaderMac, so the
        # relay-off slot logs stay byte-identical.
        self.reader = RelayReaderMac(
            self.reader.tag_periods,
            nack_threshold=self.config.nack_threshold,
            enable_empty_flag=self.config.enable_empty_flag,
            enable_future_avoidance=self.config.enable_future_avoidance,
        )
        self.relaying_enabled = relaying_enabled
        self.relay_table = relay_table
        self.probe_every = probe_every
        self.max_forward_attempts = max_forward_attempts
        #: Engaged routes, keyed by source tag.  Empty on the normal
        #: path — the per-slot cost of the subsystem is one falsy test.
        self.routes: Dict[str, RelayRoute] = {}
        #: Human-readable event log: (slot, kind, source, detail).
        self.relay_log: List[Tuple[int, str, str, str]] = []
        # First-hop T2T verdicts awaiting delivery to their source on
        # its next received beacon (relay-aware ACK override).
        self._pending_t2t_ack: Dict[str, bool] = {}
        # Created lazily on first engage so the relay-off path never
        # instantiates the stream (RNG-stream parity with the seed).
        self._relay_rng = None
        # This slot's forwards: terminal relay -> source it carries.
        self._forwards: Dict[str, str] = {}

    # -- route management ---------------------------------------------------

    def engage_route(
        self,
        source: str,
        chain: Optional[Sequence[str]] = None,
        exclude: Iterable[str] = (),
    ) -> Optional[RelayRoute]:
        """Engage a relay route for ``source``: pick a chain (unless one
        is given), reserve a forwarding grant, and release the source's
        direct commitment.  Returns the route, or None when relaying is
        disabled, no admissible chain exists, or the schedule has no
        free pattern for the grant.
        """
        if source not in self.tags:
            raise KeyError(f"tag {source!r} is not part of this network")
        if source in self.routes:
            raise ValueError(f"{source!r} already has an engaged route")
        if not self.relaying_enabled:
            return None
        if self.relay_table is None:
            self.relay_table = RelayTable(
                self.medium, bit_rate_bps=self.config.ul_raw_rate_bps
            )
        reader = self.reader
        if chain is None:
            excluded = set(exclude)
            terminals = [
                t
                for t in sorted(reader.committed_assignments)
                if t != source and t not in self.routes
            ]
            intermediates = [t for t in sorted(self.tags) if t != source]
            chain = self.relay_table.route_for(
                source, terminals, intermediates, exclude=excluded
            )
            if chain is None:
                return None
        else:
            chain = tuple(chain)
            if not chain or source in chain or len(set(chain)) != len(chain):
                raise ValueError(f"invalid relay chain {chain!r}")
            for relay in chain:
                if relay not in self.tags:
                    raise KeyError(f"relay {relay!r} is not part of this network")
        offset = reader.grant_forwarding(source)
        if offset is None:
            return None
        reader.release_assignment(source)
        if self._relay_rng is None:
            self._relay_rng = self._streams.stream("relay")
        route = RelayRoute(
            source=source,
            chain=tuple(chain),
            period=reader.tag_periods[source],
            grant_offset=offset,
            engaged_slot=reader.slot_index,
            probe_every=self.probe_every,
            max_forward_attempts=self.max_forward_attempts,
        )
        self.routes[source] = route
        self.tags[source].attach_uplink(self)
        # Install the forwarding seams here, not in __init__: a network
        # that never relays runs the base seams, with no wrapper frame
        # per slot (the bench_smoke relay-off gate) and no bound method
        # of itself in its own __dict__, a reference cycle that would
        # leave it and its slot log to the cyclic collector.
        self._observe = self._forwarding_observe
        self._close_slot = self._forwarding_close_slot
        tel = telemetry.active()
        if tel is not None:
            tel.inc("relay.engaged", tag=source)
            tel.observe("relay.hops", route.hops, tag=source)
        self._emit_relay(
            reader.slot_index,
            "relay.engage",
            source,
            "via " + ">".join(route.chain) + f" @+{offset}",
        )
        return route

    def release_route(self, source: str, reason: str = "released") -> bool:
        """Tear down ``source``'s route: drop the forwarding grant, the
        in-flight frame, and any pending T2T verdict.  Returns True when
        a route existed."""
        route = self.routes.pop(source, None)
        if route is None:
            return False
        self.reader.release_forwarding(source)
        self.tags[source].attach_uplink(None)
        self._pending_t2t_ack.pop(source, None)
        tel = telemetry.active()
        if tel is not None:
            tel.inc("relay.released", tag=source)
        self._emit_relay(self.reader.slot_index, "relay.release", source, reason)
        return True

    def _emit_relay(self, slot: int, kind: str, source: str, detail: str) -> None:
        self.relay_log.append((slot, kind, source, detail))
        if self._faults is not None:
            self._faults.trace.emit(
                float(slot), kind, "relay", tag=source, detail=detail
            )

    # -- slot seams ----------------------------------------------------------

    def _open_slot(self) -> None:
        routes = self.routes
        if not routes:
            return
        # A reader restart or RESET wiped the grant table: the routes it
        # backed are gone; self-release them (the fallback policy will
        # re-engage once the shadowed links are re-detected).
        grants = self.reader._forward_grants
        for source in [s for s in sorted(routes) if s not in grants]:
            self.release_route(source, "grant_lost")

    def feedback(self, tag: TagMac, beacon: DownlinkBeacon) -> DownlinkBeacon:
        """Relay-aware ACK (engaged sources only): the source's last
        frame went into its chain, so the broadcast ACK bit refers to
        other traffic; substitute the first-hop T2T outcome.  A verdict
        the source never hears (lost beacon, dark MCU) is discarded
        here too — with ``transmitted_last_slot`` cleared it is moot."""
        t2t_ack = self._pending_t2t_ack.pop(tag.tag_name, None)
        if t2t_ack is not None and tag.transmitted_last_slot:
            return DownlinkBeacon(
                ack=t2t_ack,
                empty=beacon.empty,
                reset=beacon.reset,
                reserved=beacon.reserved,
            )
        return beacon

    def to_reader(self, tag: TagMac) -> bool:
        """An engaged source transmits: only a periodic direct probe
        goes to the reader; every other frame is diverted into the
        chain and its first-hop outcome becomes the source's ACK."""
        name = tag.tag_name
        route = self.routes[name]
        route.tx_count += 1
        if route.probe_every > 0 and route.tx_count % route.probe_every == 0:
            # Periodic direct probe: recovery of the direct link must
            # stay observable.  Its verdict rides the real beacon ACK.
            return True
        slot = self.reader.slot_index
        if slot % route.period == route.grant_offset:
            # The chain is busy forwarding in its granted slot — the
            # first relay cannot receive a new frame.  The deterministic
            # NACK walks a source that settled on the grant offset to a
            # free one, keeping probes distinguishable from forwards.
            self._pending_t2t_ack[name] = False
            return False
        ctl = self._faults
        ok = False
        if ctl is None or ctl.transmit_allowed(name):
            ok = self._hop_into_chain(slot, route)
        self._pending_t2t_ack[name] = ok
        return False

    def _forwarding_observe(self, transmitters: List[str]) -> SlotObservation:
        """:meth:`_observe` with this slot's forwards added (installed
        by :meth:`engage_route`)."""
        routes = self.routes
        if routes:
            # Forwarding in granted slots (cut-through).
            slot = self.reader.slot_index
            for source in sorted(routes):
                route = routes[source]
                if not route.buffered or slot % route.period != route.grant_offset:
                    continue
                relay_name = self._advance_chain(slot, route, transmitters)
                if relay_name is not None:
                    self._forwards[relay_name] = source
                    transmitters.append(relay_name)
        return super()._observe(transmitters)

    def _forwarding_close_slot(self, observation: SlotObservation) -> SlotRecord:
        """:meth:`_close_slot` with relayed decodes attributed to their
        sources (installed by :meth:`engage_route`)."""
        forwards = self._forwards
        if not forwards:
            return super()._close_slot(observation)
        self._forwards = {}
        if observation.decoded_tag in forwards:
            # The decoded frame is relayed traffic: the payload (and
            # TID) are the source's, so attribute the decode to it.
            observation = SlotObservation(
                observation.transmitters,
                forwards[observation.decoded_tag],
                observation.collision_detected,
            )
        record = super()._close_slot(observation)
        for relay_name in sorted(forwards):
            route = self.routes.get(forwards[relay_name])
            if route is None:
                continue
            if record.decoded == route.source and record.acked:
                self._credit_delivery(record.slot, route)
            else:
                self._forward_failed(record.slot, route, relay_name)
        return record

    # -- chain mechanics ----------------------------------------------------

    def _hop_into_chain(self, slot: int, route: RelayRoute) -> bool:
        """First hop: the source's frame crosses the T2T link to the
        first relay.  Returns the hop outcome — the source's relay-aware
        ACK for this frame."""
        tel = telemetry.active()
        if route.buffered:
            # One frame in flight per route: the previous frame is still
            # working its way down the chain.  NACK so the source
            # retransmits next period (simple backpressure).
            if tel is not None:
                tel.inc("relay.backpressure", tag=route.source)
            return False
        first = route.chain[0]
        ctl = self._faults
        if ctl is not None and ctl.tag_offline(first):
            # The first relay is dark (relay brownout mid-route): the
            # frame is lost on arrival.
            route.failed_streak += 1
            route.last_failed_relay = first
            if tel is not None:
                tel.inc("relay.forward_failures", tag=route.source)
            return False
        if self._relay_rng.random() < self.relay_table.t2t_success(
            route.source, first
        ):
            route.buffered = True
            route.buffer_position = 0
            route.buffered_slot = slot
            route.forward_attempts = 0
            return True
        return False

    def _advance_chain(
        self, slot: int, route: RelayRoute, transmitters: List[str]
    ) -> Optional[str]:
        """Advance the buffered frame along the chain in its granted
        slot (cut-through: as many hops as succeed).  Returns the
        terminal relay's name when the frame reaches it and it transmits
        to the reader this slot, else None."""
        ctl = self._faults
        rng = self._relay_rng
        last = len(route.chain) - 1
        while True:
            holder = route.chain[route.buffer_position]
            if ctl is not None and ctl.tag_offline(holder):
                # Relay brownout mid-route: the frame's holder is dark.
                self._forward_failed(slot, route, holder)
                return None
            if route.buffer_position == last:
                if holder in transmitters:
                    # The terminal relay's own frame occupies this slot;
                    # the forward waits for the next granted slot.
                    return None
                if ctl is not None and not ctl.transmit_allowed(holder):
                    self._forward_failed(slot, route, holder)
                    return None
                return holder
            nxt = route.chain[route.buffer_position + 1]
            if ctl is not None and ctl.tag_offline(nxt):
                self._forward_failed(slot, route, nxt)
                return None
            if rng.random() < self.relay_table.t2t_success(holder, nxt):
                route.buffer_position += 1
                continue
            self._forward_failed(slot, route, holder)
            return None

    def _forward_failed(self, slot: int, route: RelayRoute, relay: str) -> None:
        route.forward_attempts += 1
        route.failed_streak += 1
        route.last_failed_relay = relay
        tel = telemetry.active()
        if tel is not None:
            tel.inc("relay.forward_failures", tag=route.source)
        if route.forward_attempts >= route.max_forward_attempts:
            route.buffered = False
            route.buffer_position = 0
            route.forward_attempts = 0
            route.dropped += 1
            if tel is not None:
                tel.inc("relay.dropped", tag=route.source)
            self._emit_relay(slot, "relay.drop", route.source, f"at {relay}")

    def _credit_delivery(self, slot: int, route: RelayRoute) -> None:
        route.buffered = False
        route.buffer_position = 0
        route.forward_attempts = 0
        route.failed_streak = 0
        route.delivered += 1
        tel = telemetry.active()
        if tel is not None:
            tel.inc("relay.delivered", tag=route.source)
            tel.observe(
                "relay.delivery_latency_slots",
                slot - route.buffered_slot,
                tag=route.source,
            )
        if route.first_delivery_slot is None:
            route.first_delivery_slot = slot
            if tel is not None:
                tel.observe(
                    "relay.rescue_latency_slots",
                    slot - route.engaged_slot,
                    tag=route.source,
                )
        self._emit_relay(slot, "relay.deliver", route.source, route.terminal)
