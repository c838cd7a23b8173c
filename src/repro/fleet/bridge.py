"""Converge a plain slot-tier network on the compiled fleet lane.

:meth:`SlottedNetwork.run_until_converged
<repro.core.network.SlottedNetwork.run_until_converged>` hands a fresh,
plain network here when the ``cext`` kernel backend is active.
:func:`run_until_converged` builds a one-network
:class:`~repro.fleet.engine.FleetEngine` from the network's roster,
config, activation map and channel, runs
:meth:`FleetEngine.run_until_converged
<repro.fleet.engine.FleetEngine.run_until_converged>` (one compiled
call per bank refill, not one Python slot each), and writes the
engine's final state back into the network's own objects:

* the slot log, appended in place to ``net.records`` and
  ``net.reader.records`` (the same record objects in both, as the loop
  appends them);
* every :class:`~repro.core.tag_protocol.TagMac` and
  :class:`~repro.core.state_machine.TagStateMachine` field that
  :class:`~repro.fleet.state.TagArrays` mirrors;
* the reader's slot index, pending ACK and RESET, last EMPTY flag,
  appeared set, commitment and eviction ledgers (their entries, in tid
  order), and its decode and collision history over the last
  ``2 * max(period)`` slots, in slot order;
* the random streams: the ``"slots"`` generator takes the uniform
  bank's PCG64 state and ``_slot_rng`` serves the bank's unread draws
  before it; each tag's offset picker is rebuilt the same way from its
  offset stream.

The network then holds what the Python slot loop would have left, and
:meth:`~repro.core.network.SlottedNetwork.step` continues exactly as
if the loop had run (``tests/fleet/test_bridge.py`` compares both
state for state, then 600 more slots).

:func:`decline_reason` names why a network must keep the Python loop,
or returns None: the compiled ``fleet_run`` is not the active backend,
telemetry is active (the loop emits per-slot counters), the network is
not a plain ``SlottedNetwork``, it has a fault schedule, a parked tag,
an uplink plan, a rate controller or a tag with a recovery or uplink
hook, its roster is wider than
:data:`~repro.phy.kernels.MAX_FLEET_TAGS`, or it is not fresh: a slot
was stepped, a RESET is pending, a tag field is off its constructed
value, the ``"slots"`` generator has moved off its seeded state, or the
beacon-loss table no longer matches the channel.  Direct pokes at a
tag's state machine before the first slot (its offset, or its picker)
are outside the contract: nothing checks for them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import telemetry
from repro.core.network import SlottedNetwork, derive_beacon_loss
from repro.core.state_machine import TagState
from repro.fleet.engine import FleetEngine
from repro.fleet.state import FleetSpec
from repro.phy import kernels
from repro.sim.random import BufferedPicker, BufferedUniforms

#: The one network's name inside the bridge's engine.
_NAME = "network"


def decline_reason(net: SlottedNetwork) -> Optional[str]:
    """Why ``net`` must converge on the Python slot loop, or None."""
    if kernels.backend() != "cext":
        return "the compiled fleet_run is not active"
    if telemetry.active() is not None:
        return "telemetry is active"
    if type(net) is not SlottedNetwork:
        return "not a plain SlottedNetwork"
    if net.faults is not None:
        return "a fault schedule"
    if net.parked_tags:
        return "a parked tag"
    if net.uplink_plan is not None or net.rate_controller is not None:
        return "an uplink plan or rate controller"
    if len(net.tags) > kernels.MAX_FLEET_TAGS:
        return f"more than {kernels.MAX_FLEET_TAGS} tags"
    reader = net.reader
    if net.records or reader.records or reader.slot_index:
        return "a slot was stepped"
    if reader._pending_reset:
        return "a RESET is pending"
    config = net.config
    for name, tag in net.tags.items():
        machine = tag.machine
        if tag.recovery is not None or tag._uplink is not None:
            return "a tag hook"
        if (
            tag.slot_counter,
            tag.transmitted_last_slot,
            tag.ever_settled,
            tag.late_arrival,
            tag.respect_empty_flag,
            tag.beacons_received,
            tag.beacons_missed,
            tag.transmissions,
            tag.consecutive_beacon_losses,
            tag.power_cycles,
            tag.rejoin_holdoff,
            machine.state,
            machine.nack_count,
            machine.nack_threshold,
            machine.migrations,
            machine.settles,
        ) != (
            0,
            False,
            False,
            net.activation_slot.get(name, 0) > 0,
            config.enable_empty_flag,
            0,
            0,
            0,
            0,
            0,
            0,
            TagState.MIGRATE,
            0,
            config.nack_threshold,
            0,
            0,
        ):
            return "a tag field is off its constructed value"
        if net.beacon_loss_probability_for(name) != derive_beacon_loss(
            config, net.medium, name
        ):
            return "the beacon-loss table no longer matches the channel"
    slots = net._streams.stream("slots").bit_generator.state
    if slots != np.random.PCG64(net._streams.seed_of("slots")).state:
        return "the slot stream has been drawn from"
    return None


def run_until_converged(
    net: SlottedNetwork, streak: int, max_slots: int
) -> Optional[int]:
    """``net.run_until_converged(streak, max_slots)`` on a one-network
    fleet engine, the engine's state then written back into ``net``.
    Only for networks :func:`decline_reason` accepts."""
    engine = FleetEngine(
        {name: tag.period for name, tag in net.tags.items()},
        [FleetSpec(_NAME, net.config.seed)],
        config=net.config,
        activation_slot=net.activation_slot,
        medium=net.medium,
    )
    slots = engine.run_until_converged(streak, max_slots)[_NAME]
    _write_back(net, engine)
    return slots


def _write_back(net: SlottedNetwork, engine: FleetEngine) -> None:
    """Leave ``net`` as its own slot loop would have left it after the
    slots ``engine`` ran."""
    records = engine.records(_NAME)
    net.records.extend(records)
    net.reader.records.extend(records)

    arrays = engine.tags
    fields = {name: getattr(arrays, name)[0].tolist() for name in vars(arrays)}
    for tid, tag in enumerate(net.tags.values()):
        tag.slot_counter = fields["slot_counter"][tid]
        tag.transmitted_last_slot = fields["transmitted_last"][tid]
        tag.ever_settled = fields["ever_settled"][tid]
        tag.late_arrival = fields["late_arrival"][tid]
        tag.beacons_received = fields["beacons_received"][tid]
        tag.beacons_missed = fields["beacons_missed"][tid]
        tag.transmissions = fields["transmissions"][tid]
        tag.consecutive_beacon_losses = fields["consecutive_losses"][tid]
        tag.power_cycles = fields["power_cycles"][tid]
        machine = tag.machine
        machine.state = TagState.SETTLE if fields["settled"][tid] else TagState.MIGRATE
        machine.offset = fields["offset"][tid]
        machine.nack_count = fields["nack_count"][tid]
        machine.migrations = fields["migrations"][tid]
        machine.settles = fields["settles"][tid]
        state, head = engine._offsets.tail(0, tid)
        offsets = machine._pick.gen
        offsets.bit_generator.state = state
        machine._pick = BufferedPicker(offsets, tag.period, head)

    reader, batch = net.reader, engine.reader
    names = list(net.tags)
    n_slots = engine.slots_elapsed
    reader.slot_index = n_slots
    reader._pending_ack = bool(batch.pending_ack[0])
    reader._pending_reset = bool(batch.pending_reset[0])
    reader._last_empty_flag = bool(batch.last_empty[0])
    reader._appeared.update(names[t] for t in np.flatnonzero(batch.appeared[0]))
    for ledger, column in (
        (reader._committed, batch.committed),
        (reader._evicting, batch.evicting),
    ):
        ledger.update(
            (names[t], value) for t, value in enumerate(column[0].tolist()) if value >= 0
        )
    history = batch._history
    decoded = batch._ring_decoded[0].tolist()
    collided = batch._ring_collision[0].tolist()
    for slot in range(max(0, n_slots - history), n_slots):
        if decoded[slot % history] >= 0:
            reader._slot_decoded[slot] = names[decoded[slot % history]]
        if collided[slot % history]:
            reader._slot_collision[slot] = True

    state, head = engine._uniforms.tail(0)
    slots = net._streams.stream("slots")
    slots.bit_generator.state = state
    net._slot_rng = BufferedUniforms(slots, head)
