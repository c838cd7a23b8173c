"""Tests for the individual recovery policies."""

import itertools
from dataclasses import asdict

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.state_machine import TagState
from repro.core.tag_protocol import TagMac
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.phy.packets import DownlinkBeacon
from repro.resilience import (
    BackoffRejoinPolicy,
    BeaconResyncPolicy,
    NetworkSupervisor,
    SlotLeasePolicy,
    default_policies,
)

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}
BEACON = DownlinkBeacon(ack=False, empty=True)
ACK = DownlinkBeacon(ack=True, empty=True)


def make_tag(period=4, offsets=None, tid=1):
    if offsets is None:
        counter = itertools.count()
        picker = lambda p: next(counter) % p
    else:
        it = iter(offsets)
        picker = lambda p: next(it)
    return TagMac("tagX", tid=tid, period=period, offset_picker=picker)


def settle(tag):
    """Drive the tag into SETTLE at its current offset."""
    while tag.state is not TagState.SETTLE:
        tag.on_beacon(ACK if tag.transmitted_last_slot else BEACON)
    return tag


def build(seed=0, schedule=None, periods=PERIODS):
    return SlottedNetwork(
        periods,
        config=NetworkConfig(seed=seed, ideal_channel=True),
        faults=schedule,
    )


class _StubSupervisor:
    """Just enough supervisor surface for a standalone policy."""

    def __init__(self, network=None):
        self.network = network
        self.loss_handlers = []
        self.power_cycle_handlers = []
        self.actions = []
        self.monitor = None

    def register_loss_handler(self, handler):
        self.loss_handlers.append(handler)

    def register_power_cycle_handler(self, handler):
        self.power_cycle_handlers.append(handler)

    def log_action(self, action):
        self.actions.append(action)


class TestBeaconResyncPolicy:
    def _attach(self, tag, max_retries=3):
        policy = BeaconResyncPolicy(max_retries=max_retries)
        sup = _StubSupervisor()
        policy.attach(sup)

        class Hook:
            def on_beacon_loss(self, t):
                return sup.loss_handlers[0](t)

            def on_power_cycle(self, t):
                pass

        tag.attach_recovery(Hook())
        return policy, sup

    def test_rejects_zero_retries(self):
        with pytest.raises(ValueError):
            BeaconResyncPolicy(max_retries=0)

    def test_suppresses_demote_within_bound(self):
        tag = settle(make_tag(period=4, offsets=[2, 0]))
        offset = tag.offset
        self._attach(tag, max_retries=3)
        for _ in range(3):
            tag.on_beacon_loss()
        assert tag.state is TagState.SETTLE
        assert tag.offset == offset

    def test_demotes_exactly_once_past_bound(self):
        tag = settle(make_tag(period=4, offsets=[2, 0, 1, 3]))
        self._attach(tag, max_retries=3)
        for _ in range(4):
            tag.on_beacon_loss()
        assert tag.state is TagState.MIGRATE
        demoted_offset = tag.offset
        # Further consecutive losses leave the machine alone: no extra
        # offset re-rolls while the outage continues.
        for _ in range(5):
            tag.on_beacon_loss()
        assert tag.offset == demoted_offset

    def test_received_beacon_rearms_the_budget(self):
        tag = settle(make_tag(period=4, offsets=[2, 0]))
        self._attach(tag, max_retries=3)
        for _ in range(3):
            tag.on_beacon_loss()
        tag.on_beacon(BEACON)  # outage over: counter resets
        assert tag.consecutive_beacon_losses == 0
        for _ in range(3):
            tag.on_beacon_loss()
        assert tag.state is TagState.SETTLE  # fresh budget held again

    def test_vanilla_tag_demotes_on_first_loss(self):
        tag = settle(make_tag(period=4, offsets=[2, 0]))
        tag.on_beacon_loss()
        assert tag.state is TagState.MIGRATE


class TestBackoffRejoinPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BackoffRejoinPolicy(base_holdoff=0)
        with pytest.raises(ValueError):
            BackoffRejoinPolicy(base_holdoff=8, max_holdoff=4)
        with pytest.raises(ValueError):
            BackoffRejoinPolicy(settle_window_periods=0)
        with pytest.raises(ValueError):
            BackoffRejoinPolicy(stagger_mod=0)

    def test_holdoff_doubles_and_caps(self):
        policy = BackoffRejoinPolicy(
            base_holdoff=4, max_holdoff=16, stagger_mod=8, stagger_step=3
        )
        tag = make_tag(tid=2)
        assert policy.holdoff_for(tag, 0) == 4 + 6
        assert policy.holdoff_for(tag, 1) == 8 + 6
        assert policy.holdoff_for(tag, 2) == 16 + 6
        assert policy.holdoff_for(tag, 5) == 16 + 6  # capped

    def test_stagger_separates_tids(self):
        policy = BackoffRejoinPolicy(stagger_mod=8, stagger_step=3)
        holdoffs = {
            policy.holdoff_for(make_tag(tid=t), 0) for t in range(8)
        }
        assert len(holdoffs) == 8  # all distinct within one mod cycle

    def test_power_cycle_arms_holdoff_and_tag_stays_silent(self):
        net = build()
        sup = NetworkSupervisor(net, policies=[BackoffRejoinPolicy()])
        sup.run(300)  # converge
        tag = net.tags["tag2"]
        tag.power_cycle()
        armed = tag.rejoin_holdoff
        assert armed > 0
        assert "tag2" in sup.policies[0].pending_rejoins()
        transmitted = []
        for _ in range(armed):
            sup.step()
            transmitted.append(tag.transmitted_last_slot)
        assert not any(transmitted)  # silent for the whole hold-off

    def test_rejoiner_eventually_settles_and_is_forgotten(self):
        net = build()
        policy = BackoffRejoinPolicy()
        sup = NetworkSupervisor(net, policies=[policy])
        sup.run(300)
        net.tags["tag2"].power_cycle()
        sup.run(600)
        assert net.tags["tag2"].state is TagState.SETTLE
        assert policy.pending_rejoins() == ()

    def test_exhausted_rejoin_reverts_to_vanilla(self):
        net = build()
        policy = BackoffRejoinPolicy(
            base_holdoff=1, max_holdoff=1, settle_window_periods=1, max_attempts=1
        )
        sup = NetworkSupervisor(net, policies=[policy])
        sup.run(100)
        tag = net.tags["tag4"]
        tag.power_cycle()
        sup.run(500)
        # However the rejoin went, the policy must have released the tag
        # (settled or exhausted), never babysit it forever.
        assert policy.pending_rejoins() == ()


class TestSlotLeasePolicy:
    def test_rejects_zero_misses(self):
        with pytest.raises(ValueError):
            SlotLeasePolicy(lease_misses=0)

    def test_lease_reclaims_silent_tags_slot(self):
        # The lease covers the case the reader's own expiry cannot: a
        # dead tag whose slot never passes *empty* (residual probes and
        # collisions keep it occupied).  Drive the miss counter to the
        # threshold and verify the next policy pass drops the lease.
        net = build()
        policy = SlotLeasePolicy(lease_misses=3)
        sup = NetworkSupervisor(net, policies=[policy])
        sup.run(300)
        assert "tag2" in net.reader.committed_assignments
        sup.monitor.health("tag2").consecutive_missed = 3
        policy.on_slot(net.records[-1])
        assert "tag2" not in net.reader.committed_assignments
        assert "tag2" not in net.reader.evicting()
        expiries = [a for a in sup.actions if a.action == "lease_expired"]
        assert [a.tag for a in expiries] == ["tag2"]
        assert sup.monitor.health("tag2").consecutive_missed == 0

    def test_lease_below_threshold_keeps_commitment(self):
        net = build()
        policy = SlotLeasePolicy(lease_misses=3)
        sup = NetworkSupervisor(net, policies=[policy])
        sup.run(300)
        sup.monitor.health("tag2").consecutive_missed = 2
        policy.on_slot(net.records[-1])
        assert "tag2" in net.reader.committed_assignments

    def test_healthy_network_never_expires_leases(self):
        net = build()
        sup = NetworkSupervisor(net, policies=[SlotLeasePolicy()])
        sup.run(200)  # includes the initial competition churn
        start = len([a for a in sup.actions if a.action == "lease_expired"])
        sup.run(800)  # converged steady state
        end = len([a for a in sup.actions if a.action == "lease_expired"])
        assert end == start  # no expiries once the allocation settles


class TestDefaultPolicies:
    def test_stock_stack_composition(self):
        names = [p.name for p in default_policies()]
        assert names == ["beacon_resync", "backoff_rejoin", "slot_lease"]

    def test_policies_are_deterministic(self):
        schedule = FaultSchedule(
            [
                FaultEvent(slot=250, duration=8, kind="beacon_loss", target=ALL_TAGS),
                FaultEvent(slot=350, duration=10, kind="brownout", target="tag2"),
            ]
        )

        def run():
            net = build(seed=5, schedule=schedule)
            sup = NetworkSupervisor(net)
            sup.run(700)
            return (
                [asdict(r) for r in net.records],
                [a.to_jsonable() for a in sup.actions],
            )

        assert run() == run()
