"""Faulted and supervised networks are freed by reference counting.

A network owns its fault controller and a supervisor owns its
policies; the back-references (controller to network, injector to
controller, policy to supervisor) are weak, so that dropping the
owner frees the whole structure, slot traces and ledgers included,
without waiting for the cyclic collector.  Each test runs with the
collector off.
"""

import gc
import weakref

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.resilience import NetworkSupervisor

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}

#: Faults of every slot-tier injector, so that each binds and acts.
SCHEDULE = FaultSchedule(
    [
        FaultEvent(slot=50, duration=40, kind="beacon_loss", target="tag2"),
        FaultEvent(slot=120, duration=30, kind="brownout", target="tag3"),
        FaultEvent(slot=200, duration=1, kind="reader_restart", target="reader"),
        FaultEvent(slot=260, duration=50, kind="noise_burst", magnitude=6.0),
        FaultEvent(slot=330, duration=40, kind="junction_loss", magnitude=2.0),
        FaultEvent(slot=400, duration=60, kind="ack_corrupt", target=ALL_TAGS),
        FaultEvent(slot=480, duration=40, kind="harvester_collapse", target="tag4"),
    ]
)


@pytest.fixture(autouse=True)
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def watch(*objects):
    """``(freed, expected)``: a list that gains the class name of each
    of ``objects`` as it is freed, and the sorted names once all are."""
    freed = []
    for obj in objects:
        weakref.finalize(obj, freed.append, type(obj).__name__)
    return freed, sorted(type(obj).__name__ for obj in objects)


def build(faulted: bool) -> SlottedNetwork:
    return SlottedNetwork(
        PERIODS,
        config=NetworkConfig(seed=3),
        faults=SCHEDULE if faulted else None,
    )


def test_faulted_network_is_freed():
    net = build(faulted=True)
    net.run(700)
    controller = net.faults
    assert len(controller.trace.records(kind="fault.apply")) == len(SCHEDULE)
    freed, expected = watch(net, controller, *controller._injectors)
    del net, controller
    assert sorted(freed) == expected


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
def test_supervised_network_is_freed(faulted):
    net = build(faulted)
    supervisor = NetworkSupervisor(net)
    supervisor.run(700)
    assert supervisor.actions  # the policies acted on the network
    freed, expected = watch(net, supervisor, *supervisor.policies)
    del net, supervisor
    assert sorted(freed) == expected


def test_dropped_supervisor_leaves_its_policies_working():
    # The tags keep the policies' hooks; a policy whose supervisor is
    # gone still acts on them, and only its ledger entries go.
    net = build(faulted=True)
    supervisor = NetworkSupervisor(net)
    supervisor.run(100)
    policies = list(supervisor.policies)
    del supervisor
    assert all(policy.supervisor is None for policy in policies)
    net.run(600)
    twin = build(faulted=True)
    kept = NetworkSupervisor(twin)
    kept.run(100)
    twin.run(600)
    assert [r.decoded for r in net.records] == [r.decoded for r in twin.records]
