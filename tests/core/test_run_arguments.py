"""Slot-count arguments of every run method are validated at the boundary.

A bool, a float or an out-of-range count used to run anyway: ``run(True)``
stepped one slot, ``streak=2.5`` returned six and ``max_slots=-5``
returned None.  Each method now raises a ``ValueError`` naming the
argument (``repro.core.network.slot_count``).
"""

import numpy as np
import pytest

from repro.core.network import NetworkConfig, SlottedNetwork, slot_count
from repro.core.realtime import RealtimeNetwork
from repro.fleet import FleetEngine, specs_for_seeds
from repro.resilience.supervisor import NetworkSupervisor

PERIODS = {"tag5": 4, "tag6": 4, "tag8": 8}

#: (argument, bad value) pairs; each must raise naming the argument.
BAD_COUNTS = [
    ("n_slots", True),
    ("n_slots", 2.5),
    ("n_slots", -1),
    ("n_slots", "3"),
    ("n_slots", None),
]
BAD_CONVERGENCE = [
    ("streak", True),
    ("streak", 2.5),
    ("streak", 0),
    ("streak", -3),
    ("streak", np.float64(4.0)),
    ("max_slots", False),
    ("max_slots", 10.0),
    ("max_slots", -5),
    ("max_slots", None),
]


def slotted():
    return SlottedNetwork(PERIODS, config=NetworkConfig(seed=1, ideal_channel=True))


def engine():
    return FleetEngine(PERIODS, specs_for_seeds([1, 2]))


def check(call, name, value):
    with pytest.raises(ValueError, match=name):
        call(**{name: value})


@pytest.mark.parametrize("name, value", BAD_COUNTS)
def test_slotted_run(name, value):
    net = slotted()
    check(net.run, name, value)
    assert net.records == []


@pytest.mark.parametrize("name, value", BAD_CONVERGENCE)
def test_slotted_run_until_converged(name, value):
    net = slotted()
    check(net.run_until_converged, name, value)
    assert net.records == []


@pytest.mark.parametrize("name, value", BAD_COUNTS)
def test_supervisor_run(name, value):
    supervisor = NetworkSupervisor(slotted())
    check(supervisor.run, name, value)
    assert supervisor.network.records == []


@pytest.mark.parametrize("name, value", BAD_CONVERGENCE)
def test_supervisor_run_until_converged(name, value):
    supervisor = NetworkSupervisor(slotted())
    check(supervisor.run_until_converged, name, value)
    assert supervisor.network.records == []


@pytest.mark.parametrize("name, value", BAD_CONVERGENCE)
def test_realtime_run_until_converged(name, value):
    net = RealtimeNetwork(PERIODS, config=NetworkConfig(seed=1, ideal_channel=True))
    check(net.run_until_converged, name, value)
    assert net.records == []


@pytest.mark.parametrize("name, value", BAD_COUNTS)
def test_engine_run(name, value):
    fleet = engine()
    check(fleet.run, name, value)
    assert fleet.slots_elapsed == 0


@pytest.mark.parametrize("name, value", BAD_CONVERGENCE)
def test_engine_run_until_converged(name, value):
    fleet = engine()
    check(fleet.run_until_converged, name, value)
    assert fleet.slots_elapsed == 0


def test_integers_of_any_kind_pass():
    assert slot_count(np.int64(7), "n_slots") == 7
    assert type(slot_count(np.int32(1), "streak")) is int
    assert slot_count(0, "max_slots") == 0
    net = slotted()
    assert len(net.run(np.int64(3))) == 3
