"""Every integer size the resilience constructors take is validated at
the boundary: a float, a bool, a string or None raises the same
``ValueError`` as an out-of-range size, naming the field, where it
used to construct and then act on a truncated or rounded value (or
fail with a ``TypeError`` mid-run); a numpy integer passes as an
``int``."""

import re

import numpy as np
import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.resilience import (
    BackoffRejoinPolicy,
    BeaconResyncPolicy,
    LinkHealthMonitor,
    NetworkSupervisor,
    RelayFallbackPolicy,
    SlotLeasePolicy,
)

NOT_INTEGERS = [1.5, 2.5, 3.0, True, False, "3", None]


def _network():
    return SlottedNetwork(
        {"tag1": 4, "tag2": 8}, config=NetworkConfig(seed=0, ideal_channel=True)
    )


def _check(make, field, value, read=None):
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{field: value})
    # The default, as a numpy integer, passes and is stored as an int.
    read = read or (lambda built: getattr(built, field))
    default = read(make())
    stored = read(make(**{field: np.int64(default)}))
    assert stored == default and type(stored) is int


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize(
    "field", ["policy_grace", "restart_grace", "max_hard_resets", "health_window"]
)
def test_network_supervisor(field, value):
    read = (lambda sup: sup.monitor.window) if field == "health_window" else None
    _check(
        lambda **kw: NetworkSupervisor(_network(), policies=(), **kw),
        field,
        value,
        read,
    )


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_link_health_monitor(value):
    _check(lambda **kw: LinkHealthMonitor(_network(), **kw), "window", value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_beacon_resync_policy(value):
    _check(BeaconResyncPolicy, "max_retries", value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize(
    "field",
    [
        "base_holdoff",
        "max_holdoff",
        "settle_window_periods",
        "max_attempts",
        "stagger_mod",
        "stagger_step",
    ],
)
def test_backoff_rejoin_policy(field, value):
    _check(BackoffRejoinPolicy, field, value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_slot_lease_policy(value):
    _check(SlotLeasePolicy, "lease_misses", value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize(
    "field",
    [
        "engage_misses",
        "absent_after_periods",
        "reroute_failures",
        "retry_every_periods",
    ],
)
def test_relay_fallback_policy(field, value):
    _check(RelayFallbackPolicy, field, value)
