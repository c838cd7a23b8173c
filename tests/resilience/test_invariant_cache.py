"""``NetworkSupervisor.verify_invariants`` rescans the committed ledger
for double bookings only when the ledger changed since the last check.
These tests hold it, call for call, to the oracle that rescans every
time (``resilience.oracles``), through supervised fault runs and
through in-place corruption of the ledger after a clean check."""

import pytest
from resilience.oracles import verify_invariants_reference

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.figR_recovery import RECOVERY_PERIODS
from repro.experiments.figS_degradation import degradation_levels
from repro.resilience import NetworkSupervisor

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}


def checked(sup):
    """Make every ``verify_invariants`` call of ``sup`` (its own, from
    ``step`` and ``_enforce``, and the test's) also run the oracle and
    compare; returns the list of results."""
    real = sup.verify_invariants
    results = []

    def both():
        got = real()
        assert got == verify_invariants_reference(sup.network)
        results.append(got)
        return got

    sup.verify_invariants = both
    return results


@pytest.mark.parametrize("level", ["burst8", "brownout", "burst8+brownout"])
def test_supervised_fault_runs_match_oracle(level):
    schedule = dict(degradation_levels())[level]
    net = SlottedNetwork(
        RECOVERY_PERIODS,
        config=NetworkConfig(seed=11, ideal_channel=True),
        faults=schedule,
    )
    sup = NetworkSupervisor(net)
    results = checked(sup)
    sup.run(schedule.last_clear_slot + 400)
    assert len(results) == len(net.records)
    assert sup.violations == []


class _Corrupter:
    """A policy stand-in that double-books ``tag3`` onto ``tag2`` at
    ``start``, moves the double booking onto ``tag1`` five slots later
    and removes it five slots after that."""

    def __init__(self, net, start):
        self.net = net
        self.start = start
        self.original = None

    def on_slot(self, record):
        committed = self.net.reader._committed
        if record.slot == self.start:
            self.original = committed["tag3"]
            committed["tag3"] = committed["tag2"]
        elif record.slot == self.start + 5:
            committed["tag3"] = committed["tag1"]
        elif record.slot == self.start + 10:
            committed["tag3"] = self.original

    def on_invariant_violation(self, violation):
        return False

    def detach(self):
        pass


def test_corruption_during_a_supervised_run_matches_oracle():
    net = SlottedNetwork(PERIODS, config=NetworkConfig(seed=0, ideal_channel=True))
    sup = NetworkSupervisor(net, policies=(), policy_grace=1000)
    sup.run(200)
    assert {"tag1", "tag2", "tag3"} <= net.reader._committed.keys()
    sup.policies = [_Corrupter(net, start=210)]
    results = checked(sup)
    sup.run(30)
    booked = [
        [v.detail for v in found if v.check == "double_booked"] for found in results
    ]
    assert any(booked) and not any(booked[-10:])
    assert len({tuple(b) for b in booked if b}) >= 2  # the booking moved


def test_in_place_corruption_after_a_clean_check_matches_oracle():
    net = SlottedNetwork(PERIODS, config=NetworkConfig(seed=0, ideal_channel=True))
    sup = NetworkSupervisor(net, policies=())
    sup.run(200)
    committed = net.reader._committed
    assert {"tag1", "tag2", "tag3"} <= committed.keys()
    results = checked(sup)
    original = committed["tag3"]

    def booked():
        sup.verify_invariants()
        return [v.detail for v in results[-1] if v.check == "double_booked"]

    assert booked() == []  # the clean check the corruption follows
    del committed["tag3"]
    assert booked() == []
    committed["tag3"] = committed["tag2"]  # add a double booking
    added = booked()
    assert len(added) == 1 and added[0].startswith("tag2(")
    committed["tag3"] = committed["tag1"]  # move it, same ledger size
    moved = booked()
    assert moved and moved != added and moved[0].startswith("tag1(")
    committed["tag3"] = original  # remove it, same ledger size
    assert booked() == []


def test_in_line_repair_is_rechecked_on_the_repaired_ledger():
    net = SlottedNetwork(PERIODS, config=NetworkConfig(seed=0, ideal_channel=True))
    sup = NetworkSupervisor(net, policies=(), policy_grace=1)
    sup.run(200)
    reader = net.reader
    committed = reader._committed
    # Neither tag may be scheduled in the next slot, where the reader
    # would rewrite the corrupted entry before the check runs.
    while reader.slot_index % 8 in (committed["tag2"], committed["tag3"]):
        sup.step()
    original = committed["tag3"]

    class Repairer:
        repaired = 0

        def on_slot(self, record):
            pass

        def on_invariant_violation(self, violation):
            if violation.check == "double_booked":
                committed["tag3"] = original
                self.repaired += 1
                return True
            return False

        def detach(self):
            pass

    repairer = Repairer()
    sup.policies = [repairer]
    results = checked(sup)
    committed["tag3"] = committed["tag2"]
    sup.step()
    assert repairer.repaired == 1
    assert [v.check for v in sup.violations] == ["double_booked"]
    assert results[-1] == []  # the re-check saw the repaired ledger
    assert sup.escalations == []  # so the restart rung never fired
