"""Tests for the supervised stepping loop and its escalation ladder."""

from dataclasses import asdict

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.resilience import (
    EscalationExhausted,
    NetworkSupervisor,
    ResilienceError,
    default_policies,
)
from repro.resilience.supervisor import InvariantViolation

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}


def build(seed=0, schedule=None, **config_kwargs):
    return SlottedNetwork(
        PERIODS,
        config=NetworkConfig(seed=seed, ideal_channel=True, **config_kwargs),
        faults=schedule,
    )


class TestZeroCostContract:
    def test_no_policy_supervision_is_byte_identical(self):
        plain = build(seed=3)
        plain.run(500)
        supervised = build(seed=3)
        sup = NetworkSupervisor(supervised, policies=())
        sup.run(500)
        assert [asdict(r) for r in plain.records] == [
            asdict(r) for r in supervised.records
        ]
        assert sup.violations == []
        assert sup.actions == []

    def test_no_policy_supervision_identical_under_faults(self):
        schedule = FaultSchedule(
            [
                FaultEvent(slot=100, duration=6, kind="beacon_loss", target=ALL_TAGS),
                FaultEvent(slot=200, duration=10, kind="brownout", target="tag2"),
                FaultEvent(slot=300, duration=1, kind="reader_restart", target="reader"),
            ]
        )
        plain = build(seed=7, schedule=schedule)
        plain.run(500)
        supervised = build(seed=7, schedule=schedule)
        NetworkSupervisor(supervised, policies=()).run(500)
        assert [asdict(r) for r in plain.records] == [
            asdict(r) for r in supervised.records
        ]

    def test_no_hooks_installed_without_tag_side_policies(self):
        net = build()
        NetworkSupervisor(net, policies=())
        assert all(tag.recovery is None for tag in net.tags.values())

    def test_detach_restores_vanilla_tags(self):
        net = build()
        sup = NetworkSupervisor(net)  # default policies install hooks
        assert all(tag.recovery is not None for tag in net.tags.values())
        sup.detach()
        assert all(tag.recovery is None for tag in net.tags.values())
        assert all(p.supervisor is None for p in sup.policies)

    def test_double_attachment_rejected(self):
        net = build()
        NetworkSupervisor(net)
        with pytest.raises(ResilienceError):
            NetworkSupervisor(net)


class TestInvariants:
    def test_healthy_runs_are_violation_free(self):
        net = build(seed=1)
        sup = NetworkSupervisor(net)
        sup.run(800)
        assert sup.violations == []
        assert sup.escalations == []

    def test_stale_eviction_entry_is_detected(self):
        net = build()
        sup = NetworkSupervisor(net, policies=())
        sup.run(200)
        net.reader._evicting["ghost"] = 0  # corrupt: evicting w/o commitment
        violations = sup.verify_invariants()
        assert [v.check for v in violations] == ["stale_eviction"]
        assert "ghost" in violations[0].detail

    def test_double_booked_commitments_detected(self):
        net = build()
        sup = NetworkSupervisor(net, policies=())
        sup.run(200)
        committed = net.reader.committed_assignments
        a, b = sorted(committed)[:2]
        # Force b onto a slot congruent with a's pattern.
        net.reader._committed[b] = committed[a].offset % PERIODS[b]
        checks = {v.check for v in sup.verify_invariants()}
        assert "double_booked" in checks

    @pytest.mark.parametrize("past", [0, 3, -5])
    def test_out_of_range_commitment_is_reported(self, past):
        net = build()
        sup = NetworkSupervisor(net, policies=())
        sup.run(200)
        tag = sorted(net.reader._committed)[0]
        # Corrupt: the first offset past the period, one further out, or
        # a negative one.
        bad = PERIODS[tag] + past if past >= 0 else past
        net.reader._committed[tag] = bad
        violations = sup.verify_invariants()
        assert [v.check for v in violations if v.check == "offset_range"] == [
            "offset_range"
        ]
        assert f"{tag} committed at offset {bad} outside" in violations[0].detail

    def test_out_of_range_commitment_escalates_instead_of_crashing(self):
        net = build()
        sup = NetworkSupervisor(net, policy_grace=1)
        sup.run(200)
        reader = net.reader
        # A tag not scheduled in the next slot: the reader cannot
        # overwrite the corrupted entry before the check runs.
        tag = next(
            t
            for t, o in sorted(reader._committed.items())
            if reader.slot_index % PERIODS[t] != o
        )
        reader._committed[tag] = PERIODS[tag] + 3
        sup.step()
        assert "offset_range" in {v.check for v in sup.violations}
        # The restart rung wiped the corrupted ledger.
        assert [e.level for e in sup.escalations] == ["restart"]
        assert sup.verify_invariants() == []

    def test_ablation_reader_skips_conflict_check(self):
        net = build(enable_future_avoidance=False)
        sup = NetworkSupervisor(net, policies=())
        sup.run(50)
        net.reader._committed["tag1"] = 0
        net.reader._committed["tag2"] = 0  # conflicting, but baseline mode
        checks = {v.check for v in sup.verify_invariants()}
        assert "double_booked" not in checks

    def test_check_invariants_off_skips_enforcement(self):
        net = build()
        sup = NetworkSupervisor(net, policies=(), check_invariants=False)
        sup.run(200)
        net.reader._evicting["ghost"] = 0
        sup.run(50)  # would escalate if checking
        assert sup.violations == []
        assert sup.escalations == []


class TestEscalationLadder:
    def _corrupted(self, policy_grace=3, restart_grace=4, max_hard_resets=2):
        net = build()
        sup = NetworkSupervisor(
            net,
            policies=(),
            policy_grace=policy_grace,
            restart_grace=restart_grace,
            max_hard_resets=max_hard_resets,
        )
        sup.run(100)
        return net, sup

    def test_restart_fires_after_policy_grace(self):
        net, sup = self._corrupted(policy_grace=3)
        net.reader._evicting["ghost"] = 0
        sup.run(3)
        assert [e.level for e in sup.escalations] == ["restart"]
        # restart wiped the ledger, so the violation is actually gone
        assert sup.verify_invariants() == []
        sup.run(50)
        assert [e.level for e in sup.escalations] == ["restart"]

    def test_hard_reset_when_restart_does_not_clear(self, monkeypatch):
        net, sup = self._corrupted(policy_grace=3, restart_grace=4)
        # A corruption restart cannot clear: re-inject after every wipe.
        monkeypatch.setattr(
            type(net.reader),
            "restart",
            lambda self: None,
        )
        net.reader._evicting["ghost"] = 0
        sup.run(7)  # 3 (restart rung) + 4 (hard-reset rung)
        levels = [e.level for e in sup.escalations]
        assert levels == ["restart", "hard_reset"]
        # The RESET rides the next beacon and wipes the reader for real.
        sup.step()
        assert sup.verify_invariants() == []

    def test_exhaustion_raises_after_capped_hard_resets(self):
        net, sup = self._corrupted(
            policy_grace=2, restart_grace=2, max_hard_resets=1
        )

        class Stuck:
            def on_slot(self, record):
                net.reader._evicting["ghost"] = 0  # re-corrupt every slot

            def on_invariant_violation(self, violation):
                return False

            def detach(self):
                pass

        sup.policies = [Stuck()]
        with pytest.raises(EscalationExhausted):
            sup.run(50)
        assert sum(1 for e in sup.escalations if e.level == "hard_reset") == 1

    def test_policy_repair_stops_the_clock(self):
        net, sup = self._corrupted(policy_grace=2)

        class Repairer:
            def __init__(self):
                self.repaired = 0

            def on_slot(self, record):
                pass

            def on_invariant_violation(self, violation):
                net.reader._evicting.pop("ghost", None)
                self.repaired += 1
                return True

            def detach(self):
                pass

        repairer = Repairer()
        sup.policies = [repairer]
        net.reader._evicting["ghost"] = 0
        sup.run(20)
        assert repairer.repaired == 1
        assert sup.escalations == []  # never reached the restart rung

    def test_parameter_validation(self):
        net = build()
        with pytest.raises(ValueError):
            NetworkSupervisor(net, policies=(), policy_grace=0)
        with pytest.raises(ValueError):
            NetworkSupervisor(net, policies=(), restart_grace=0)
        with pytest.raises(ValueError):
            NetworkSupervisor(net, policies=(), max_hard_resets=-1)


class TestRunHelpers:
    def test_run_returns_new_records_only(self):
        net = build()
        sup = NetworkSupervisor(net, policies=())
        first = sup.run(10)
        second = sup.run(5)
        assert [r.slot for r in first] == list(range(10))
        assert [r.slot for r in second] == list(range(10, 15))

    def test_run_until_converged_matches_network_semantics(self):
        supervised = build(seed=4)
        got = NetworkSupervisor(supervised, policies=()).run_until_converged()
        plain = build(seed=4)
        want = plain.run_until_converged()
        assert got == want

    def test_report_is_json_serialisable(self):
        import json

        schedule = FaultSchedule(
            [FaultEvent(slot=150, duration=8, kind="beacon_loss", target=ALL_TAGS)]
        )
        net = build(seed=2, schedule=schedule)
        sup = NetworkSupervisor(net)
        sup.run(400)
        doc = sup.report()
        assert json.loads(json.dumps(doc)) == json.loads(json.dumps(doc))
        assert doc["policies"] == ["beacon_resync", "backoff_rejoin", "slot_lease"]

    def test_violation_jsonable(self):
        v = InvariantViolation(slot=3, check="stale_eviction", detail="x")
        assert v.to_jsonable() == {
            "slot": 3,
            "check": "stale_eviction",
            "detail": "x",
        }
