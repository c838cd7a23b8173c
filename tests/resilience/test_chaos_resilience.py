"""Chaos suite for the resilience layer: hypothesis-generated fault
schedules against a *supervised* network, asserting the self-healing
safety net — supervised runs complete, replay deterministically, never
trip the escalation ladder on protocol-legal state, and (with the
default policies) the network eventually reconverges once the last
fault clears."""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import ALL_TAGS, FaultEvent, FaultSchedule
from repro.resilience import NetworkSupervisor

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}
TAGS = tuple(sorted(PERIODS))
N_SLOTS = 120

CHAOS = settings(max_examples=20, deadline=None, derandomize=True)

#: Protocol-level fault kinds the recovery policies target; channel/PHY
#: kinds are exercised by the vanilla chaos suite.
RECOVERY_KINDS = ("beacon_loss", "brownout", "harvester_collapse", "reader_restart")


@st.composite
def fault_events(draw) -> FaultEvent:
    kind = draw(st.sampled_from(RECOVERY_KINDS))
    slot = draw(st.integers(0, N_SLOTS - 1))
    if kind == "reader_restart":
        duration, target = 1, "reader"
    else:
        duration = draw(st.integers(1, 12))
        target = draw(st.sampled_from(TAGS + (ALL_TAGS,)))
    return FaultEvent(slot=slot, duration=duration, kind=kind, target=target)


schedules = st.lists(fault_events(), min_size=0, max_size=6).map(FaultSchedule)


def supervised_run(schedule: FaultSchedule, seed: int = 0, extra_slots: int = 0):
    net = SlottedNetwork(
        PERIODS,
        config=NetworkConfig(seed=seed, ideal_channel=True),
        faults=schedule,
    )
    supervisor = NetworkSupervisor(net)
    supervisor.run(N_SLOTS + schedule.last_clear_slot + extra_slots)
    return net, supervisor


class TestSupervisedChaos:
    @CHAOS
    @given(schedules)
    def test_supervised_run_completes(self, schedule):
        net, supervisor = supervised_run(schedule)
        n = N_SLOTS + schedule.last_clear_slot
        assert len(net.records) == n
        assert [r.slot for r in net.records] == list(range(n))

    @CHAOS
    @given(schedules)
    def test_no_invariant_violations_under_protocol_faults(self, schedule):
        # Faults stress the protocol, but its structural invariants must
        # hold throughout — the ladder exists for corruption, not for
        # protocol-legal churn.
        _, supervisor = supervised_run(schedule)
        assert supervisor.violations == []
        assert supervisor.escalations == []

    @CHAOS
    @given(schedules)
    def test_supervised_replay_is_deterministic(self, schedule):
        net_a, sup_a = supervised_run(schedule, seed=3)
        net_b, sup_b = supervised_run(schedule, seed=3)
        assert [asdict(r) for r in net_a.records] == [
            asdict(r) for r in net_b.records
        ]
        assert [a.to_jsonable() for a in sup_a.actions] == [
            a.to_jsonable() for a in sup_b.actions
        ]

    @CHAOS
    @given(schedules)
    def test_eventual_reconvergence_with_policies_on(self, schedule):
        # Whatever the schedule did, once every fault has cleared a
        # supervised network must reach a full collision-free streak —
        # the policies may not wedge it (e.g. a rejoin hold-off that
        # never drains or a lease that thrashes a settled tag).
        net, supervisor = supervised_run(schedule)
        assert supervisor.run_until_converged(max_slots=20_000) is not None

    @CHAOS
    @given(schedules)
    def test_tag_counters_stay_consistent(self, schedule):
        net, _ = supervised_run(schedule)
        for tag in net.tags.values():
            assert tag.consecutive_beacon_losses >= 0
            assert tag.rejoin_holdoff >= 0
            assert tag.beacons_missed >= tag.consecutive_beacon_losses

    @CHAOS
    @given(schedules)
    def test_power_cycled_tags_counted_once_per_brownout_clear(self, schedule):
        net, _ = supervised_run(schedule)
        for name, tag in net.tags.items():
            brownouts = [
                e
                for e in schedule
                if e.kind == "brownout" and e.target in (name, ALL_TAGS)
            ]
            assert tag.power_cycles <= len(brownouts)
