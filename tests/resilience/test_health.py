"""Tests for the link-health watchdog."""

from dataclasses import asdict

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.resilience.health import ACK, FAIL, MISS, NACK, LinkHealthMonitor, TagHealth

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16}


def build(seed=0, schedule=None):
    return SlottedNetwork(
        PERIODS,
        config=NetworkConfig(seed=seed, ideal_channel=True),
        faults=schedule,
    )


def monitored_run(net, monitor, n_slots):
    for _ in range(n_slots):
        monitor.snapshot_expectations()
        record = net.step()
        monitor.observe(record)


class TestTagHealth:
    def test_window_evicts_oldest(self):
        h = TagHealth(tag="t", window=3)
        for slot, outcome in enumerate([ACK, ACK, NACK, MISS]):
            h.record(slot, outcome)
        assert len(h.events) == 3
        assert h.acks == 1  # the first ACK fell out of the window
        assert h.nacks == 1
        assert h.missed_expected == 1

    def test_rates_none_before_any_signal(self):
        h = TagHealth(tag="t")
        assert h.ack_rate() is None
        assert h.miss_rate() is None

    def test_ack_rate_counts_only_feedback(self):
        h = TagHealth(tag="t")
        h.record(0, ACK)
        h.record(1, MISS)
        h.record(2, NACK)
        assert h.ack_rate() == pytest.approx(0.5)

    def test_miss_rate_blends_miss_and_fail(self):
        h = TagHealth(tag="t")
        h.record(0, ACK)
        h.record(1, MISS)
        h.record(2, FAIL)
        h.record(3, ACK)
        assert h.miss_rate() == pytest.approx(0.5)

    def test_jsonable_round_trips(self):
        import json

        h = TagHealth(tag="t")
        h.record(0, ACK)
        doc = h.to_jsonable()
        assert json.loads(json.dumps(doc)) == doc


class TestLinkHealthMonitor:
    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            LinkHealthMonitor(build(), window=0)

    def test_settled_tags_accumulate_acks(self):
        net = build()
        monitor = LinkHealthMonitor(net)
        monitored_run(net, monitor, 400)
        for name in PERIODS:
            health = monitor.health(name)
            assert health.acks > 0
            assert health.ack_rate() > 0.5
            assert health.consecutive_missed == 0

    def test_browned_out_tag_misses_expected_slots(self):
        schedule = FaultSchedule(
            [FaultEvent(slot=200, duration=12, kind="brownout", target="tag1")]
        )
        net = build(schedule=schedule)
        monitor = LinkHealthMonitor(net)
        monitored_run(net, monitor, 205)
        # tag1 (period 4) was committed when the brownout hit: its
        # scheduled slots inside 200..205 pass silent until the reader's
        # own empty-slot expiry drops the commitment.
        assert monitor.health("tag1").missed_expected > 0

    def test_observe_without_snapshot_reconstructs(self):
        net = build()
        monitor = LinkHealthMonitor(net)
        monitored_run(net, monitor, 300)
        baseline = monitor.health("tag1").acks
        record = net.step()  # no snapshot taken for this slot
        monitor.observe(record)
        total = sum(
            monitor.health(t).acks + monitor.health(t).nacks for t in PERIODS
        )
        assert total >= baseline  # degraded path still digests the slot

    def test_monitor_never_mutates_protocol_state(self):
        plain = build(seed=3)
        plain.run(300)
        watched = build(seed=3)
        monitor = LinkHealthMonitor(watched)
        monitored_run(watched, monitor, 300)
        assert [asdict(r) for r in plain.records] == [
            asdict(r) for r in watched.records
        ]

    def test_report_covers_every_tag(self):
        net = build()
        monitor = LinkHealthMonitor(net)
        monitored_run(net, monitor, 50)
        report = monitor.report()
        assert sorted(report) == sorted(PERIODS)
        assert all("consecutive_missed" in doc for doc in report.values())
