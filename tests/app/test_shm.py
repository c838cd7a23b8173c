"""Tests for the SHM application layer."""

import pytest

from repro.app.shm import (
    Alarm,
    AlarmKind,
    Report,
    ShmMonitor,
    StrainField,
    collect_reports,
)
from repro.core.reader_protocol import SlotRecord
from repro.hardware.strain import StrainSensorModule


def rec(slot, decoded):
    return SlotRecord(
        slot=slot,
        n_transmitters=1 if decoded else 0,
        decoded=decoded,
        collision_detected=False,
        acked=decoded is not None,
        empty_flag=False,
    )


@pytest.fixture()
def sensors():
    return {"tagA": StrainSensorModule(), "tagB": StrainSensorModule()}


@pytest.fixture()
def monitor(sensors):
    return ShmMonitor({"tagA": 4, "tagB": 8}, sensors)


class TestStrainField:
    def test_baseline_and_drift(self):
        f = StrainField(
            baseline={"tagA": 1e-4}, drift_per_slot={"tagA": 1e-6}
        )
        assert f.strain_at("tagA", 0) == pytest.approx(1e-4)
        assert f.strain_at("tagA", 100) == pytest.approx(2e-4)

    def test_event_steps_strain(self):
        f = StrainField()
        f.inject_event(50, "tagA", 5e-4)
        assert f.strain_at("tagA", 49) == 0.0
        assert f.strain_at("tagA", 50) == pytest.approx(5e-4)
        assert f.strain_at("tagA", 200) == pytest.approx(5e-4)

    def test_events_are_per_tag(self):
        f = StrainField()
        f.inject_event(10, "tagA", 1e-3)
        assert f.strain_at("tagB", 100) == 0.0


class TestCollectReports:
    def test_only_decoded_slots_produce_reports(self, sensors):
        field = StrainField(baseline={"tagA": 1e-4})
        records = [rec(0, "tagA"), rec(1, None), rec(2, "tagA")]
        reports = collect_reports(records, field, sensors)
        assert [r.slot for r in reports] == [0, 2]

    def test_reconstructed_voltage_tracks_strain(self, sensors):
        small = StrainField(baseline={"tagA": 1e-5})
        large = StrainField(baseline={"tagA": 5e-4})
        r_small = collect_reports([rec(0, "tagA")], small, sensors)[0]
        r_large = collect_reports([rec(0, "tagA")], large, sensors)[0]
        assert r_large.voltage_v > r_small.voltage_v

    def test_unknown_tags_skipped(self, sensors):
        reports = collect_reports([rec(0, "tagZ")], StrainField(), sensors)
        assert reports == []


class TestMonitorAlarms:
    def test_no_alarm_at_rest(self, monitor):
        raised = monitor.ingest(Report(0, "tagA", 512, 0.901))
        assert raised == []

    def test_threshold_alarm_on_large_strain(self, monitor):
        raised = monitor.ingest(Report(4, "tagA", 900, 1.58))
        assert any(a.kind is AlarmKind.THRESHOLD for a in raised)

    def test_threshold_alarm_symmetric_for_compression(self, monitor):
        # Bending the other way drives the voltage toward 0 V; the
        # deviation from mid-rail is what matters.
        raised = monitor.ingest(Report(4, "tagA", 100, 0.30))
        assert any(a.kind is AlarmKind.THRESHOLD for a in raised)

    def test_trend_alarm_on_fast_drift(self, monitor):
        for k in range(8):
            monitor.ingest(Report(4 * k, "tagA", 500, 0.9 + 0.01 * k))
        assert any(a.kind is AlarmKind.TREND for a in monitor.alarms)

    def test_no_trend_alarm_for_slow_drift(self, monitor):
        for k in range(8):
            monitor.ingest(Report(4 * k, "tagA", 500, 0.9 + 1e-6 * k))
        assert not any(a.kind is AlarmKind.TREND for a in monitor.alarms)

    def test_stale_alarm_when_reports_stop(self, monitor):
        monitor.ingest(Report(0, "tagA", 500, 0.9))
        assert monitor.check_staleness(5) == []  # 5 slots < 3 periods
        raised = monitor.check_staleness(20)  # > 3 x period 4
        assert len(raised) == 1
        assert raised[0].kind is AlarmKind.STALE
        assert raised[0].tag == "tagA"

    def test_stale_alarm_raised_once_per_dark_stretch(self, monitor):
        monitor.ingest(Report(0, "tagA", 500, 0.9))
        monitor.check_staleness(20)
        assert monitor.check_staleness(30) == []  # already alarmed
        monitor.ingest(Report(32, "tagA", 500, 0.9))  # back alive
        raised = monitor.check_staleness(60)  # dark again
        assert len(raised) == 1

    def test_never_reported_tag_not_stale(self, monitor):
        # A tag that has not charged yet is expected-late, not stale.
        assert monitor.check_staleness(1000) == []

    def test_unknown_tag_reports_ignored(self, monitor):
        assert monitor.ingest(Report(0, "tagZ", 1, 0.9)) == []


class TestAnalytics:
    def test_trend_requires_history(self, monitor):
        assert monitor.trend_v_per_slot("tagA") is None
        for k in range(4):
            monitor.ingest(Report(k, "tagA", 500, 0.9))
        assert monitor.trend_v_per_slot("tagA") is not None

    def test_trend_slope_sign(self, monitor):
        for k in range(10):
            monitor.ingest(Report(k, "tagA", 500, 0.9 + 0.002 * k))
        assert monitor.trend_v_per_slot("tagA") == pytest.approx(0.002, rel=0.05)

    def test_summary_shape(self, monitor):
        monitor.ingest(Report(0, "tagA", 500, 0.9))
        s = monitor.summary()
        assert s["tagA"]["reports"] == 1.0
        assert s["tagA"]["last_voltage_v"] == pytest.approx(0.9)

    def test_validation(self, sensors):
        with pytest.raises(ValueError):
            ShmMonitor({"tagA": 4}, sensors, voltage_limit_v=0.0)
        with pytest.raises(ValueError):
            ShmMonitor({"tagA": 4}, sensors, staleness_periods=0.5)


class TestEndToEnd:
    def test_damage_event_detected_through_real_network(self, medium):
        """Network + strain field + monitor: inject damage, see alarm."""
        from repro.core.network import NetworkConfig, SlottedNetwork

        periods = {"tag5": 4, "tag6": 8, "tag9": 8}
        sensors = {t: StrainSensorModule() for t in periods}
        field = StrainField(baseline={t: 2e-5 for t in periods})
        field.inject_event(250, "tag5", 2.5e-3)  # impact near tag5

        net = SlottedNetwork(
            periods, medium, NetworkConfig(seed=4, ideal_channel=True)
        )
        monitor = ShmMonitor(periods, sensors)
        records = net.run(400)
        for report in collect_reports(records, field, sensors):
            monitor.ingest(report)
        threshold_alarms = [
            a for a in monitor.alarms if a.kind is AlarmKind.THRESHOLD
        ]
        assert threshold_alarms
        assert all(a.tag == "tag5" for a in threshold_alarms)
        assert min(a.slot for a in threshold_alarms) >= 250


class TestEnergyCoupledStaleness:
    def test_brownout_surfaces_as_staleness_alarm(self, medium):
        """Full loop: an over-budget sensing load browns the weak tag
        out; its reports stop; the monitor raises STALE — the way a
        fleet operator would actually notice the energy problem."""
        from repro.core.energy_network import EnergyAwareNetwork
        from repro.core.network import NetworkConfig

        periods = {"tag11": 4, "tag8": 4}
        sensors = {t: StrainSensorModule() for t in periods}
        field = StrainField(baseline={t: 2e-5 for t in periods})
        net = EnergyAwareNetwork(
            periods,
            medium,
            NetworkConfig(seed=1, ideal_channel=True),
            sensor_samples_per_slot=60,  # ~60 uW: exceeds tag11's budget
        )
        monitor = ShmMonitor(periods, sensors, staleness_periods=3.0)
        stale_tags = set()
        for chunk in range(20):
            records = net.run(100)
            for report in collect_reports(records, field, sensors):
                monitor.ingest(report)
            for alarm in monitor.check_staleness((chunk + 1) * 100):
                stale_tags.add(alarm.tag)
        assert net.energy_log["tag11"].brownouts > 0
        assert "tag11" in stale_tags
        assert "tag8" not in stale_tags

