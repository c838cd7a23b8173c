"""Tests for the perf instrumentation registry and wall-clock guards.

Ratio-based speed checks (vectorised vs reference implementation) run
unconditionally: they compare the machine against itself, so they hold
on slow CI runners.  Absolute wall-clock budgets are only meaningful on
calibrated hardware and are gated behind ``REPRO_PERF_STRICT=1``.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.perf import PerfRegistry, StageStats, merge_reports

PERF_STRICT = os.environ.get("REPRO_PERF_STRICT") == "1"

strict_only = pytest.mark.skipif(
    not PERF_STRICT,
    reason="absolute wall-clock budget; set REPRO_PERF_STRICT=1 to enforce",
)


class TestStageStats:
    def test_record_accumulates(self):
        stats = StageStats()
        stats.record(0.5)
        stats.record(1.5)
        assert stats.calls == 2
        assert stats.total_s == pytest.approx(2.0)
        assert stats.mean_s == pytest.approx(1.0)
        assert stats.min_s == pytest.approx(0.5)
        assert stats.max_s == pytest.approx(1.5)

    def test_empty_as_dict_has_finite_min(self):
        d = StageStats().as_dict()
        assert d["calls"] == 0
        assert d["min_s"] == 0.0
        json.dumps(d)


class TestPerfRegistry:
    def test_timed_records_span(self):
        reg = PerfRegistry()
        with reg.timed("stage.a"):
            pass
        report = reg.report()
        assert report["stages"]["stage.a"]["calls"] == 1
        assert report["stages"]["stage.a"]["total_s"] >= 0.0

    def test_timed_records_on_exception(self):
        reg = PerfRegistry()
        with pytest.raises(RuntimeError):
            with reg.timed("stage.boom"):
                raise RuntimeError("x")
        assert reg.report()["stages"]["stage.boom"]["calls"] == 1

    def test_counters(self):
        reg = PerfRegistry()
        reg.count("hits")
        reg.count("hits", 4)
        assert reg.report()["counters"]["hits"] == 5

    def test_reset(self):
        reg = PerfRegistry()
        reg.count("hits")
        with reg.timed("s"):
            pass
        reg.reset()
        assert reg.report() == {"stages": {}, "counters": {}}

    def test_report_is_json_serialisable(self):
        reg = PerfRegistry()
        with reg.timed("s"):
            reg.count("c", 3)
        json.dumps(reg.report())

    def test_thread_safety_of_counters(self):
        reg = PerfRegistry()

        def bump():
            for _ in range(1000):
                reg.count("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.report()["counters"]["n"] == 4000

    def test_module_level_registry_instrumented_by_waveform_loop(self, medium):
        from repro import perf
        from repro.core.network import NetworkConfig
        from repro.core.waveform_network import WaveformNetwork

        perf.reset()
        net = WaveformNetwork(
            {"tag8": 2}, medium=medium, config=NetworkConfig(seed=0)
        )
        net.run(4)
        report = perf.report()
        assert report["stages"]["waveform.synthesize"]["calls"] >= 1
        assert report["stages"]["waveform.demodulate"]["calls"] >= 1
        assert report["counters"]["waveform.slots"] >= 1


class TestCrossProcessMerge:
    """merge_report/merge_reports: the parallel runner's aggregation
    path, including the never-called-stage min_s regression."""

    def test_merge_report_adds_stages_and_counters(self):
        a, b = PerfRegistry(), PerfRegistry()
        with a.timed("s"):
            pass
        a.count("c", 2)
        with b.timed("s"):
            pass
        b.count("c", 3)
        a.merge_report(b.report())
        report = a.report()
        assert report["stages"]["s"]["calls"] == 2
        assert report["counters"]["c"] == 5

    def test_never_called_stage_reports_zero_min_not_inf(self):
        reg = PerfRegistry()
        reg.stage("quiet")  # pre-registered, never fired
        d = reg.report()["stages"]["quiet"]
        assert d["calls"] == 0
        assert d["min_s"] == 0.0
        json.dumps(d, allow_nan=False)

    def test_merging_empty_stage_does_not_poison_min(self):
        # Regression: a never-called stage snapshots min_s as 0.0; on
        # merge that 0.0 must not masquerade as a real fastest span.
        active = PerfRegistry()
        with active.timed("s"):
            time.sleep(0.001)
        real_min = active.report()["stages"]["s"]["min_s"]
        assert real_min > 0.0

        idle = PerfRegistry()
        idle.stage("s")  # calls == 0, snapshot min_s == 0.0
        active.merge_report(idle.report())
        assert active.report()["stages"]["s"]["min_s"] == real_min

    def test_merging_into_empty_stage_takes_other_min(self):
        idle = PerfRegistry()
        idle.stage("s")
        active = PerfRegistry()
        with active.timed("s"):
            time.sleep(0.001)
        real_min = active.report()["stages"]["s"]["min_s"]
        idle.merge_report(active.report())
        assert idle.report()["stages"]["s"]["min_s"] == real_min

    def test_from_dict_restores_empty_sentinel(self):
        import math

        stats = StageStats.from_dict({"calls": 0, "total_s": 0.0,
                                      "min_s": 0.0, "max_s": 0.0})
        assert stats.min_s == math.inf  # internal sentinel, not 0.0
        stats.record(0.5)
        assert stats.min_s == 0.5

    def test_counter_only_registry_round_trips(self):
        # Regression for the count()-only path: a report with counters
        # but no spans must merge and re-serialise with finite values.
        reg = PerfRegistry()
        reg.count("cache.hit", 7)
        merged = merge_reports([reg.report(), reg.report()])
        assert merged["counters"]["cache.hit"] == 14
        assert merged["stages"] == {}
        json.dumps(merged, allow_nan=False)

    def test_merge_reports_associative(self):
        regs = []
        for calls in (1, 2, 3):
            reg = PerfRegistry()
            for _ in range(calls):
                with reg.timed("s"):
                    pass
            reg.count("c", calls)
            regs.append(reg.report())
        left = merge_reports([merge_reports(regs[:2]), regs[2]])
        right = merge_reports([regs[0], merge_reports(regs[1:])])
        assert left["stages"]["s"]["calls"] == right["stages"]["s"]["calls"] == 6
        assert left["counters"] == right["counters"]


def best_of(n, fn, *args):
    """Best-of-n wall time: the minimum is the least noisy estimator."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class TestWallClockRatios:
    """Self-relative checks: the vectorised hot paths must beat their
    scalar executable specs on the same machine, whatever its speed."""

    def test_level_expansion_beats_scalar_reference(self):
        from phy.oracles import raw_bits_to_levels_reference
        from repro.phy import cache as phy_cache
        from repro.phy.modem import raw_bits_to_levels

        rng = np.random.default_rng(0)
        raw = phy_cache.fm0_raw([int(b) for b in rng.integers(0, 2, 256)])
        raw_list = list(raw)
        # Warm any caches before timing.
        raw_bits_to_levels(raw, 375.0, 500_000.0)
        vec = best_of(3, raw_bits_to_levels, raw, 375.0, 500_000.0)
        ref = best_of(3, raw_bits_to_levels_reference, raw_list, 375.0,
                      500_000.0)
        assert vec < ref, (
            f"vectorised path ({vec:.4f}s) not faster than scalar "
            f"reference ({ref:.4f}s)"
        )

    def test_ook_waveform_beats_scalar_reference(self):
        from phy.oracles import naive_ook_waveform_reference
        from repro.phy.modem import FskOokDownlink

        downlink = FskOokDownlink()
        bits = [1, 0, 1, 1, 0, 1, 0, 0] * 8
        downlink.naive_ook_waveform(bits, 250.0)
        vec = best_of(3, downlink.naive_ook_waveform, bits, 250.0)
        ref = best_of(3, naive_ook_waveform_reference, downlink, bits, 250.0)
        assert vec < ref


class TestWallClockBudgets:
    """Absolute budgets, calibrated for the development machine; gated
    behind REPRO_PERF_STRICT so a loaded CI runner cannot flake them."""

    @strict_only
    def test_slot_network_throughput_budget(self):
        from repro.core.network import NetworkConfig, SlottedNetwork

        net = SlottedNetwork(
            {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16},
            config=NetworkConfig(seed=0, ideal_channel=True),
        )
        elapsed = best_of(1, net.run, 5000)
        assert elapsed < 2.0, f"5000 slots took {elapsed:.2f}s (budget 2s)"

    @strict_only
    def test_fault_controller_overhead_budget(self):
        from repro.core.network import NetworkConfig, SlottedNetwork
        from repro.faults import FaultSchedule

        def run(schedule):
            SlottedNetwork(
                {"tag1": 4, "tag2": 8, "tag3": 8, "tag4": 16},
                config=NetworkConfig(seed=0, ideal_channel=True),
                faults=schedule,
            ).run(3000)

        base = best_of(3, run, None)
        hooked = best_of(3, run, FaultSchedule([]))
        assert hooked < base * 2.0, (
            f"idle fault controller more than doubled the slot loop: "
            f"{base:.3f}s -> {hooked:.3f}s"
        )
