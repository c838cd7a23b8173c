"""Future-work extension benches (Secs. 2.2 and 6.3 discussions).

Quantifies what each named extension buys over the baseline system:
ambient harvesting (charging speedup while driving), M-ASK (throughput
multiplication where SNR allows), FDMA (capacity beyond one packet per
slot), and a second reader (worst-case harvest + convergence at high
load).
"""

import numpy as np
import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.configs import pattern
from repro.ext.ambient import DrivingCondition, HybridHarvester
from repro.ext.mask import MultiLevelBackscatter, viable_tags_for_mask
from repro.multireader import FdmaNetwork, MultiReaderDeployment


def test_ext_ambient_harvesting(benchmark, medium):
    def run():
        h = HybridHarvester()
        out = {}
        for tag in ("tag8", "tag4", "tag11"):
            vp = medium.carrier_amplitude_v(tag)
            out[tag] = {
                cond: (h.charge_time_s(vp, cond), h.speedup(vp, cond))
                for cond in DrivingCondition
            }
        return out

    results = benchmark(run)
    assert results["tag11"][DrivingCondition.HIGHWAY][1] > 2.0
    print("\nExtension: ambient harvesting (charge time / speedup):")
    for tag, by_cond in results.items():
        cells = "  ".join(
            f"{c.value}:{t:.1f}s({s:.1f}x)" for c, (t, s) in by_cond.items()
        )
        print(f"  {tag}: {cells}")


def test_ext_mask_throughput(benchmark, medium):
    def run():
        rows = []
        for levels in (2, 4, 8):
            for baud in (187.5, 750.0, 1500.0):
                mod = MultiLevelBackscatter(levels=levels, symbol_rate_baud=baud)
                viable, _ = viable_tags_for_mask(medium, levels, baud)
                rows.append((levels, baud, mod.throughput_bps(), len(viable)))
        return rows

    rows = benchmark(run)
    by_key = {(m, b): (tp, v) for m, b, tp, v in rows}
    # 4-ASK doubles throughput and the whole deployment supports it at
    # the conservative symbol rate...
    assert by_key[(4, 187.5)][0] == 2 * by_key[(2, 187.5)][0]
    assert by_key[(4, 187.5)][1] == 12
    # ...but the far tags drop out as the symbol rate rises.
    assert by_key[(4, 1500.0)][1] < 12
    print("\nExtension: M-ASK (throughput bps / viable tags of 12):")
    for m, b, tp, v in rows:
        print(f"  {m}-ASK @{b:g} baud: {tp:g} bps, {v}/12 tags viable")


def test_ext_fdma_capacity(benchmark, medium):
    def run():
        periods = {f"tag{i}": 4 for i in range(1, 13)}  # demand U = 3.0
        net = FdmaNetwork(
            periods, medium=medium, config=NetworkConfig(seed=2, ideal_channel=True)
        )
        conv = net.run_until_converged(max_slots=50_000)
        net.run(400)
        return net.n_active_channels, conv, net.aggregate_goodput()

    channels, conv, goodput = benchmark.pedantic(run, rounds=1, iterations=1)
    assert channels == 3
    assert conv is not None
    assert goodput > 1.5  # beyond the single-carrier ceiling of 1.0
    print(
        f"\nExtension: FDMA — 12 tags at period 4 (demand 3.0x capacity): "
        f"{channels} channels, converged in {conv} slots, aggregate "
        f"goodput {goodput:.2f} packets/slot (single-carrier max: 1.0)"
    )


def test_ext_multireader(benchmark, medium):
    def run():
        d = MultiReaderDeployment()
        single_worst, multi_worst = d.worst_case_improvement()
        periods = pattern("c5").tag_periods()
        nets = d.build_networks(periods, NetworkConfig(seed=3, ideal_channel=True))
        multi_conv = max(
            n.run_until_converged(max_slots=60_000) or 60_000 for n in nets.values()
        )
        baseline = SlottedNetwork(
            periods, config=NetworkConfig(seed=3, ideal_channel=True)
        )
        single_conv = baseline.run_until_converged(max_slots=60_000) or 60_000
        return single_worst, multi_worst, single_conv, multi_conv

    single_t, multi_t, single_c, multi_c = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert multi_t < 0.8 * single_t
    print(
        f"\nExtension: second reader in the cargo area —\n"
        f"  worst-case charge time: {single_t:.1f} s -> {multi_t:.1f} s\n"
        f"  c5 (U=1.0) convergence: {single_c} slots -> {multi_c} slots "
        f"(split domains)"
    )


def test_ext_parallel_decoding(benchmark, medium):
    """FlipTracer-style collision separation: packets harvested from
    slots the baseline reader would burn with a NACK."""
    import numpy as np

    from repro.ext.parallel import ParallelCollisionDecoder
    from repro.phy.modem import BackscatterUplink
    from repro.phy.packets import UplinkPacket

    def run():
        uplink = BackscatterUplink(pzt=medium.pzt)
        decoder = ParallelCollisionDecoder()
        rng = np.random.default_rng(5)
        trials = 16
        both = one = 0
        for t in range(trials):
            p1, p2 = UplinkPacket(1, 100 + t), UplinkPacket(2, 2000 + t)
            c1 = uplink.tag_component(
                p1.to_bits(), 375.0, 0.02,
                phase_rad=float(rng.uniform(0, 2 * np.pi)),
            )
            c2 = uplink.tag_component(
                p2.to_bits(), 375.0, 0.011,
                phase_rad=float(rng.uniform(0, 2 * np.pi)), delay_s=0.004,
            )
            cap = uplink.capture([c1, c2], 2.673e-10, rng, extra_samples=3000)
            got = decoder.decode(cap, 375.0)
            n = sum(p in got for p in (p1, p2))
            both += n == 2
            one += n == 1
        return trials, both, one

    trials, both, one = benchmark.pedantic(run, rounds=1, iterations=1)
    assert both + one >= trials // 2
    print(
        f"\nExtension: parallel collision decoding — of {trials} two-tag "
        f"collisions: both packets {both}, one packet {one}, none "
        f"{trials - both - one} (baseline reader recovers zero)"
    )


def test_ext_rate_adaptation(benchmark, medium):
    """Per-tag rate adaptation: the fastest reliable rate per link,
    shrinking airtime and TX energy where Fig. 12's SNR headroom allows."""
    from repro.ext.rate_adaptation import RateAdapter
    from repro.experiments.configs import pattern

    def run():
        adapter = RateAdapter(medium)
        assignments = adapter.assign_all()
        base, adapted = adapter.airtime_savings(pattern("c2").tag_periods())
        energy = adapter.energy_savings_per_report()
        return assignments, base, adapted, energy

    assignments, base, adapted, energy = benchmark(run)
    assert adapted < base
    print(
        "\nExtension: rate adaptation (fastest reliable rate per tag):"
    )
    for tag in ("tag8", "tag4", "tag11"):
        a = assignments[tag]
        print(
            f"  {tag}: {a.rate_bps:g} bps, airtime {a.airtime_s * 1e3:.0f} ms, "
            f"TX energy ratio {energy[tag]:.2f}"
        )
    print(
        f"  fleet airtime per slot (c2 schedule): {base * 1e3:.1f} ms -> "
        f"{adapted * 1e3:.1f} ms"
    )
