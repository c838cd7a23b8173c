#!/usr/bin/env python
"""Randomised chaos smoke for the resilience layer.

Unlike the deterministic chaos suite (tests/resilience/), this tool
draws a *fresh* seed on every run and logs it before doing anything
else, so a CI failure is always reproducible:

    python tools/chaos_smoke.py --seed <logged seed>

Each trial generates a random fault schedule over the standard fault
scenario population, runs it under a supervised network with the
default recovery policies, and asserts the safety net:

* the run completes with one record per slot,
* no MAC invariant is violated and the escalation ladder stays idle,
* once the last fault clears, the network reconverges, and
* a no-policy supervised replay is byte-identical to the plain run
  (the zero-cost-when-off contract).

Usage:
    python tools/chaos_smoke.py                   # random seed, 5 trials
    python tools/chaos_smoke.py --seed 123456     # reproduce a failure
    python tools/chaos_smoke.py --trials 20 --n-faults 8
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from dataclasses import asdict
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.channel import deep_structure
from repro.channel.medium import AcousticMedium
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.scenarios import SCENARIO_PERIODS
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.relay import RelaySlottedNetwork
from repro.resilience import (
    NetworkSupervisor,
    RelayFallbackPolicy,
    default_policies,
)

#: Protocol-level fault kinds the recovery policies target.
RECOVERY_KINDS = ("beacon_loss", "brownout", "harvester_collapse", "reader_restart")

MEASURE_SLOTS = 400
CONVERGE_BUDGET = 20_000

RELAY_SLOTS = 600
RELAY_PERIODS = {f"tag{i}": 8 for i in range(1, 7)}


def run_trial(seed: int, n_faults: int, max_duration: int) -> List[str]:
    """One chaos trial; returns a list of failure descriptions (empty = pass)."""
    failures: List[str] = []
    schedule = FaultSchedule.generate(
        seed=seed,
        n_slots=MEASURE_SLOTS,
        tags=sorted(SCENARIO_PERIODS),
        kinds=RECOVERY_KINDS,
        n_faults=n_faults,
        max_duration=max_duration,
        start_slot=50,
    )
    n_slots = MEASURE_SLOTS + schedule.last_clear_slot

    def build():
        return SlottedNetwork(
            SCENARIO_PERIODS,
            config=NetworkConfig(seed=seed, ideal_channel=True),
            faults=schedule,
        )

    net = build()
    supervisor = NetworkSupervisor(net)
    supervisor.run(n_slots)

    if len(net.records) != n_slots:
        failures.append(f"run truncated: {len(net.records)}/{n_slots} records")
    if supervisor.violations:
        failures.append(
            f"{len(supervisor.violations)} invariant violation(s): "
            f"{supervisor.violations[0].to_jsonable()}"
        )
    if supervisor.escalations:
        failures.append(
            f"escalation ladder fired: "
            f"{[e.level for e in supervisor.escalations]}"
        )
    if supervisor.run_until_converged(max_slots=CONVERGE_BUDGET) is None:
        failures.append(f"no reconvergence within {CONVERGE_BUDGET} slots")

    # Zero-cost contract: supervision with no policies must not perturb
    # the trace, faults and all.
    plain = build()
    plain.run(n_slots)
    off = build()
    NetworkSupervisor(off, policies=()).run(n_slots)
    if [asdict(r) for r in plain.records] != [asdict(r) for r in off.records]:
        failures.append("no-policy supervised trace diverged from plain run")

    return failures


def run_relay_trial(seed: int, n_faults: int, max_duration: int) -> List[str]:
    """One relay-tier chaos trial on the junction-depth ladder.

    Shadowed tags (depth >= 3) get rescued over tag-to-tag routes; the
    generated schedule browns relays out mid-route, freezes the relay
    table, and attenuates direct uplinks.  The safety net: the run
    completes cleanly, routes engage and actually deliver, and a
    relay-off replay is byte-identical to a plain network under the
    same schedule (the zero-cost-when-off contract of the relay tier).
    """
    failures: List[str] = []
    schedule = FaultSchedule.generate(
        seed=seed,
        n_slots=RELAY_SLOTS,
        tags=["tag1", "tag2", "tag3", "tag4"],
        kinds=("relay_brownout", "relay_table_stale", "attenuation"),
        n_faults=n_faults,
        max_duration=max_duration,
        start_slot=150,
    )
    n_slots = max(RELAY_SLOTS, schedule.last_clear_slot + 100)

    def build(relaying: bool):
        return RelaySlottedNetwork(
            dict(RELAY_PERIODS),
            config=NetworkConfig(seed=seed),
            medium=AcousticMedium(biw=deep_structure(), reference_tag="tag1"),
            faults=schedule,
            relaying_enabled=relaying,
        )

    net = build(True)
    supervisor = NetworkSupervisor(
        net, policies=default_policies() + [RelayFallbackPolicy()]
    )
    supervisor.run(n_slots)

    if len(net.records) != n_slots:
        failures.append(f"run truncated: {len(net.records)}/{n_slots} records")
    if supervisor.violations:
        failures.append(
            f"{len(supervisor.violations)} invariant violation(s): "
            f"{supervisor.violations[0].to_jsonable()}"
        )
    if supervisor.escalations:
        failures.append(
            f"escalation ladder fired: "
            f"{[e.level for e in supervisor.escalations]}"
        )
    engaged = {entry[2] for entry in net.relay_log if entry[1] == "relay.engage"}
    if not engaged:
        failures.append("no relay route ever engaged on the deep ladder")
    delivered = sum(
        1 for entry in net.relay_log if entry[1] == "relay.deliver"
    )
    if not delivered:
        failures.append("relay routes engaged but delivered nothing")

    # Zero-cost contract: a relay network with relaying disabled must
    # replay byte-identically to the plain slot network, faults and all.
    off = build(False)
    off.run(n_slots)
    plain = SlottedNetwork(
        dict(RELAY_PERIODS),
        config=NetworkConfig(seed=seed),
        medium=AcousticMedium(biw=deep_structure(), reference_tag="tag1"),
        faults=schedule,
    )
    plain.run(n_slots)
    if [asdict(r) for r in off.records] != [asdict(r) for r in plain.records]:
        failures.append("relay-off trace diverged from plain run")

    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Random-seed chaos smoke for the resilience layer."
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: random; always logged for replay)",
    )
    parser.add_argument("--trials", type=int, default=5, help="trials to run")
    parser.add_argument(
        "--n-faults", type=int, default=6, help="faults per generated schedule"
    )
    parser.add_argument(
        "--max-duration", type=int, default=12, help="max fault duration in slots"
    )
    args = parser.parse_args(argv)

    master = args.seed if args.seed is not None else secrets.randbelow(2**31)
    print(f"chaos-smoke master seed: {master}")
    print(f"replay with: python tools/chaos_smoke.py --seed {master} "
          f"--trials {args.trials} --n-faults {args.n_faults} "
          f"--max-duration {args.max_duration}")

    failed = 0
    for trial in range(args.trials):
        seed = master + trial
        failures = run_trial(seed, args.n_faults, args.max_duration)
        verdict = "ok" if not failures else "FAIL"
        print(f"  trial {trial} (seed {seed}): {verdict}")
        for failure in failures:
            print(f"    - {failure}")
        failed += bool(failures)

    # Relay-tier trials: longer windows so routes engage before the
    # faults land, so fewer of them.
    relay_trials = max(1, args.trials // 2)
    for trial in range(relay_trials):
        seed = master + args.trials + trial
        failures = run_relay_trial(seed, args.n_faults, args.max_duration)
        verdict = "ok" if not failures else "FAIL"
        print(f"  relay trial {trial} (seed {seed}): {verdict}")
        for failure in failures:
            print(f"    - {failure}")
        failed += bool(failures)

    total = args.trials + relay_trials
    print(f"{total - failed}/{total} trials passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
