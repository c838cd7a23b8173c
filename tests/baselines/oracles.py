"""Test oracle for the ALOHA baseline.

``AlohaSimulation`` draws each tag's charging cycles as one block of
normals and flags overlaps from neighbouring starts.  What it must equal,
start for start and draw for draw, is the event-by-event loop below,
kept as its executable specification: one normal per cycle, then a
window sweep over the sorted starts.  Nothing in ``src/`` imports this
module.

Import it as ``from baselines.oracles import ...`` (``tests/`` is on the
test path).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.aloha import AlohaResult, AlohaSimulation, TagAlohaStats


def tag_transmission_starts_reference(
    sim: AlohaSimulation, full_charge_s: float, rng: np.random.Generator
) -> np.ndarray:
    """One tag's transmission starts, one cycle and one draw at a time."""
    starts: List[float] = []
    t = full_charge_s * max(0.0, 1.0 + sim.noise_std * rng.normal())
    while t < sim.duration_s:
        starts.append(t)
        recharge = (
            full_charge_s
            * sim.resume_fraction
            * max(0.0, 1.0 + sim.noise_std * rng.normal())
        )
        t += sim.packet_duration_s + recharge
    return np.asarray(starts)


def run_reference(
    sim: AlohaSimulation,
) -> Tuple[AlohaResult, List[np.ndarray], List[dict]]:
    """``sim.run()`` with the loop above and a pairwise window sweep,
    plus each tag's starts and the generator state after it (tags in
    sorted order)."""
    rng = np.random.default_rng(sim.seed)
    tags = sorted(sim.charge_times_s)
    events: List[Tuple[float, int]] = []  # (start, tag_index)
    counts: List[int] = []
    per_tag_starts: List[np.ndarray] = []
    states: List[dict] = []
    for idx, tag in enumerate(tags):
        starts = tag_transmission_starts_reference(
            sim, sim.charge_times_s[tag], rng
        )
        per_tag_starts.append(starts)
        states.append(rng.bit_generator.state)
        counts.append(len(starts))
        events.extend((float(s), idx) for s in starts)
    events.sort()

    collided = [0] * len(tags)
    collided_flags = [False] * len(events)
    for i in range(len(events)):
        start_i, _ = events[i]
        j = i + 1
        while j < len(events) and events[j][0] - start_i < sim.packet_duration_s:
            collided_flags[i] = True
            collided_flags[j] = True
            j += 1
    for flag, (_, tag_idx) in zip(collided_flags, events):
        if flag:
            collided[tag_idx] += 1

    per_tag = {
        tag: TagAlohaStats(
            tag=tag,
            charge_time_s=sim.charge_times_s[tag],
            total_tx=counts[idx],
            collided_tx=collided[idx],
        )
        for idx, tag in enumerate(tags)
    }
    result = AlohaResult(per_tag=per_tag, duration_s=sim.duration_s)
    return result, per_tag_starts, states
