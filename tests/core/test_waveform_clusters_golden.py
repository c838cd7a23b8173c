"""Golden IQ-cluster counts for the 8-tag steady-state waveform network.

The waveform goldens in ``tests/golden/waveform_*.json`` hold only a
few dozen slots, of which ~17 reach three or more IQ clusters — too few
to pin the collision detector (:func:`repro.phy.iq.detect_collision_iq`)
across its branches.  This document records, for 256 slots at seeds 0
and 1 of the eight-tag topology the ``waveform_steady`` benchmark runs,
each slot's transmitters, decoded tag ids and cluster count.  It is
compared byte for byte on both kernel backends.

Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python -m pytest tests/core/test_waveform_clusters_golden.py --regen-golden

and review the diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.core.network import NetworkConfig
from repro.core.waveform_network import WaveformNetwork
from repro.phy import cache as phy_cache
from repro.phy import kernels

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "golden"
    / "waveform_steady_clusters.json"
)

#: Eight tags, two per period class (the ``waveform_steady`` topology).
PERIODS = {
    "tag1": 4,
    "tag4": 4,
    "tag5": 8,
    "tag8": 8,
    "tag9": 16,
    "tag11": 16,
    "tag12": 32,
    "tag3": 32,
}
SEEDS = (0, 1)
SLOTS = 256


def _document() -> str:
    runs = {}
    for seed in SEEDS:
        phy_cache.clear_caches()
        net = WaveformNetwork(PERIODS, config=NetworkConfig(seed=seed))
        net.run(SLOTS)
        runs[str(seed)] = [
            [log.slot, list(log.transmitters), list(log.decoded_tids),
             log.n_clusters]
            for log in net.slot_logs
        ]
    doc = {"periods": PERIODS, "slots": SLOTS, "runs": runs}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _backends():
    names = ["numpy"]
    kernels.kernel_info()
    if kernels._compiled is not None:
        names.append("cext")
    return names


@pytest.mark.parametrize("backend", ["numpy", "cext"])
def test_cluster_counts_match_golden(backend, regen_golden):
    if backend not in _backends():
        pytest.skip("compiled kernel backend unavailable")
    try:
        with kernels.use_backend(backend):
            text = _document()
    finally:
        phy_cache.clear_caches()
    if regen_golden and backend == "numpy":
        GOLDEN.write_text(text, encoding="utf-8")
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_golden_exercises_the_collision_branch():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    counts = [row[3] for run in doc["runs"].values() for row in run]
    assert sum(c > 2 for c in counts) >= 50
    assert {0, 1, 2} <= set(counts)
