"""Checks on the end-to-end benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke pass runs ``run.py --smoke`` once (scaled-down lengths, one
traced cycle per workload, well under 20 s) and the tests read its
ledger.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = sorted(workloads.WORKLOADS)


def test_every_span_target_resolves_to_a_callable():
    for span, module, attribute in spans.SPANS:
        _, _, raw = spans.resolve(module, attribute)
        target = raw.__func__ if isinstance(raw, staticmethod) else raw
        assert callable(target), (span, module, attribute)


def test_tracer_restores_every_target():
    before = [spans.resolve(m, a)[2] for _, m, a in spans.SPANS]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [spans.resolve(m, a)[2] for _, m, a in spans.SPANS] == before


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_digests_equal_traced_and_untraced(smoke_ledger, name):
    entry = smoke_ledger["workloads"][name]
    assert entry["correct"] and entry["failed"] == 0
    traced = entry["traced_digests"]
    assert traced and traced == entry["digests"]["units"][: len(traced)]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_unattributed_share_under_ten_percent(smoke_ledger, name):
    per_layer = smoke_ledger["workloads"][name]["per_layer"]
    assert per_layer["unattributed.share"]["value"] < 0.10


# One continuing workload (windows on one network) and one replayable
# one (every unit repeats the same sweep).
@pytest.mark.parametrize("name", ["waveform_steady", "fleet_sweep"])
def test_expected_digests_gate_every_unit(name):
    honest = workloads.measure(name, seed=0, seconds=0.0, smoke=True)
    expected = {
        "setup": honest["setup_digest"],
        "units": [u["digest"] for u in honest["units"]],
    }
    again = workloads.measure(name, seed=0, seconds=0.0, smoke=True, expected=expected)
    assert not any(u["failed"] for u in again["units"])

    tampered = dict(expected, units=["0" * 64])
    bad = workloads.measure(name, seed=0, seconds=0.0, smoke=True, expected=tampered)
    error_rate = sum(u["failed"] for u in bad["units"]) / len(bad["units"])
    assert error_rate == 1.0
