"""Golden document for the whole paper-figure path.

``collect_results(seed=0, quick=True)`` runs every figure job (Table 2,
Figs. 11-19 and Fig. S) through the slot loop, both MAC ends, the
channel's arbitration, the fault controller and the supervisor.  Its
document must replay byte-for-byte against the checked-in JSON, in the
compact canonical form ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))``.  Regenerate (after an intentional behaviour
change) with::

    PYTHONPATH=src python -m pytest tests/experiments/test_results_golden.py --regen-golden

and review the golden diff like any other code change.
"""

import json
from pathlib import Path

from repro.experiments.runner import collect_results

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "results_quick.json"


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_quick_results_document_matches_golden(regen_golden):
    produced = canonical(collect_results(seed=0, quick=True))
    if regen_golden:
        GOLDEN.write_bytes(produced)
    assert produced == GOLDEN.read_bytes(), (
        "the quick results document drifted from tests/golden/"
        "results_quick.json; if the change is intentional, regenerate "
        "with --regen-golden"
    )
