PYTHON ?= python
export PYTHONPATH := src

.PHONY: test coverage bench bench-smoke bench-e2e-smoke bench-waveform bench-fleet bench-compare chaos-smoke figT figM figA results report api-index

test:
	$(PYTHON) -m pytest -x -q

# Line-coverage ratchet (requires pytest-cov; mirrors the CI job).
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-fail-under=80

bench:
	$(PYTHON) -m pytest benchmarks -q

# Quick smoke subset (all three fidelity tiers + event engine + DSP
# loop), snapshotted to BENCH_<git-rev>.json for bench-compare, plus
# the waveform-tier throughput snapshot BENCH_waveform.json (diff it
# against the committed benchmarks/BENCH_waveform.json baseline).
bench-smoke:
	$(PYTHON) tools/bench_smoke.py

# End-to-end benchmark, smoke mode (~15 s): every workload once plus a
# traced pass, which fails if a refactor deletes an attribute the span
# table wraps.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke --out BENCH_e2e_smoke.json

# Waveform-tier slots/s snapshot only (fast + reference legs), then
# diff against the committed baseline.
bench-waveform:
	$(PYTHON) tools/bench_smoke.py --waveform-only
	$(PYTHON) tools/bench_compare.py benchmarks/BENCH_waveform.json BENCH_waveform.json

# Fleet-tier aggregate tag-slots/s snapshot (batch engine at each
# fleet width plus the sequential baseline), then diff against the
# committed baseline.
bench-fleet:
	$(PYTHON) tools/bench_smoke.py --fleet-only
	$(PYTHON) tools/bench_compare.py benchmarks/BENCH_fleet.json BENCH_fleet.json

# Random-seed resilience chaos trials; the seed is logged for replay.
chaos-smoke:
	$(PYTHON) tools/chaos_smoke.py

# Multi-reader scaling sweep (planned vs shared carrier) plus the
# single-reader zero-cost-off overhead gate (mirrors the CI figT job).
figT:
	$(PYTHON) -m repro figT
	$(PYTHON) tools/bench_smoke.py --multireader-only

# Relay depth ladder (direct-only vs relaying) plus the relay-off
# zero-cost overhead gate (mirrors the CI figM job).
figM:
	$(PYTHON) -m repro figM
	$(PYTHON) tools/bench_smoke.py --relay-only

# Adaptive-bitrate sweep (adaptive vs every fixed modulation/rate;
# mirrors the CI figA job).
figA:
	$(PYTHON) -m repro figA

# Usage: make bench-compare BEFORE=BENCH_old.json AFTER=BENCH_new.json
bench-compare:
	$(PYTHON) tools/bench_compare.py $(BEFORE) $(AFTER)

results:
	$(PYTHON) -m repro results --telemetry --out results.json

# Telemetry scorecard from a results document or telemetry JSONL.
# Usage: make report IN=results.json
report:
	$(PYTHON) -m repro report --input $(IN)

api-index:
	$(PYTHON) tools/gen_api_index.py
