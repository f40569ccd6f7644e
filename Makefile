# Convenience targets for the repro library.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-slow test-faults test-obs test-lint test-cert test-parity test-backend test-dynamic test-byzantine perf-smoke lint lint-cold bench examples report sweep-smoke profile-smoke certify-smoke ledger ledger-quick check clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The multi-worker stress tests skipped by tier-1 (`-m "not slow"` is the
# configured default); CI opts in with this target.
test-slow:
	$(PYTHON) -m pytest tests/ benchmarks/ -m slow

# The fault-injection subsystem end to end: unit/equivalence tests plus
# the E27 degradation benchmarks.
test-faults:
	$(PYTHON) -m pytest tests/ benchmarks/ -m faults

# The observability layer: metrics/export/profile units plus the cache
# accounting and hygiene regressions.
test-obs:
	$(PYTHON) -m pytest tests/ -m obs

# The reprolint self-tests (single-file + whole-program pass), the
# golden-digest pins that back R004, and the lint perf smoke floor.
test-lint:
	$(PYTHON) -m pytest tests/ benchmarks/bench_lint.py -m lint

# The theorem-certification harness: fuzzer/shrinker/artifact units, CLI
# exit codes and golden report, and the E28 margin-trend benchmarks.
test-cert:
	$(PYTHON) -m pytest tests/ benchmarks/ -m cert

# The engine-parity lockdown: fast path vs reference engine vs streaming
# folds, byte-identical summaries (docs/ENGINE.md).
test-parity:
	$(PYTHON) -m pytest tests/ -m parity

# The fault-tolerant campaign stack: retry/lease/manifest units, the
# failure semantics on every backend, the process-pool crash and timeout
# cases, and the SIGKILL chaos acceptance (docs/EXECUTION.md).  The
# explicit `-m backend` overrides the tier-1 `-m "not slow"` default, so
# the slow cases run here too.
test-backend:
	$(PYTHON) -m pytest tests/test_backend.py tests/test_backend_chaos.py \
		tests/test_parallel_equivalence.py -m backend

# The dynamic-topology model end to end: schedule/engine/parity units,
# the network-merge suite on TopologySchedule, and the E24/E30
# merge-and-churn benchmarks (docs/DYNAMIC.md).
test-dynamic:
	$(PYTHON) -m pytest tests/ benchmarks/ -m dynamic

# The Byzantine fault model end to end: corruption-hash units, the
# engine attack/recovery suite, the differential-survival regression,
# and the skew-vs-fraction degradation benchmarks (docs/FAULTS.md).
test-byzantine:
	$(PYTHON) -m pytest tests/ benchmarks/ -m byzantine

# Speedup floors vs the recorded seed baseline JSON (small + mid
# workloads; the full curve runs under `make bench`).
perf-smoke:
	$(PYTHON) -m pytest benchmarks/bench_perf_smoke.py -m perf_smoke

# Determinism & digest-safety gate: the tree must lint clean (modulo the
# committed baseline) before anything ships.  The whole-program pass
# (call graph + R006/R009) always runs; the content-hash cache keeps
# repeat runs fast.
lint:
	$(PYTHON) -m repro lint --cache .reprolint-cache.json src benchmarks

# Proof that the cache is an accelerator, not a source of truth: a cold
# run (cache deleted) and a warm re-run must emit byte-identical JSON.
lint-cold:
	rm -f .reprolint-cache.json
	$(PYTHON) -m repro lint --format json --cache .reprolint-cache.json \
		src benchmarks > .reprolint-cold.json
	$(PYTHON) -m repro lint --format json --cache .reprolint-cache.json \
		src benchmarks > .reprolint-warm.json
	cmp .reprolint-cold.json .reprolint-warm.json
	rm -f .reprolint-cold.json .reprolint-warm.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick end-to-end proof of the parallel sweep executor: a small diameter
# grid through `python -m repro sweep` on every core, cache bypassed.
# The final three commands are the campaign-resume smoke: a chaos run
# that SIGKILLs every work-queue worker must exit non-zero and leave a
# resumable manifest, and the `--resume` run must then complete clean.
sweep-smoke: lint lint-cold profile-smoke certify-smoke perf-smoke
	$(PYTHON) -m repro sweep --topology line --diameters 2 4 8 \
		--workers auto --no-cache --metrics table
	$(PYTHON) -m repro sweep --topology line --diameters 2 4 8 \
		--workers auto --no-cache --streaming
	$(PYTHON) -m repro sweep --topology line --diameters 3 \
		--algorithm kllo-dynamic --churn 0.02 --churn-outage 3.0 \
		--workers auto --no-cache
	$(PYTHON) -m repro faults --scenario partition --nodes 8 \
		--workers auto --no-cache
	$(PYTHON) -m repro faults --byzantine --nodes 8 \
		--workers auto --no-cache
	rm -rf /tmp/repro-smoke-queue /tmp/repro-smoke-manifest.json
	! $(PYTHON) -m repro sweep --topology line --diameters 2 4 \
		--workers 2 --no-cache --backend work-queue \
		--queue-dir /tmp/repro-smoke-queue \
		--manifest /tmp/repro-smoke-manifest.json \
		--chaos-kill 1.0 --no-respawn
	$(PYTHON) -m repro sweep --topology line --diameters 2 4 \
		--workers 2 --no-cache --backend work-queue \
		--queue-dir /tmp/repro-smoke-queue \
		--resume /tmp/repro-smoke-manifest.json --max-retries 2 \
		--metrics table
	rm -rf /tmp/repro-smoke-queue /tmp/repro-smoke-manifest.json

# Quick end-to-end proof of the telemetry layer: profile one small spec
# suite and print the hot-spec / hot-phase ranking.
profile-smoke:
	$(PYTHON) -m repro profile --topology line --nodes 5 --horizon 40 --top 3

# Quick end-to-end proof of the certification harness: a small fixed-seed
# fuzz campaign must certify clean (exit 0), and the committed planted
# counterexample must still replay (exit 1 = reproduced, by contract).
certify-smoke:
	$(PYTHON) -m repro certify --budget 12 --seed 0 --workers auto
	$(PYTHON) -m repro certify --byzantine --differential --budget 3 --seed 0
	! $(PYTHON) -m repro certify \
		--replay tests/fixtures/cert/repro-thm-5.5-global-skew.json

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

report:
	$(PYTHON) -m repro report --output report.md

# The performance ledger (benchmarks/ledger/README.md): one end-to-end
# set of all four workloads, appended to .ledger/ledger.json.  Not part
# of `check`: a full set takes about 1.5 minutes.
ledger:
	$(PYTHON) -m benchmarks.ledger run

ledger-quick:
	$(PYTHON) -m benchmarks.ledger run --quick

check: lint lint-cold test test-parity test-backend test-dynamic test-byzantine perf-smoke certify-smoke bench

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis report.md
	find . -name __pycache__ -type d -exec rm -rf {} +
