# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-processes lint chaos chaos-processes trace-demo check bench-e2e bench-e2e-smoke bench-e2e-compare bench-pairs profile profile-mem experiments examples coverage clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Process-pool backend subset: backend conformance over every registered
# executor plus the shared-memory DFS / crash-recovery battery.
test-processes:
	$(PYTHON) -m pytest tests/test_backends_conformance.py tests/test_process_backend.py

# Static analysis. The repro linter (plan dataflow + block DAG/barrier
# slack + mapper/reducer purity + lock discipline + process safety) needs
# only the runtime deps; ruff and mypy run when installed (dev extras) and
# are skipped with a notice otherwise, so `make lint` works everywhere.
# lint_summary.py sweeps the real code with every analyzer and prints one
# findings table per rule family (a THREADED_MODULES entry missing on disk
# is an error under the CN row); that the analyzers catch seeded defects is
# the tier-1 suite's job (tests/test_analysis_*.py, `make test`).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --dataflow --report
	PYTHONPATH=src $(PYTHON) scripts/lint_summary.py
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

# Fault-injection campaign: full inversions under seeded fault schedules
# (datanode death, replica corruption, hung tasks, driver crash, torn
# writes) with end-to-end invariants, then the exhaustive crash-point sweep
# (kill the driver at every DFS write/publish of a small run, resume,
# audit) and the fsck self-check (every debris category detected and
# rolled back).  The battery and sweep then repeat under the dataflow
# scheduler — every invariant must hold with the barriers deleted.
# Exit status 0 iff everything is green.
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 0
	PYTHONPATH=src $(PYTHON) -m repro chaos --sweep --seed 0
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 0 --scheduler dataflow
	PYTHONPATH=src $(PYTHON) -m repro chaos --sweep --seed 0 --scheduler dataflow
	PYTHONPATH=src $(PYTHON) -m repro dfs fsck --self-check

# Same schedule battery, but task attempts run in forked worker processes
# over shared-memory DFS segments (the --sweep crash-point enumeration
# stays serial by design).  The second line is the one backend x scheduler
# cell where job confs are pickled to pool workers *from scheduler unit
# threads* while a trace is live: nothing on a conf may be a live object.
chaos-processes:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 0 --executor processes
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 0 --executor processes --scheduler dataflow

# Traced inversion at the acceptance configuration: renders the span tree,
# per-job timeline, and critical path, then audits span totals against the
# engine's Counters, the DFS ledger, and the paper's Table-1 cost model.
# Exit status 0 iff every reconciliation check passes.
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro trace --n 256 --nb 25

check: lint test chaos trace-demo

# The end-to-end benchmark BENCHMARK.json declares (six workloads, the
# end-to-end metrics and the per-layer table); the smoke form is what CI
# runs.  Both only invoke the harness — see benchmarks/e2e/README.md.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# How a gain (or "no regression") is shown: record the parent commit and the
# change with `run.py --seed S --out <file>`, then
# `make bench-e2e-compare A=parent.json B=change.json` — same/better/worse/
# unresolved per (metric, workload), non-zero exit on any `worse`.
bench-e2e-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-e2e-compare A=<parent.json> B=<change.json>"; exit 2; }
	$(PYTHON) benchmarks/e2e/run.py compare $(A) $(B)

# The other half of a gain claim: N alternating parent/change pairs of one
# workload (`git archive PARENT` into a temp dir, `__pycache__` stripped from
# both trees, `run.py --workload W --seed s --seconds 12 --trace 0` for seeds
# 1..N) — medians, quartiles and wins per side for the four end-to-end
# metrics.  Only invokes the harness.
bench-pairs:
	@test -n "$(W)" -a -n "$(PARENT)" || { echo "usage: make bench-pairs W=<workload> PARENT=<rev> [N=10]"; exit 2; }
	$(PYTHON) scripts/bench_pairs.py --workload $(W) --parent $(PARENT) --pairs $(or $(N),10)

# Where the calls go: cProfile of one call.  CHILDREN=1 also profiles the
# process pool's workers and prints them merged below the driver.
profile:
	@test -n "$(W)" || { echo "usage: make profile W=<workload> [SMOKE=1] [CHILDREN=1]"; exit 2; }
	$(PYTHON) scripts/profile_call.py --workload $(W) $(if $(SMOKE),--smoke) $(if $(CHILDREN),--children)

# The memory high-water mark of one call: tracemalloc peak in n^2 units, the
# allocation sites live at the peak and the DFS bytes by file class there.
profile-mem:
	@test -n "$(W)" || { echo "usage: make profile-mem W=<workload> [SMOKE=1]"; exit 2; }
	$(PYTHON) scripts/profile_call.py --workload $(W) --memory $(if $(SMOKE),--smoke)

experiments:
	$(PYTHON) -m repro.experiments.run_all

experiments-fast:
	$(PYTHON) -m repro.experiments.run_all --fast

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done; echo "all examples ran"

clean:
	rm -rf src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
