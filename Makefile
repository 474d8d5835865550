# Convenience targets for the MROM/HADAS reproduction.

PYTHON ?= python

.PHONY: install test chaos lint lint-tests bench bench-fastpath fastpath bench-compile compile-tests wire-tests load-smoke load-tests recover-smoke recovery-tests bench-recovery cluster-smoke cluster-tests bench-cluster examples series check all trace-smoke analyze sanitize-smoke bench-analysis perfbench-smoke

install:
	$(PYTHON) setup.py develop || pip install -e .

# `make test` runs everything, chaos tests included; `make chaos` runs
# only the seeded fault-injection suite (marker: chaos).
test:
	$(PYTHON) -m pytest tests/

chaos:
	$(PYTHON) -m pytest -m chaos tests/

# Static analysis: lint the MPL corpus (standalone .mpl files and MPL
# programs embedded in python hosts) with warnings promoted to errors.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint examples/ src/repro/apps/ --strict

# Only the static-analysis test suite (marker: analysis).
lint-tests:
	$(PYTHON) -m pytest -m analysis tests/

# Interprocedural analysis: races, wait cycles, migration safety — over
# the examples and the apps tier, gated against the committed baseline
# (only findings the baseline has never seen fail the build).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze examples/ src/repro/apps/ --strict --baseline ANALYZE_BASELINE.json

# Differential acceptance: a sanitizer-instrumented soak must observe at
# least one dynamic race, and every observed race/cycle must match a
# static diagnostic from the same effect summaries.
sanitize-smoke:
	PYTHONPATH=src $(PYTHON) -m repro analyze --sanitize-smoke

# The sanitizer overhead bench: disabled-path guards and enable/disable
# drift both under 2% of one sync RMI. Writes BENCH_analysis.json.
bench-analysis:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_perf13_analysis.py --benchmark-only -q

# Telemetry acceptance: run the traced scenario, validate the JSON-lines
# export against the span schema and the cross-wire trace invariants.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace --smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The fast-path acceptance bench: warm-invocation speedup, batched-RMI
# frame reduction, cache-off overhead. Writes BENCH_fastpath.json.
bench-fastpath:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_perf10_fastpath.py --benchmark-only -q

# Only the invocation-cache / batched-RMI test suite (marker: fastpath).
fastpath:
	$(PYTHON) -m pytest -m fastpath tests/

# The compile-tier acceptance bench: compiled-invocation speedup over
# the memo tables, compile-off overhead, zero-copy migration scaling.
# Writes BENCH_compile.json.
bench-compile:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_perf15_compile.py --benchmark-only -q

# Only the compiled-invocation / zero-copy marshal suite (marker: compile).
compile-tests:
	$(PYTHON) -m pytest -m compile tests/

# The wire suite (marker: wire): the MRM1 codec against a frozen copy of
# its earlier encoder and decoder (same bytes, same errors), the golden
# wire corpus, and the eager-vs-lazy decoder mutation fuzz.
wire-tests:
	PYTHONHASHSEED=0 PYTHONPATH=src $(PYTHON) -m pytest -m wire -q tests/

# Load acceptance: the sustain + overload pair (>= 10k requests through
# >= 4 sites, zero unresolved; constrained window sheds structured
# OverloadErrors while non-shed requests all complete).
load-smoke:
	PYTHONPATH=src $(PYTHON) -m repro load --smoke

# Only the workload-driver / load-scenario test suite (marker: load).
load-tests:
	$(PYTHON) -m pytest -m load tests/

# Durability acceptance: the crash-and-restart soak (>= 3 whole-site
# kill/restart cycles under fault injection; closed-form accounting and
# exactly-once ownership must hold across them).
recover-smoke:
	PYTHONPATH=src $(PYTHON) -m repro recover --selftest

# Only the WAL / crash-recovery test suite (marker: recovery).
recovery-tests:
	$(PYTHON) -m pytest -m recovery tests/

# The recovery acceptance bench: recovery-time ceiling, replay-
# throughput floor, durability-off overhead. Writes BENCH_recovery.json.
bench-recovery:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_perf12_recovery.py --benchmark-only -q

# Cluster acceptance: the sustain + soak pair over the sharded
# directory (closed-form accounting, single-owner, convergence; under
# faults the only admissible terminal failure is a typed StaleLeaseError).
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro cluster --smoke

# Only the ring / directory / cluster-scenario suite (marker: cluster).
cluster-tests:
	$(PYTHON) -m pytest -m cluster tests/

# The cluster scaling bench: simulated 4->8 and multi-process 4->16
# site throughput floors, stale-lease rate ceiling. Writes
# BENCH_cluster.json.
bench-cluster:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_perf14_cluster.py --benchmark-only -q

# Benchmark correctness smoke: each perfbench workload runs briefly;
# the runner exits 1 on a wrong result or final state (counter totals,
# echo identity, one live owner, recover_site replay).
perfbench-smoke:
	@for w in invoke_local rmi_sim tcp_gateway migrate_durable; do \
		echo "=== $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

series: bench
	@echo; for f in benchmarks/out/*.txt; do echo "--- $$f"; cat $$f; echo; done

examples:
	@for ex in examples/*.py; do echo "=== $$ex ==="; $(PYTHON) $$ex || exit 1; echo; done

check: test wire-tests lint analyze sanitize-smoke trace-smoke load-smoke recover-smoke cluster-smoke perfbench-smoke bench

all: install check examples
