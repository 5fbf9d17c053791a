# Developer entry points.  PYTHONPATH=src everywhere: the package is
# run from the source tree, no install step needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# minimum line-coverage percentage for `make coverage` (the recorded
# tier-1 state; CI fails below it)
COVER_MIN ?= 80

.PHONY: test test-all lint lint-baseline sanitize-smoke fuzz-smoke \
	chaos-smoke shard-chaos-smoke golden golden-check coverage \
	verify verify-fast bench bench-baseline bench-full bench-smoke \
	bench-shard bench-profile

## tier-1 test suite (the gate every PR must keep green); pyproject
## addopts exclude @pytest.mark.slow tests — see `make test-all`
test:
	$(PYTHON) -m pytest -x -q

## the full suite including the slow example/fig-sweep tests
test-all:
	$(PYTHON) -m pytest -q -m "slow or not slow"

## schedlint: determinism/contract static analysis over src/repro/
## at the dataflow tier (interprocedural taint, cross-process
## atomicity), failing on any finding not recorded in
## lint-baseline.json; writes lint-report.sarif for CI upload
## (exit 0 = clean, 1 = findings, 2 = usage/internal error; see
## docs/static-analysis.md)
lint:
	$(PYTHON) -m repro.analysis.lint --dataflow \
		--baseline lint-baseline.json --sarif lint-report.sarif

## accept the current dataflow-tier findings into the baseline
## (review the diff before committing — the baseline should only
## shrink over time)
lint-baseline:
	$(PYTHON) -m repro.analysis.lint --dataflow \
		--baseline lint-baseline.json --update-baseline

## runtime invariant sanitizer: bug-injection tests plus one fig5
## smoke cell per scheduler under --sanitize
sanitize-smoke:
	$(PYTHON) -m pytest tests/test_sanitizer.py -q

## bounded fuzz budget: 25 seeded scenarios through the differential
## oracles under every scheduler, with Engine(sanitize=True)
## (see docs/testing.md)
fuzz-smoke:
	$(PYTHON) -m repro.testing fuzz --seeds 25 --smoke
	$(PYTHON) -m repro.testing fuzz --seeds 10 --smoke \
		--schedulers cfs,eevdf,bfs,lottery,staticprio,predictive

## fault-injection smoke: one fig5 cell per scheduler under the
## canned chaos plan plus a 4-CPU hotplug drain/rebalance cell, all
## with the runtime sanitizer on (see docs/fault-injection.md)
chaos-smoke:
	$(PYTHON) -m repro.faults smoke

## shard-executor chaos gate: SIGKILL the sharded campaign's
## supervisor and three of its workers mid-sweep, resume, and assert
## the merged report is byte-identical to an uninterrupted serial run
## (see docs/distributed-campaigns.md)
shard-chaos-smoke:
	$(PYTHON) -m repro.faults shard-chaos

## re-record the golden-trace digests after an intentional
## behavioural change (mirrors bench-baseline for performance)
golden:
	$(PYTHON) -m repro.testing golden record

## compare fresh experiment-cell digests against tests/golden/
## (cell-cached: a repeat against unchanged sources replays stored
## digests — the cache key includes a fingerprint of src/repro, so
## any code change recomputes; see docs/performance.md)
golden-check:
	REPRO_CELL_CACHE=1 $(PYTHON) -m repro.testing golden check

## tier-1 line coverage with a regression floor; skips cleanly when
## coverage.py is not installed (it is not vendored)
coverage:
	@$(PYTHON) -c "import coverage" 2>/dev/null || \
		{ echo "coverage.py not installed; skipping coverage gate"; \
		  exit 0; } && \
	$(PYTHON) -m coverage run --source=src/repro -m pytest -q && \
	$(PYTHON) -m coverage report --fail-under=$(COVER_MIN)

## the full PR gate.  Stages keep going on failure so every problem is
## reported in one run, and bench runs LAST deliberately: a perf
## regression must still be visible when lint or a test already
## failed.  The exit status aggregates all stages.
verify:
	@fail=0; \
	for stage in lint test sanitize-smoke fuzz-smoke chaos-smoke \
			shard-chaos-smoke bench-smoke bench; do \
		echo "== make $$stage =="; \
		$(MAKE) --no-print-directory $$stage || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "verify: FAILED (see above)"; fi; \
	exit $$fail

## inner-loop gate: static analysis + tier-1 tests, fail fast
verify-fast: lint test

## simulator-performance benchmarks in smoke mode + regression gate:
## fails when any profile's events/sec is >1.5x below the recorded
## baseline (benchmarks/BENCH_baseline.json)
bench:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_simulator_performance.py -q
	$(PYTHON) benchmarks/check_bench.py

## re-record the smoke baseline after an intentional perf change
bench-baseline:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/test_simulator_performance.py -q
	cp benchmarks/BENCH_simulator.json benchmarks/BENCH_baseline.json
	@echo "baseline re-recorded"

## full-size benchmark profiles (slower, prints throughput)
bench-full:
	$(PYTHON) -m pytest \
		benchmarks/test_simulator_performance.py -q

## fast throughput gate: fixed scenarios, each above a per-profile
## events/sec floor (CI stage)
bench-smoke:
	$(PYTHON) benchmarks/bench_smoke.py

## per-subsystem event-profile breakdown over a representative
## campaign slice (fig6: both schedulers' tick + balance paths),
## written to benchmarks/BENCH_profile.txt; CI uploads it alongside
## the trajectory so "where does the time go" is recorded per PR
bench-profile:
	$(PYTHON) -m repro.experiments run fig6 --profile --no-cache \
		> /dev/null 2> benchmarks/BENCH_profile.txt || \
		{ cat benchmarks/BENCH_profile.txt; exit 1; }
	@cat benchmarks/BENCH_profile.txt

## shard-executor scaling: cells/sec + events/sec at 1, 2 and N
## workers, appended to benchmarks/BENCH_trajectory.json (smoke:
## "shard" entries; see docs/distributed-campaigns.md)
bench-shard:
	$(PYTHON) benchmarks/bench_shard.py
