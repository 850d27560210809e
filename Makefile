# Developer convenience targets for the repro library.

PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast bench ladder-smoke ladder-record des-identical footprint figures examples telemetry-demo service-demo service-smoke matrix-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	$(PYTHONPATH_SRC) pytest tests/

test-fast:
	$(PYTHONPATH_SRC) pytest tests/ -x -q --ignore=tests/analysis/test_scenarios_small.py

bench:
	$(PYTHONPATH_SRC) pytest benchmarks/ --benchmark-only

# The repo's benchmark (BENCHMARK.json -> benchmarks/ladder) at smoke
# scale, then its own tests (the CI ladder-smoke job): every workload
# both ways (--trace 0 and 1) in seconds.  Shape only -- the harness's
# output checks and exit code -- never a timing gate.
ladder-smoke:
	python3 benchmarks/ladder/run.py --smoke
	$(PYTHONPATH_SRC) pytest benchmarks/ladder -q

# The committed perf record: the ladder suite (`run.py --out`) run from a
# clean export of REV (default HEAD; the tree must be clean), written to
# BENCH_LADDER.json with the rev and interpreter on top.  Compare two
# records with `python3 benchmarks/ladder/run.py --compare OLD NEW`.
ladder-record:
	python3 scripts/ladder_record.py $(or $(REV),HEAD)

# The simulation byte for byte against REV (default HEAD): the 14
# `runner all` reports and their stdout, and the `fig11 --telemetry`
# JSONL but for its one wall-clock histogram, REV exported clean from git.
des-identical:
	python3 scripts/des_identical.py $(or $(REV),HEAD)

# What one held lock costs the interpreter (docs/PERFORMANCE.md, "What
# one held lock costs"): heap bytes and collector-tracked objects per
# lock by allocating line, then the collector's passes over one
# 96 000-lock surge cycle.  Also a step of the CI test job; shape only.
footprint:
	$(PYTHONPATH_SRC) python scripts/lock_footprint.py

# Regenerate every paper figure report into results/ via the CLI runner.
figures:
	$(PYTHONPATH_SRC) python -m repro.analysis.runner all --out-dir results/

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHONPATH_SRC) python $$script || exit 1; \
	done

# The Figure 9 ramp-up fully observed: JSONL stream + per-run report.
telemetry-demo:
	$(PYTHONPATH_SRC) python -m repro.analysis.runner fig9 \
		--telemetry /tmp/fig9-telemetry.jsonl --report

# The live (wall-clock, threaded) lock service with its tuning daemon.
service-demo:
	$(PYTHONPATH_SRC) python -m repro.service.cli demo

# Threaded stress with exact-accounting checks at shutdown, once per
# topology the CI service-smoke matrix job runs: one bare lock table, 4
# in-process shards + deadlock sweep, a 2-worker pool over the wire,
# and one socket server in front of the bare table (--net alone: the
# same client with one route), untraced and with 1-in-8 sampling (the
# traced wire path).  Same load line, same asserts (the CLI exits
# non-zero on any leak, mismatch or failed reconciliation), no timing
# gates.
service-smoke:
	for topology in "" "--shards 4" "--net --workers 2" "--net" \
			"--net --trace-sample 8"; do \
		echo "=== stress $$topology ==="; \
		$(PYTHONPATH_SRC) python -m repro.service.cli stress \
			--threads 8 --requests 2000 $$topology || exit 1; \
	done

# The 6-scenario mini grid through the scenario matrix engine (the CI
# matrix-smoke job): regimes, a sharded run, a DSS tenant, a demand
# replay and one chaos injection -- per-scenario verdicts, no timing
# gates.  Exit 0 iff every scenario is pass or expected-degraded.
matrix-smoke:
	$(PYTHONPATH_SRC) python -m repro.service.cli matrix run \
		--grid mini --out-dir /tmp/matrix-smoke

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
