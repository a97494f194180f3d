PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast lint bench-smoke bench-hotpath serve-smoke \
	serve-bench embed-smoke bench-embed sampling-smoke bench-sampling \
	ci-gate

# Tier-1 gate (ROADMAP): full suite, stop at the first failure.
test:
	$(PYTHON) -m pytest -x -q

# PR feedback loop: skip the slow example walkthroughs and the
# subprocess benchmark smokes (run those with `-m "slow or bench"`).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not bench"

# Byte-compile every source tree, then run the project lint rules
# (repro.analysis) — interprocedural mode over the package plus the
# benchmark/script/example trees, with the incremental cache so warm
# runs re-parse only changed files; writes the JSON report CI uploads
# as an artifact.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks scripts
	$(PYTHON) -m repro lint src/repro benchmarks scripts examples \
		--cache .repro-lint-cache --output lint-report.json

# Quick hot-path sanity run (<30 s), same harness as the full benchmark.
bench-smoke:
	$(PYTHON) benchmarks/bench_hotpath.py --smoke

# Full hot-path benchmark; writes BENCH_hotpath.json in the repo root.
bench-hotpath:
	$(PYTHON) benchmarks/bench_hotpath.py

# Quick serving sanity run (<30 s), same harness as the full benchmark.
serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py --smoke

# Full serving benchmark; writes BENCH_serve.json in the repo root.
serve-bench:
	$(PYTHON) benchmarks/bench_serve.py

# Quick embedding pre-compute sanity run (<30 s), same harness as the
# full benchmark.
embed-smoke:
	$(PYTHON) benchmarks/bench_embed.py --smoke

# Full embedding pre-compute benchmark; writes BENCH_embed.json in the
# repo root.
bench-embed:
	$(PYTHON) benchmarks/bench_embed.py

# Quick sampled-training sanity run (<30 s), same harness as the full
# benchmark.
sampling-smoke:
	$(PYTHON) benchmarks/bench_sampling.py --smoke

# Full sampled-training benchmark; writes BENCH_sampling.json in the
# repo root.
bench-sampling:
	$(PYTHON) benchmarks/bench_sampling.py

# CI regression gate: run the smoke benchmarks, then check their run
# manifests against the committed baselines (non-zero exit on
# regression).  See docs/observability.md.
ci-gate: bench-smoke serve-smoke embed-smoke sampling-smoke
	$(PYTHON) scripts/check_bench_regression.py \
		BENCH_hotpath_manifest.json benchmarks/baselines/hotpath.json
	$(PYTHON) scripts/check_bench_regression.py \
		BENCH_serve_manifest.json benchmarks/baselines/serve.json
	$(PYTHON) scripts/check_bench_regression.py \
		BENCH_embed_manifest.json benchmarks/baselines/embed.json
	$(PYTHON) scripts/check_bench_regression.py \
		BENCH_sampling_manifest.json benchmarks/baselines/sampling.json
