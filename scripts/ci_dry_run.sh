#!/bin/sh
# Local dry run of .github/workflows/ci.yml, step for step, without any
# package installation (the repo runs from source via PYTHONPATH=src,
# which the Makefile exports).  Mirrors the workflow jobs:
#
#   lint        -> python -m compileall over every source tree, then
#                  the project lint rules (`repro lint`)
#   test        -> make test-fast, the slow/bench-marked tests, the
#                  perfbench smoke, then make sampling-smoke
#   bench-gate  -> make ci-gate (smoke benchmarks + baseline check)
#
# tests/test_ci_gate.py checks that every Makefile target and pytest path
# the workflow runs also appears here.
#
# Usage:  sh scripts/ci_dry_run.sh          # from the repository root
# Exits non-zero at the first failing step, like the workflow.
set -eu

cd "$(dirname "$0")/.."

echo "==> [lint] byte-compile src tests benchmarks scripts"
python -m compileall -q src tests benchmarks scripts

echo "==> [lint] project lint rules (repro lint, interprocedural)"
PYTHONPATH=src python -m repro lint src/repro benchmarks scripts examples \
    --output lint-report.json

echo "==> [test] fast suite (slow/bench deselected)"
make test-fast

echo "==> [test] slow and bench-marked tests"
PYTHONPATH=src python -m pytest -q -m "slow or bench"

echo "==> [test] end-to-end benchmark smoke (library calls perfbench makes)"
PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

echo "==> [test] sampled-training smoke"
make sampling-smoke

echo "==> [bench-gate] smoke benchmarks + baseline regression gate"
make ci-gate

echo "==> CI dry run passed"
