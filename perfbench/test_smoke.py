"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced, and the metric names it prints
must be exactly the ``end_to_end`` or ``per_layer`` names of
``BENCHMARK.json``, with the same units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_metric_names_match_benchmark_json(workload, trace):
    done = run_bench(ROOT, workload, trace, "--tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {entry["name"]: entry["unit"]
                for entry in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "fit_full", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
