"""Smoke tests for the benchmark harnesses.

Runs ``benchmarks/bench_hotpath.py --smoke`` and
``benchmarks/bench_serve.py --smoke`` as subprocesses (the same entry
points CI and developers use) and validates the emitted JSON:
well-formed structure, all variants present, and the headline claims
(zero sparse conversions in the planned epoch loop; a batched-serving
speedup with an exact checkpoint round-trip).  Each smoke profile is
sized to finish well inside 30 seconds.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Subprocess benchmark runs — seconds each, skipped by
#: ``make test-fast``.
pytestmark = pytest.mark.bench


def test_smoke_bench_runs_and_emits_json(tmp_path):
    out_path = tmp_path / "BENCH_hotpath.json"
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "bench_hotpath.py"),
         "--smoke", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stderr
    assert elapsed < 30.0, f"smoke bench took {elapsed:.1f}s (budget 30s)"

    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "hotpath"
    assert report["profile"] == "smoke"
    assert set(report["runs"]) == {"plan64", "plan32"}
    for name, run in report["runs"].items():
        summary = run["summary"]
        assert summary["epoch_seconds"] > 0.0
        assert run["per_dataset"], name
    # The planned variants must not convert inside the epoch loop.
    assert report["train_conversions"]["plan64"] == {"tocsr": 0,
                                                     "transpose": 0}
    assert report["train_conversions"]["plan32"] == {"tocsr": 0,
                                                     "transpose": 0}
    # Backward releases the tape as it walks it: the whole plan32
    # impute() peaks inside the committed memory bound.
    manifest = json.loads(
        (tmp_path / "BENCH_hotpath_manifest.json").read_text())
    baseline = json.loads((REPO_ROOT / "benchmarks" / "baselines"
                           / "hotpath.json").read_text())
    assert manifest["metrics"]["mem.peak_mb.plan32"] \
        <= baseline["rules"]["mem.peak_mb.plan32"]["max"]


def test_smoke_embed_bench_runs_and_emits_json(tmp_path):
    out_path = tmp_path / "BENCH_embed.json"
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "bench_embed.py"),
         "--smoke", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stderr
    assert elapsed < 30.0, f"smoke bench took {elapsed:.1f}s (budget 30s)"

    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "embed"
    assert report["profile"] == "smoke"
    assert set(report["runs"]) == {"seed", "vec64", "vec32",
                                   "cache_cold", "cache_warm"}
    for name in ("seed", "vec64", "vec32"):
        assert report["runs"][name]["total_seconds"] > 0.0, name
        assert 0.0 <= report["runs"][name]["accuracy"] <= 1.0, name
    # A warm content-hash cache must skip the pre-compute.
    assert report["speedup"]["cache"] > 1.0
    assert report["runs"]["cache_warm"]["total_seconds"] \
        < report["runs"]["cache_cold"]["total_seconds"]
    # A manifest must land next to the report for the CI gate.
    manifest = json.loads(
        (tmp_path / "BENCH_embed_manifest.json").read_text())
    assert manifest["metrics"]["cache.hits"] >= 1.0


def test_smoke_sampling_bench_runs_and_emits_json(tmp_path):
    out_path = tmp_path / "BENCH_sampling.json"
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "bench_sampling.py"),
         "--smoke", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr

    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "sampling"
    assert report["profile"] == "smoke"
    manifest = json.loads(
        (tmp_path / "BENCH_sampling_manifest.json").read_text())
    metrics = manifest["metrics"]
    # The headline claims: a sampled fit on the 10x table stays inside
    # the full-graph 1x memory budget while full-graph training on the
    # same table blows well past it; sampled runs are bit-identical
    # across reruns.
    assert metrics["mem.budget_ratio"] >= 1.0
    assert metrics["mem.blowup"] >= 5.0
    assert metrics["determinism.identical"] == 1.0
    assert abs(metrics["accuracy.parity"] - 1.0) <= 0.01


def test_smoke_serve_bench_runs_and_emits_json(tmp_path):
    out_path = tmp_path / "BENCH_serve.json"
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "bench_serve.py"),
         "--smoke", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stderr
    assert elapsed < 30.0, f"smoke bench took {elapsed:.1f}s (budget 30s)"

    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "serve"
    assert report["profile"] == "smoke"
    # A reloaded checkpoint must impute the served stream byte-identically.
    assert report["checkpoint"]["roundtrip_identical"] is True
    for mode in ("unbatched", "batched", "microbatched"):
        assert report[mode]["rows_per_sec"] > 0.0
        assert report[mode]["p99_ms"] >= report[mode]["p50_ms"]
    # Batching must amortize per-call overhead by at least 3x.
    assert report["speedup"]["batched"] >= 3.0
    assert report["microbatched"]["mean_batch_size"] > 1.0
    assert "p99_under_deadline_budget" in report
