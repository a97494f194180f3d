"""Tests for ``scripts/check_bench_regression.py`` (the CI perf gate).

Runs the script as a subprocess — the same entry point the workflow and
``make ci-gate`` use — against synthetic manifests and baselines:
passing runs exit 0, regressions and vanished metrics exit 1, malformed
inputs exit 2.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"


def manifest(metrics: dict) -> dict:
    return {
        "schema": "repro.run-manifest/1",
        "created_unix": 0.0,
        "python": "3.12.0",
        "run": {"kind": "bench", "benchmark": "hotpath",
                "profile": "smoke"},
        "spans": {},
        "counters": {},
        "metrics": metrics,
    }


def baseline(rules: dict) -> dict:
    return {
        "schema": "repro.bench-baseline/1",
        "benchmark": "hotpath",
        "profile": "smoke",
        "rules": rules,
    }


def run_gate(tmp_path, manifest_doc, baseline_doc):
    manifest_path = tmp_path / "manifest.json"
    baseline_path = tmp_path / "baseline.json"
    manifest_path.write_text(json.dumps(manifest_doc))
    baseline_path.write_text(json.dumps(baseline_doc))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(manifest_path),
         str(baseline_path)],
        capture_output=True, text=True, timeout=60)


class TestGatePasses:
    def test_all_rules_hold(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({"speedup": 2.0, "conversions": 0.0,
                      "epoch_ms": 70.0}),
            baseline({"speedup": {"min": 1.5},
                      "conversions": {"max": 0},
                      "epoch_ms": {"informational": True}}))
        assert result.returncode == 0, result.stderr
        assert "gate passed" in result.stdout
        assert "info  epoch_ms = 70" in result.stdout

    def test_tolerance_widens_the_bound(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({"speedup": 1.4}),
            baseline({"speedup": {"min": 1.5, "tolerance": 0.15}}))
        assert result.returncode == 0, result.stderr


class TestGateFails:
    def test_slowed_manifest_fails(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({"speedup": 0.9}),
            baseline({"speedup": {"min": 1.5, "tolerance": 0.15}}))
        assert result.returncode == 1
        assert "below minimum" in result.stderr

    def test_counter_regression_fails(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({"conversions": 8.0}),
            baseline({"conversions": {"max": 0}}))
        assert result.returncode == 1
        assert "above maximum" in result.stderr

    def test_missing_metric_fails(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({}),
            baseline({"speedup": {"min": 1.5}}))
        assert result.returncode == 1
        assert "missing from manifest" in result.stderr

    def test_missing_informational_metric_passes(self, tmp_path):
        result = run_gate(
            tmp_path,
            manifest({}),
            baseline({"epoch_ms": {"informational": True}}))
        assert result.returncode == 0, result.stderr


class TestGateRejectsBadInput:
    def test_wrong_manifest_schema(self, tmp_path):
        doc = manifest({"speedup": 2.0})
        doc["schema"] = "something/else"
        result = run_gate(tmp_path, doc,
                          baseline({"speedup": {"min": 1.0}}))
        assert result.returncode == 2

    def test_wrong_baseline_schema(self, tmp_path):
        doc = baseline({"speedup": {"min": 1.0}})
        doc["schema"] = "something/else"
        result = run_gate(tmp_path, manifest({"speedup": 2.0}), doc)
        assert result.returncode == 2

    def test_benchmark_mismatch(self, tmp_path):
        doc = baseline({"speedup": {"min": 1.0}})
        doc["benchmark"] = "serve"
        result = run_gate(tmp_path, manifest({"speedup": 2.0}), doc)
        assert result.returncode == 2

    def test_empty_rules_rejected(self, tmp_path):
        result = run_gate(tmp_path, manifest({"speedup": 2.0}),
                          baseline({}))
        assert result.returncode == 2


class TestGateRejectsMalformedManifests:
    """Malformed manifests must exit 2 with a message, not traceback.

    ``returncode == 2`` plus an ``error:`` line on stderr in every
    case; ``Traceback`` anywhere in stderr is the bug these guard
    against.
    """

    @staticmethod
    def assert_clean_rejection(result):
        assert result.returncode == 2, result.stderr
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_manifest_file(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(baseline({"speedup": {"min": 1.0}})))
        result = subprocess.run(
            [sys.executable, str(SCRIPT),
             str(tmp_path / "does_not_exist.json"), str(baseline_path)],
            capture_output=True, text=True, timeout=60)
        self.assert_clean_rejection(result)
        assert "not found" in result.stderr

    def test_manifest_is_a_directory(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(baseline({"speedup": {"min": 1.0}})))
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path),
             str(baseline_path)],
            capture_output=True, text=True, timeout=60)
        self.assert_clean_rejection(result)

    def test_undecodable_manifest_bytes(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_bytes(b"\xff\xfe\x00garbage")
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(baseline({"speedup": {"min": 1.0}})))
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(manifest_path),
             str(baseline_path)],
            capture_output=True, text=True, timeout=60)
        self.assert_clean_rejection(result)

    def test_metrics_not_an_object(self, tmp_path):
        result = run_gate(tmp_path, manifest([1.0, 2.0]),
                          baseline({"speedup": {"min": 1.0}}))
        self.assert_clean_rejection(result)
        assert "metrics" in result.stderr

    def test_non_numeric_metric_value(self, tmp_path):
        result = run_gate(tmp_path, manifest({"speedup": "fast"}),
                          baseline({"speedup": {"min": 1.0}}))
        self.assert_clean_rejection(result)
        assert "speedup" in result.stderr

    def test_non_object_rule(self, tmp_path):
        result = run_gate(tmp_path, manifest({"speedup": 2.0}),
                          baseline({"speedup": 1.5}))
        self.assert_clean_rejection(result)

    def test_non_numeric_bound(self, tmp_path):
        result = run_gate(tmp_path, manifest({"speedup": 2.0}),
                          baseline({"speedup": {"min": "1.5"}}))
        self.assert_clean_rejection(result)

    def test_non_numeric_tolerance(self, tmp_path):
        result = run_gate(
            tmp_path, manifest({"speedup": 2.0}),
            baseline({"speedup": {"min": 1.5, "tolerance": "lots"}}))
        self.assert_clean_rejection(result)

    def test_run_not_an_object(self, tmp_path):
        doc = manifest({"speedup": 2.0})
        doc["run"] = "hotpath"
        result = run_gate(tmp_path, doc,
                          baseline({"speedup": {"min": 1.0}}))
        self.assert_clean_rejection(result)


class TestCommittedBaselines:
    """The baselines the workflow actually gates on must be loadable."""

    def test_baseline_files_are_valid(self):
        for name in ("hotpath.json", "serve.json", "embed.json",
                     "sampling.json"):
            path = REPO_ROOT / "benchmarks" / "baselines" / name
            doc = json.loads(path.read_text())
            assert doc["schema"] == "repro.bench-baseline/1"
            assert doc["rules"], f"{name} has no rules"
            for rule in doc["rules"].values():
                assert set(rule) <= {"min", "max", "tolerance",
                                     "informational"}



class TestWorkflowMakefileSync:
    """Every ``make <target>`` CI invokes must exist in the Makefile.

    The workflow and its local mirror (``scripts/ci_dry_run.sh``) call
    make by target name; a renamed or deleted target would otherwise
    only surface on the next push.
    """

    MAKE_INVOCATION = re.compile(r"\bmake\s+([a-z][a-z0-9-]*)")
    MAKE_TARGET = re.compile(r"^([a-z][a-z0-9-]*):", re.MULTILINE)

    def invoked_targets(self):
        used = set()
        for path in (REPO_ROOT / ".github" / "workflows" / "ci.yml",
                     REPO_ROOT / "scripts" / "ci_dry_run.sh"):
            used.update(self.MAKE_INVOCATION.findall(path.read_text()))
        return used

    def test_invoked_targets_exist(self):
        defined = set(self.MAKE_TARGET.findall(
            (REPO_ROOT / "Makefile").read_text()))
        used = self.invoked_targets()
        assert used, "no make invocations found — the regex rotted"
        missing = used - defined
        assert not missing, \
            f"CI invokes make targets missing from the Makefile: " \
            f"{sorted(missing)}"

    def test_ci_gate_is_wired_into_ci(self):
        assert "ci-gate" in self.invoked_targets()

    PYTEST_PATH = re.compile(r"\bpytest\b[^\n]*?\s([\w./-]+\.py)\b")

    def test_dry_run_mirrors_the_workflow(self):
        # Every make target and every pytest path the workflow runs
        # must also run in the local dry run.
        workflow = (REPO_ROOT / ".github" / "workflows" /
                    "ci.yml").read_text()
        dry_run = (REPO_ROOT / "scripts" / "ci_dry_run.sh").read_text()
        targets = set(self.MAKE_INVOCATION.findall(workflow))
        paths = set(self.PYTEST_PATH.findall(workflow))
        assert targets and paths, "no CI invocations found — a regex rotted"
        missing = (targets - set(self.MAKE_INVOCATION.findall(dry_run))) \
            | (paths - set(self.PYTEST_PATH.findall(dry_run)))
        assert not missing, \
            f"ci.yml runs steps scripts/ci_dry_run.sh skips: " \
            f"{sorted(missing)}"
