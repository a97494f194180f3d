"""Markdown summary of scaling-sensitive benchmark gates.

The dp benchmark computes its scaling target from the
cores the runner will actually schedule
(:func:`repro.parallel.schedulable_cores`, which honors
``$REPRO_BENCH_CORES`` exported by the CI core-detection step).  On a
starved runner those gates run in *floor mode* — holding a
don't-regress bound instead of the paper-level speedup target — and a
green check can therefore mean less than it appears to.  This script
renders the distinction where reviewers look: the workflow step
summary.

Usage::

    python scripts/bench_summary.py BENCH_*_manifest.json \
        >> "$GITHUB_STEP_SUMMARY"

Missing files and manifests without scaling metrics are skipped, so
the step never fails a run that already uploaded its artifacts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Per-benchmark scaling metrics: (cores key, floor-mode key,
#: speedup key, target key, pass/fail key).
SCALING_KEYS = {
    "dp": ("scaling.cores", "scaling.floor_mode", "scaling.speedup",
           "scaling.target", "scaling.meets_target"),
}


def summarize(paths: list[str]) -> str:
    rows = []
    for raw in paths:
        path = Path(raw)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        benchmark = manifest.get("run", {}).get("benchmark")
        metrics = manifest.get("metrics", {})
        keys = SCALING_KEYS.get(benchmark)
        if keys is None or not isinstance(metrics, dict):
            continue
        cores_key, floor_key, speedup_key, target_key, meets_key = keys
        if floor_key not in metrics:
            continue
        floor = bool(metrics.get(floor_key))
        meets = metrics.get(meets_key)
        status = "pass" if meets else "FAIL"
        if floor:
            status += " (floor mode)"
        rows.append((benchmark, metrics.get(cores_key),
                     metrics.get(speedup_key), metrics.get(target_key),
                     status))
    lines = ["## Scaling gates", ""]
    if not rows:
        lines.append("No scaling-gated manifests found.")
        return "\n".join(lines) + "\n"
    lines += ["| benchmark | cores | speedup | target | gate |",
              "|---|---|---|---|---|"]
    for benchmark, cores, speedup, target, status in rows:
        lines.append(
            f"| {benchmark} | {cores:g} | {speedup:.2f}x "
            f"| {target:.2f}x | {status} |")
    if any("floor mode" in row[4] for row in rows):
        lines += ["",
                  "Floor mode: the runner schedules too few cores for "
                  "the paper-level speedup target, so the gate only "
                  "holds a don't-regress bound. Re-run on a wider box "
                  "to exercise the real target."]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    sys.stdout.write(summarize(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
