"""Hot-path benchmark: message-passing plan + vectorized training.

Runs full-graph GRIMP twice on the same corrupted dataset, both on the
precompiled message-passing plan:

* ``plan64``  — float64: zero sparse conversions per epoch.
* ``plan32``  — float32 (the training default).

Emits a machine-readable ``BENCH_hotpath.json`` with per-phase epoch
breakdowns (forward/backward/step), minor page faults per epoch of the
training loop (``faults_per_epoch``: a step whose freed buffers go back
to the OS faults them in again next step, see
:func:`repro.core.step.keep_freed_pages`) and imputation
accuracy per run.
Absolute epoch times are informational; end-to-end fit time is gated
by ``perfbench``.  A schema-versioned run manifest
(``BENCH_hotpath_manifest.json``) is written next to it; the CI gate
(``scripts/check_bench_regression.py``) ranges over its flat ``metrics``
map.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # <30 s
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out path.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

import numpy as np

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.datasets import load
from repro.metrics import evaluate_imputation
from repro.telemetry import build_manifest, write_manifest

#: (dataset, n_rows, error_rate) per profile; the full profile mirrors
#: the scale of ``bench_figure9_time.py`` runs.
PROFILES = {
    "full": {"datasets": [("adult", 240), ("flare", 240)],
             "error_rate": 0.2, "epochs": 30, "patience": 30},
    "smoke": {"datasets": [("adult", 60)],
              "error_rate": 0.2, "epochs": 4, "patience": 4},
}

#: Hot-path variants benchmarked side by side.
VARIANTS = {
    "plan64": {"dtype": "float64"},
    "plan32": {"dtype": "float32"},
}


def run_variant(name: str, dataset: str, n_rows: int, error_rate: float,
                epochs: int, patience: int, seed: int) -> dict:
    """Train one variant and return its timing/accuracy record."""
    clean = load(dataset, n_rows=n_rows, seed=seed)
    corruption = inject_mcar(clean, error_rate,
                             np.random.default_rng(seed + 1))
    config = GrimpConfig(epochs=epochs, patience=patience, seed=seed,
                         **VARIANTS[name])
    imputer = GrimpImputer(config)
    loop_faults = _count_loop_faults(imputer)
    imputed = imputer.impute(corruption.dirty)
    score = evaluate_imputation(corruption, imputed)
    timings = imputer.timings_
    epochs_ran = len(imputer.history_)

    def seconds(key: str) -> float:
        entry = timings.get(key, {})
        return float(entry.get("seconds", 0.0))

    train_seconds = seconds("fit/train")
    return {
        "dataset": dataset,
        "n_rows": n_rows,
        "epochs_ran": epochs_ran,
        "train_seconds": train_seconds,
        "epoch_seconds": train_seconds / max(1, epochs_ran),
        "forward_seconds": seconds("fit/train/epoch/forward"),
        "backward_seconds": seconds("fit/train/epoch/backward"),
        "step_seconds": seconds("fit/train/epoch/step"),
        "validate_seconds": seconds("fit/train/epoch/validate"),
        "total_seconds": imputer.train_seconds_,
        "faults_per_epoch": loop_faults["minflt"] / max(1, epochs_ran),
        "accuracy": score.accuracy,
        "rmse": score.rmse,
        "train_conversions": imputer.train_conversions_,
    }


def _count_loop_faults(imputer: GrimpImputer) -> dict:
    """Record the minor page faults of ``imputer``'s epoch loop into
    the returned dict (key ``minflt``) once it has run."""
    loop = imputer._train_loop
    faults = {"minflt": 0}

    def counted(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return loop(*args, **kwargs)
        finally:
            faults["minflt"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    imputer._train_loop = counted
    return faults


def aggregate(records: list[dict]) -> dict:
    """Mean per-variant numbers across datasets."""
    keys = ("train_seconds", "epoch_seconds", "forward_seconds",
            "backward_seconds", "step_seconds", "total_seconds",
            "faults_per_epoch")
    summary = {key: float(np.mean([record[key] for record in records]))
               for key in keys}
    accuracies = [record["accuracy"] for record in records
                  if np.isfinite(record["accuracy"])]
    rmses = [record["rmse"] for record in records
             if np.isfinite(record["rmse"])]
    summary["accuracy"] = float(np.mean(accuracies)) if accuracies \
        else float("nan")
    summary["rmse"] = float(np.mean(rmses)) if rmses else float("nan")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config that finishes in well under 30 s")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: BENCH_hotpath.json "
                             "in the repository root)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    profile_name = "smoke" if args.smoke else "full"
    profile = PROFILES[profile_name]
    out_path = args.out if args.out is not None else \
        Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

    runs: dict[str, list[dict]] = {name: [] for name in VARIANTS}
    for dataset, n_rows in profile["datasets"]:
        for name in VARIANTS:
            record = run_variant(name, dataset, n_rows,
                                 profile["error_rate"], profile["epochs"],
                                 profile["patience"], args.seed)
            runs[name].append(record)
            print(f"{name:7s} {dataset:12s} "
                  f"epoch={record['epoch_seconds'] * 1e3:8.1f} ms  "
                  f"acc={record['accuracy']:.3f}  "
                  f"rmse={record['rmse']:.4f}  "
                  f"faults/epoch={record['faults_per_epoch']:.0f}")

    summaries = {name: aggregate(records)
                 for name, records in runs.items()}
    report = {
        "benchmark": "hotpath",
        "profile": profile_name,
        "seed": args.seed,
        "python": platform.python_version(),
        "runs": {name: {"per_dataset": records,
                        "summary": summaries[name]}
                 for name, records in runs.items()},
        "train_conversions": {
            name: records[0]["train_conversions"]
            for name, records in runs.items()
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    # Machine-portable metrics only (ratios, accuracy, counters) plus
    # informational absolute timings; the CI gate bounds the former and
    # merely records the latter, since wall times vary across runners.
    metrics: dict[str, float] = {}
    for name in VARIANTS:
        metrics[f"accuracy.{name}"] = summaries[name]["accuracy"]
        metrics[f"epoch_ms.{name}"] = \
            summaries[name]["epoch_seconds"] * 1e3
        conversions = report["train_conversions"][name]
        metrics[f"train_conversions.{name}"] = \
            float(sum(conversions.values()))
    metrics["faults_per_epoch.plan32"] = \
        summaries["plan32"]["faults_per_epoch"]
    manifest_path = out_path.with_name(out_path.stem + "_manifest.json")
    write_manifest(build_manifest(
        {"kind": "bench", "benchmark": "hotpath",
         "profile": profile_name, "seed": args.seed},
        metrics=metrics), manifest_path)

    print(f"\nepoch time  "
          f"plan64={summaries['plan64']['epoch_seconds'] * 1e3:.1f} ms  "
          f"plan32={summaries['plan32']['epoch_seconds'] * 1e3:.1f} ms")
    print(f"wrote {out_path}")
    print(f"wrote {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
