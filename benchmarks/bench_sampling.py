"""Sampled-training benchmark: minibatch neighbor sampling vs full graph.

Exercises the ``repro.sampling`` subsystem end-to-end and measures the
three claims the subsystem makes:

* **memory** — sampled training of a synthetic table ``SCALE``x larger
  than the full-graph reference fits in the reference's peak-memory
  budget (``tracemalloc`` peaks over the entire ``impute()`` run,
  training and fill included).  The informational ``mem.blowup``
  metric records how much the full-graph path needs on the *same*
  large table — the cost the sampler avoids;
* **accuracy parity** — on the flare seed dataset, sampled training
  imputes within one point of the full-graph path (gated through
  ``accuracy.parity`` = 1 + sampled - full, so a drop beyond the
  tolerance fails while "sampled happens to win" passes);
* **determinism** — two runs with the same seed produce identical
  loss histories and imputations (the schedule derives from
  ``spawn_seeds``);
* **no per-batch conversions** — the sampler hands each batch its
  operators ready to multiply, so the sampled leg's epoch loop runs no
  sparse-format conversion (``train_conversions.sampled``, gated at 0).

Emits ``BENCH_sampling.json`` plus a schema-versioned
``BENCH_sampling_manifest.json`` whose flat metrics feed the CI gate
(``scripts/check_bench_regression.py`` against
``benchmarks/baselines/sampling.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling.py            # full
    PYTHONPATH=src python benchmarks/bench_sampling.py --smoke    # <30 s
    PYTHONPATH=src python benchmarks/bench_sampling.py --out path.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.corruption import inject_mcar
from repro.core import GrimpConfig, GrimpImputer
from repro.data import Table
from repro.datasets import load
from repro.telemetry import build_manifest, write_manifest

#: How much larger the sampled table is than the full-graph reference.
SCALE = 10

PROFILES = {
    "full": {"base_rows": 200, "parity_rows": 140, "epochs": 3,
             "parity_epochs": 6, "batch_size": 48, "fanout": 2,
             "vocab": 18, "n_cat": 4, "error_rate": 0.2},
    "smoke": {"base_rows": 150, "parity_rows": 100, "epochs": 2,
              "parity_epochs": 5, "batch_size": 32, "fanout": 2,
              "vocab": 15, "n_cat": 4, "error_rate": 0.2},
}

#: Model dimensions shared by every leg.  ``train_features=False``
#: keeps the node-feature matrix a constant, so peaks measure the
#: training machinery (activations, plans, optimizer state) rather
#: than a feature parameter both paths would pay identically.
DIMS = dict(feature_dim=8, gnn_dim=32, merge_dim=32,
            train_features=False)


def synthetic_table(n_rows: int, vocab: int, n_cat: int,
                    seed: int = 0) -> Table:
    """Correlated low-cardinality categoricals plus one numeric column.

    Every categorical is a noisy function of a hidden ``base`` draw, so
    imputation is learnable; the bounded vocabulary mirrors real
    relational attributes and is what gives neighbor sampling its
    memory edge (cell-node count stays fixed as rows grow).
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, vocab, n_rows)
    columns: dict[str, list] = {}
    for index in range(n_cat):
        noise = rng.integers(0, vocab, n_rows)
        mixed = np.where(rng.random(n_rows) < 0.9,
                         (base * (index + 2) + index) % vocab, noise)
        columns[f"cat{index}"] = [f"v{index}_{value}" for value in mixed]
    columns["num"] = (base.astype(float) / vocab
                      + rng.normal(0, 0.02, n_rows)).tolist()
    return Table(columns)


def run_variant(table: Table, *, epochs: int, seed: int,
                batch_size: int | None = None, fanout: int | None = None,
                error_rate: float = 0.2, measure_memory: bool = False):
    """Corrupt ``table``, train, and score one configuration.

    Returns a report dict with timing, accuracy, the imputer's loss
    history (for determinism comparison), the imputed cell values, and
    — when ``measure_memory`` — the tracemalloc peak over the whole
    ``impute()`` call.
    """
    corruption = inject_mcar(table, error_rate,
                             np.random.default_rng(seed + 1))
    config = GrimpConfig(epochs=epochs, patience=epochs, lr=1e-2,
                         seed=seed, batch_size=batch_size, fanout=fanout,
                         **DIMS)
    imputer = GrimpImputer(config)
    if measure_memory:
        tracemalloc.start()
    started = time.perf_counter()
    imputed = imputer.impute(corruption.dirty)
    elapsed = time.perf_counter() - started
    peak = None
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    correct = sum(1 for row, column in corruption.injected
                  if imputed.get(row, column) ==
                  corruption.clean.get(row, column))
    cells = {(row, column): imputed.get(row, column)
             for row, column in corruption.injected}
    return {
        "seconds": elapsed,
        "accuracy": correct / max(1, len(corruption.injected)),
        "peak_bytes": peak,
        "history": [(entry["train_loss"], entry["validation_loss"])
                    for entry in imputer.history_],
        "cells": cells,
        "sampling_meta": imputer.timings_["meta"].get("sampling"),
        "train_conversions": imputer.train_conversions_,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config that finishes in well under 30 s")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: "
                             "BENCH_sampling.json in the repo root)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    profile_name = "smoke" if args.smoke else "full"
    profile = PROFILES[profile_name]
    out_path = args.out if args.out is not None else \
        Path(__file__).resolve().parent.parent / "BENCH_sampling.json"
    sampled = dict(batch_size=profile["batch_size"],
                   fanout=profile["fanout"],
                   error_rate=profile["error_rate"])

    base = synthetic_table(profile["base_rows"], profile["vocab"],
                           profile["n_cat"], seed=args.seed)
    large = synthetic_table(profile["base_rows"] * SCALE,
                            profile["vocab"], profile["n_cat"],
                            seed=args.seed)

    # --- memory: sampled 10x table vs full-graph 1x table -------------
    full_small = run_variant(base, epochs=profile["epochs"],
                             seed=args.seed, measure_memory=True,
                             error_rate=profile["error_rate"])
    sampled_large = run_variant(large, epochs=profile["epochs"],
                                seed=args.seed, measure_memory=True,
                                **sampled)
    full_large = run_variant(large, epochs=profile["epochs"],
                             seed=args.seed, measure_memory=True,
                             error_rate=profile["error_rate"])
    budget_ratio = full_small["peak_bytes"] / sampled_large["peak_bytes"]
    blowup = full_large["peak_bytes"] / sampled_large["peak_bytes"]
    print(f"full  1x  peak={full_small['peak_bytes'] / 1e6:7.2f} MB  "
          f"t={full_small['seconds']:5.1f}s")
    print(f"samp {SCALE:2d}x  "
          f"peak={sampled_large['peak_bytes'] / 1e6:7.2f} MB  "
          f"t={sampled_large['seconds']:5.1f}s  "
          f"budget_ratio={budget_ratio:.2f}")
    print(f"full {SCALE:2d}x  "
          f"peak={full_large['peak_bytes'] / 1e6:7.2f} MB  "
          f"t={full_large['seconds']:5.1f}s  blowup={blowup:.1f}x")

    # --- accuracy parity on the flare seed dataset --------------------
    flare = load("flare", n_rows=profile["parity_rows"], seed=args.seed)
    parity_full = run_variant(flare, epochs=profile["parity_epochs"] * 4,
                              seed=args.seed,
                              error_rate=profile["error_rate"])
    parity_sampled = run_variant(flare, epochs=profile["parity_epochs"],
                                 seed=args.seed, **sampled)
    delta = parity_sampled["accuracy"] - parity_full["accuracy"]
    print(f"flare full acc={parity_full['accuracy']:.3f}  "
          f"sampled acc={parity_sampled['accuracy']:.3f}  "
          f"delta={delta:+.3f}")

    # --- determinism: same seed -------------------------------------
    repeat = run_variant(flare, epochs=profile["parity_epochs"],
                         seed=args.seed, **sampled)
    identical = parity_sampled["history"] == repeat["history"] \
        and parity_sampled["cells"] == repeat["cells"]
    print(f"deterministic rerun: {identical}")

    def strip(report: dict) -> dict:
        return {key: value for key, value in report.items()
                if key not in ("cells", "history")}

    report = {
        "benchmark": "sampling",
        "profile": profile_name,
        "seed": args.seed,
        "scale": SCALE,
        "python": platform.python_version(),
        "runs": {
            "full_small": strip(full_small),
            "sampled_large": strip(sampled_large),
            "full_large": strip(full_large),
            "parity_full": strip(parity_full),
            "parity_sampled": strip(parity_sampled),
        },
        "memory": {"budget_ratio": budget_ratio, "blowup": blowup},
        "accuracy_delta": delta,
        "deterministic": identical,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    # Ratios, parity and determinism bits are machine-portable and
    # gated; absolute peaks and wall times stay informational.
    metrics = {
        "mem.budget_ratio": budget_ratio,
        "mem.blowup": blowup,
        "mem.peak_mb.full_small": full_small["peak_bytes"] / 1e6,
        "mem.peak_mb.sampled_large": sampled_large["peak_bytes"] / 1e6,
        "mem.peak_mb.full_large": full_large["peak_bytes"] / 1e6,
        "accuracy.full": parity_full["accuracy"],
        "accuracy.sampled": parity_sampled["accuracy"],
        "accuracy.parity": 1.0 + delta,
        "determinism.identical": float(identical),
        "train_conversions.sampled":
            sum(sampled_large["train_conversions"].values()),
        "seconds.full_small": full_small["seconds"],
        "seconds.sampled_large": sampled_large["seconds"],
        "seconds.full_large": full_large["seconds"],
    }
    manifest_path = out_path.with_name(out_path.stem + "_manifest.json")
    write_manifest(build_manifest(
        {"kind": "bench", "benchmark": "sampling",
         "profile": profile_name, "seed": args.seed, "scale": SCALE},
        metrics=metrics), manifest_path)

    print(f"\nwrote {out_path}")
    print(f"wrote {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
