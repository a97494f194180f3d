"""One fit in a fresh interpreter: CSV in, filled CSV out.

Makes the same public calls as ``repro impute``: ``read_csv`` ->
``make_imputer`` -> ``impute`` -> ``write_csv``, and optionally
``save_checkpoint``.  The epoch budget is fixed (``patience = epochs``)
so early stopping cannot make wall time jump by whole epochs.

Usage::

    python perfbench/fit_child.py SPEC.json RESULT.json

``SPEC.json`` holds ``input``, ``output``, ``algorithm``, ``seed``,
``epochs``, ``batch_size``, ``fanout``, ``checkpoint`` (or null) and
``spawned_at`` (the parent's ``time.monotonic()`` just before the
spawn; the clock is system-wide, so ``setup_s`` spans interpreter
start and imports).  ``RESULT.json`` receives the phase times, the
fit's span aggregate and the process-wide counters.
"""

from __future__ import annotations

import json
import sys
import time

from repro.data import read_csv, write_csv
from repro.experiments import make_imputer
from repro.telemetry import TENSOR_OPS, get_registry

READY_AT = time.monotonic()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    started = time.perf_counter()
    dirty = read_csv(spec["input"])
    read_done = time.perf_counter()
    imputer = make_imputer(spec["algorithm"], profile="fast",
                           seed=spec["seed"],
                           batch_size=spec["batch_size"],
                           fanout=spec["fanout"])
    imputer.config.epochs = spec["epochs"]
    imputer.config.patience = spec["epochs"]
    imputed = imputer.impute(dirty)
    write_started = time.perf_counter()
    write_csv(imputed, spec["output"])
    finished = time.perf_counter()
    ops = TENSOR_OPS.snapshot()
    result = {
        "setup_s": READY_AT - spec["spawned_at"],
        "fit_s": finished - started,
        "read_csv_s": read_done - started,
        "write_csv_s": finished - write_started,
        "spans": {path: entry for path, entry in imputer.timings_.items()
                  if path != "meta"},
        "counters": get_registry().snapshot(),
        "tensor_ops": {"ops": ops["total_ops"],
                       "bytes": ops["total_bytes"]},
    }
    if spec["checkpoint"]:
        saving = time.perf_counter()
        imputer.save_checkpoint(spec["checkpoint"])
        result["checkpoint_save_s"] = time.perf_counter() - saving
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
