"""Serving subsystem: checkpointing + online imputation service.

Layers, bottom-up:

* :mod:`~repro.serve.checkpoint` — versioned on-disk format (npz +
  JSON manifest) that round-trips a fitted
  :class:`~repro.core.GrimpImputer` exactly.
* :mod:`~repro.serve.engine` — loads a checkpoint once, pins the GNN
  node representations, and imputes batches of new rows without
  touching the training path.
* :mod:`~repro.serve.batcher` — thread-safe micro-batching of
  concurrent single-row requests (flush when idle, up to a maximum
  batch size).
* :mod:`~repro.serve.server` — stdlib threaded HTTP server exposing
  ``POST /impute``, ``GET /healthz`` (readiness + ``?live=1``
  liveness), and ``GET /metrics`` (``repro serve`` on the CLI).
"""

from .checkpoint import (CheckpointError, CHECKPOINT_FORMAT,
                         CHECKPOINT_VERSION, checkpoint_bundle,
                         imputer_from_bundle, load_checkpoint,
                         load_imputer, save_checkpoint)
from .engine import InferenceEngine, records_to_table, table_to_records
from .batcher import BatcherStopped, MicroBatcher
from .metrics import LatencyHistogram, ServingMetrics, percentile
from .server import ImputationServer

__all__ = [
    "CheckpointError",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_imputer",
    "checkpoint_bundle",
    "imputer_from_bundle",
    "InferenceEngine",
    "records_to_table",
    "table_to_records",
    "MicroBatcher",
    "BatcherStopped",
    "LatencyHistogram",
    "ServingMetrics",
    "percentile",
    "ImputationServer",
]
