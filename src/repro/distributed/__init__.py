"""Data-parallel GNN training over the shared-memory worker pool.

Layer 12: the minibatch schedule PR'd in :mod:`repro.sampling` is
already bit-deterministic and its :class:`~repro.sampling.FrozenGraph`
arrays are already shared-memory friendly — this package shards each
epoch across long-lived :class:`repro.parallel.ShardPool` workers and
reduces the per-shard step results with sample-weighted averaging:

* :mod:`repro.distributed.shard` — the one training step
  (forward -> summed loss -> backward -> step) that full-graph epochs,
  serial sampled batches and shard workers all call, so parity is
  structural, plus the per-batch sampling in front of it;
* :mod:`repro.distributed.worker` — worker-side init (model skeleton
  rebuilt from a picklable spec, graph attached via shared memory,
  private :class:`~repro.sampling.SubgraphPlanCache`) and the
  per-shard task function;
* :mod:`repro.distributed.coordinator` —
  :class:`DataParallelTrainer`: per-epoch broadcast, ordered shard
  dispatch, and the fixed-order float64 weighted reduce that makes
  results bit-identical for every worker count at fixed ``dp_shards``.

Alongside :mod:`repro.serve` and :mod:`repro.parallel`, this is a
sanctioned concurrency owner (lint rule RPR004) — it coordinates the
pool directly instead of describing one-shot shard plans.

Entry points: ``GrimpConfig(dp_shards=..., dp_workers=...)`` or
``repro impute --dp-shards N --dp-workers W``.
"""

from .coordinator import DataParallelTrainer
from .shard import PHASES, evaluate, sampled_inputs, step, train_shard

__all__ = [
    "DataParallelTrainer",
    "PHASES",
    "evaluate",
    "sampled_inputs",
    "step",
    "train_shard",
]
