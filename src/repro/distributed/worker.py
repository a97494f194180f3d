"""Shard-worker side of data-parallel GNN training.

Each worker of the :class:`repro.parallel.ShardPool` runs
:func:`dp_worker_init` exactly once — attaching the frozen graph and
table encodings through shared memory (one physical copy per host) and
building its *own* model skeleton, optimizer, sampler, and subgraph
plan cache — and then serves :func:`dp_train_shard` tasks: load the
broadcast weights, train the shard's batches through the shared
:func:`repro.distributed.shard.train_shard` step, and return the
resulting parameters, optimizer moments, per-task loss sums, and
per-phase timings for the parent to reduce.

The model is rebuilt from a picklable *spec* (schema, cardinalities,
attribute vectors, config) rather than shipped as tensors: parameters
are overwritten by the first ``load_state_dict`` anyway, and in-place
loading preserves parameter identity, so the optimizer built at init
stays bound across every epoch's reload.
"""

from __future__ import annotations

import numpy as np

from ..nn import Adam
from ..sampling import FrozenGraph, NeighborSampler, SubgraphPlanCache
from ..telemetry import Tracer
from .shard import PHASES, train_shard

__all__ = ["dp_worker_init", "dp_train_shard"]


def dp_worker_init(views, payload) -> dict:
    """Build one worker's persistent training state.

    ``views`` maps shared-array names (frozen-graph CSR arrays, task
    index/target matrices, optionally the constant feature matrix) to
    zero-copy shared-memory views; ``payload`` is the picklable model
    spec assembled by the coordinator.
    """
    # Imported lazily: repro.core imports repro.distributed for the
    # trainer integration, so a module-level import here would cycle.
    from ..core.model import GrimpModel

    config = payload["config"]
    dtype = np.dtype(config.dtype)
    # Any seed works: every parameter (and constant, via the
    # include_constants broadcast) is overwritten by the first
    # load_state_dict, which writes in place and preserves parameter
    # identity — the optimizer built below stays bound forever.
    model = GrimpModel(payload["columns"], payload["kinds"],
                       payload["cardinalities"],
                       payload["attribute_vectors"], config,
                       np.random.default_rng(0),
                       fd_related=payload["fd_related"],
                       gnn_edge_types=payload["edge_types"])
    # Trained features are overwritten by the broadcast, so zeros of
    # the right shape stand in for them.
    feature_tensor = model.attach_features(
        np.zeros(payload["feature_shape"], dtype=dtype)
        if config.train_features else views["dp_features"], dtype)
    frozen = FrozenGraph.from_arrays(payload["edge_types"], views)
    sampler = NeighborSampler(frozen, fanout=config.fanout)
    plan_cache = SubgraphPlanCache(config.plan_cache_size, dtype=dtype)
    optimizer = Adam(model.parameters(), lr=config.lr)
    data = [(views[f"dp_task{task}_indices"],
             views[f"dp_task{task}_targets"])
            for task in range(len(payload["task_columns"]))]
    return {
        "model": model,
        "optimizer": optimizer,
        "sampler": sampler,
        "plan_cache": plan_cache,
        "feature_tensor": feature_tensor,
        "task_columns": list(payload["task_columns"]),
        "data": data,
        "null_index": payload["null_index"],
        "categorical_loss": config.categorical_loss,
    }


def dp_train_shard(task, views, state) -> dict:
    """Train one shard of one epoch and return the step result.

    ``task`` carries the broadcast model/optimizer state plus the
    shard's ``(task, rows, seed)`` batch list.  Timing runs on a local
    aggregate-only tracer; the parent folds the per-phase seconds into
    its own ``fit/train/epoch/shard/*`` spans.
    """
    model = state["model"]
    optimizer = state["optimizer"]
    model.load_state_dict(task["state"])
    optimizer.set_state(task["optimizer"])
    model.train()
    tracer = Tracer(max_spans=0)
    sums = train_shard(
        model=model, optimizer=optimizer, sampler=state["sampler"],
        plan_cache=state["plan_cache"],
        feature_tensor=state["feature_tensor"],
        columns=state["task_columns"], data=state["data"],
        batches=task["batches"], null_index=state["null_index"],
        categorical_loss=state["categorical_loss"], tracer=tracer)
    aggregate = tracer.aggregate()
    phases = {}
    for phase in PHASES:
        entry = aggregate.get(f"batch/{phase}", {})
        phases[phase] = {"seconds": entry.get("seconds", 0.0),
                         "count": entry.get("count", 0)}
    samples = sum(int(rows.size) for _, rows, _ in task["batches"])
    return {
        "state": model.state_dict(),
        "optimizer": optimizer.get_state(),
        "loss_sums": sums,
        "samples": samples,
        "steps": len(task["batches"]),
        "phases": phases,
        "plan_cache": state["plan_cache"].stats()
        if state["plan_cache"] is not None else None,
    }
