"""The shared per-batch training step for sampled minibatch training.

One implementation of sample -> compile -> forward -> backward -> step
serves both execution modes:

* the serial sampled path (:meth:`repro.core.GrimpImputer.impute` with
  ``batch_size`` set and no ``dp_shards``) calls :func:`train_shard`
  once per epoch with the whole batch list;
* data-parallel shard workers (:mod:`repro.distributed.worker`) call it
  with their shard's batch subset.

Because both paths execute the *same* statements in the same order per
batch, single-shard data-parallel training is bit-identical to the
serial path by construction, not by careful duplication.
"""

from __future__ import annotations

import numpy as np

from ..tensor import (Tensor, cross_entropy, focal_loss, mse_loss,
                      use_workspace)

__all__ = ["PHASES", "sample_batch", "subgraph_vectors", "batch_loss",
           "train_shard"]

#: Per-batch phases every sampled training step runs through, in order.
#: Shard workers report wall seconds per phase under these names and
#: the parent folds them into ``fit/train/epoch/shard/<phase>`` spans.
PHASES = ("sample", "compile", "forward", "backward", "step")


def sample_batch(sampler, plan_cache, n_layers: int, indices: np.ndarray,
                 null_index: int, rng: np.random.Generator, tracer):
    """Sample a batch's subgraph and compile (or fetch) its operators.

    Returns ``(None, None)`` when the batch references no real nodes
    (every context cell masked/missing) — the caller then falls back to
    pure zero-row vectors.
    """
    seeds = indices[indices != null_index]
    if seeds.size == 0:
        return None, None
    with tracer.span("sample"):
        subgraph = sampler.sample(seeds, n_layers, rng)
    with tracer.span("compile"):
        operators = plan_cache.get(subgraph)
    return subgraph, operators


def subgraph_vectors(model, subgraph, operators, feature_tensor: Tensor,
                     indices: np.ndarray, null_index: int) -> Tensor:
    """Training vectors for a batch from its sampled subgraph.

    Mirrors the full-graph gather: representations for the subgraph's
    nodes plus the trailing zero row, indexed through the relabeled
    ``(batch, C)`` matrix.
    """
    if subgraph is None:
        return Tensor(np.zeros(
            (indices.shape[0], len(model.columns),
             model.shared.output_dim),
            dtype=feature_tensor.data.dtype))
    local_features = feature_tensor[subgraph.nodes]
    h_extended = model.node_representations(operators, local_features)
    local = subgraph.local_indices(indices, null_index)
    return model.training_vectors(h_extended, local)


def batch_loss(model, column: str, vectors: Tensor, targets: np.ndarray,
               categorical_loss: str) -> Tensor:
    """One batch's task loss (§3.6: cross-entropy/focal or MSE)."""
    output = model.task_output(column, vectors)
    if model.kinds[column] == "categorical":
        if categorical_loss == "focal":
            return focal_loss(output, targets)
        return cross_entropy(output, targets)
    return mse_loss(output.reshape(targets.shape[0]), targets)


def train_shard(*, model, optimizer, sampler, plan_cache,
                feature_tensor: Tensor, columns: list[str], data,
                batches, null_index: int, categorical_loss: str,
                tracer) -> list[float]:
    """Run every batch of one shard through the sampled training step.

    Parameters
    ----------
    columns / data:
        Task-index-aligned column names and ``(indices, targets)``
        array pairs (one per task, in schedule task order).
    batches:
        ``(task, rows, seed)`` triples in visit order — either a whole
        epoch (serial path) or one shard of it (data-parallel path).

    A batch whose plan-cache entry carries a workspace arena (plans
    earn one on first reuse) runs its step under that arena —
    recurring subgraph shapes rent the same buffers every epoch — and
    the arena is reset once the loss has been reduced to a float.
    One-off subgraph shapes allocate normally: pooling them would pin
    memory for shapes that never come back, which is exactly the
    sampled path's memory-budget claim (see ``bench_sampling``).

    Returns per-task loss sums weighted by batch size (plain float
    accumulation in visit order, so shard results reduce to the exact
    serial total when concatenated in shard order).  The model and
    optimizer are updated in place.
    """
    sums = [0.0] * len(columns)
    n_layers = model.shared.gnn.n_layers
    for task, rows, seed in batches:
        column = columns[task]
        indices_all, targets_all = data[task]
        with tracer.span("batch"):
            rng = np.random.default_rng(seed)
            indices = indices_all[rows]
            subgraph, operators = sample_batch(
                sampler, plan_cache, n_layers, indices, null_index, rng,
                tracer)
            arena = getattr(operators, "arena", None)
            with use_workspace(arena):
                optimizer.zero_grad()
                with tracer.span("forward"):
                    vectors = subgraph_vectors(
                        model, subgraph, operators, feature_tensor,
                        indices, null_index)
                    loss = batch_loss(model, column, vectors,
                                      targets_all[rows], categorical_loss)
                with tracer.span("backward"):
                    loss.backward()
                with tracer.span("step"):
                    optimizer.clip_grad_norm(5.0)
                    optimizer.step()
                sums[task] += loss.item() * rows.size
            if arena is not None:
                arena.reset()
    return sums
