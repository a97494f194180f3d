"""The one training step, shared by both training paths.

GRIMP trains every attribute task against one summed loss (§3.6,
Algorithm 1); :func:`step` is that update, and the paths differ only
in where a step's ``(operators, features, parts)`` come from:

* a full-graph epoch is one step over the fit's
  :class:`~repro.gnn.MessagePassingPlan`, one part per task (each with
  a precompiled gather operator);
* a sampled minibatch is one step over its sampled subgraph
  (:func:`sampled_inputs`) with one part.

A part is ``(column, indices, gather, targets)``: an ``(n, C)`` index
matrix into the node representations (trailing zero row included), an
optional gather operator replacing it, and the task's targets.

The first :func:`step` of a process calls :func:`keep_freed_pages`, so
both training paths run with the same allocator setting, and the
server, which never trains, never gets it.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..tensor import Tensor, cross_entropy, focal_loss, mse_loss, no_grad

__all__ = ["sampled_inputs", "batch_loss", "step", "evaluate",
           "keep_freed_pages"]

#: glibc ``mallopt`` parameters (``malloc.h``) and the value both get.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 1 << 30

_pages_kept = False


def keep_freed_pages() -> None:
    """Keep freed training buffers mapped in the heap (idempotent).

    Every step allocates and frees the same few-megabyte buffers.  By
    default glibc serves each from a fresh ``mmap`` and trims the heap
    top on ``free``, so every step page-faults its buffers in again.
    Raising both the mmap and the trim threshold to 1 GiB keeps freed
    pages in the heap for the next step (raising the mmap threshold
    alone measured more faults, not fewer).  Where libc has no
    ``mallopt`` this does nothing.
    """
    global _pages_kept
    if _pages_kept:
        return
    _pages_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


def sampled_inputs(sampler, n_layers: int, feature_tensor: Tensor,
                   indices: np.ndarray, null_index: int,
                   rng: np.random.Generator, tracer,
                   build_backward: bool = True):
    """Sample a batch's subgraph and assemble its operators.

    Returns ``(operators, features, local_indices)``: the subgraph's
    plan (in the sampled weights' dtype, which the frozen graph shares
    with the features), the feature rows of its nodes, and
    ``indices`` relabeled into local ids (``null_index`` -> the local
    zero row).  Pass ``build_backward=False`` for batches that run
    under ``no_grad`` (validation, fill): their transposes are never
    multiplied by, so they stay lazy.  A batch that references no real
    node (every context cell masked or missing) samples nothing: its
    operators are ``None``, so :meth:`GrimpModel.node_representations`
    returns the zero row alone, and every index points at it.
    """
    seeds = indices[indices != null_index]
    if seeds.size == 0:
        return (None, Tensor(feature_tensor.data[:0]),
                np.zeros(indices.shape, dtype=np.int64))
    with tracer.span("sample"):
        subgraph = sampler.sample(seeds, n_layers, rng)
    with tracer.span("compile"):
        operators = subgraph.compile(build_backward)
    return (operators, feature_tensor[subgraph.nodes],
            subgraph.local_indices(indices, null_index))


def batch_loss(model, column: str, vectors: Tensor, targets: np.ndarray,
               categorical_loss: str) -> Tensor:
    """One task's loss (§3.6: cross-entropy/focal or MSE)."""
    output = model.task_output(column, vectors)
    if model.kinds[column] == "categorical":
        if categorical_loss == "focal":
            return focal_loss(output, targets)
        return cross_entropy(output, targets)
    return mse_loss(output.reshape(targets.shape[0]), targets)


def _summed_loss(model, operators, features: Tensor, parts,
                 categorical_loss: str) -> Tensor:
    """One forward pass and the sum of every part's task loss."""
    h_extended = model.node_representations(operators, features)
    total: Tensor | None = None
    for column, indices, gather, targets in parts:
        vectors = model.training_vectors(h_extended, indices, gather=gather)
        loss = batch_loss(model, column, vectors, targets, categorical_loss)
        total = loss if total is None else total + loss
    if total is None:
        raise RuntimeError("no training samples — is the table empty?")
    return total


def step(model, optimizer, operators, features: Tensor, parts,
         categorical_loss: str, tracer) -> float:
    """One in-place optimizer update on the summed loss of ``parts``;
    returns that loss."""
    keep_freed_pages()
    optimizer.zero_grad()
    with tracer.span("forward"):
        loss = _summed_loss(model, operators, features, parts,
                            categorical_loss)
    with tracer.span("backward"):
        loss.backward()
    with tracer.span("step"):
        optimizer.clip_grad_norm(5.0)
        optimizer.step()
    return loss.item()


def evaluate(model, operators, features: Tensor, parts,
             categorical_loss: str) -> float:
    """The summed loss of ``parts`` without recording gradients."""
    with no_grad():
        return _summed_loss(model, operators, features, parts,
                            categorical_loss).item()

