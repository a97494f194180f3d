"""Batched CSR kernel for weighted random walks.

The seed implementation advanced one walk at a time, paying one Python
``searchsorted`` call per step per walk — O(n_walks x walk_length)
interpreter round-trips.  This kernel freezes the adjacency into three
flat arrays and advances *all* walk fronts one step at a time, so a
whole corpus costs O(walk_length) vectorized numpy calls:

* ``indptr``/``indices`` — the usual CSR layout of the weighted graph;
* ``keys`` — per-edge *search keys*: for an edge at CSR position ``j``
  owned by node ``u``, ``keys[j] = u + c`` where ``c`` is the node's
  cumulative normalized weight up to and including that edge
  (``0 < c <= 1``).  Keys are therefore globally sorted, and sampling
  a weighted neighbor of every front ``u_i`` with draw ``r_i`` in
  ``[0, 1)`` is ONE batched ``np.searchsorted(keys, u + r)`` — the
  query ``u_i + r_i`` can only land inside node ``u_i``'s segment.

Sampling semantics match ``WalkGraph.sample_neighbor`` exactly
(cumulative inverse-CDF with a right-side search and a final clamp),
but the kernel consumes randomness front-parallel rather than
walk-sequential, so corpora differ draw-for-draw from the seed path
while remaining deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from ..tensor import get_default_dtype

__all__ = ["FrozenWalkGraph", "walk_shard", "walks_to_lists"]


class FrozenWalkGraph:
    """Immutable CSR snapshot of a :class:`~repro.embeddings.WalkGraph`.

    Parameters are the prebuilt flat arrays; use :meth:`freeze` to
    build them from a mutable ``WalkGraph``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 keys: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.keys = keys
        self.n_nodes = indptr.shape[0] - 1

    @classmethod
    def freeze(cls, walk_graph) -> "FrozenWalkGraph":
        """Flatten a mutable ``WalkGraph`` into CSR + search keys."""
        neighbor_lists = walk_graph._neighbors
        weight_lists = walk_graph._weights
        n_nodes = walk_graph.n_nodes
        degrees = np.fromiter((len(row) for row in neighbor_lists),
                              count=n_nodes, dtype=np.int64)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        n_edges = int(indptr[-1])
        indices = np.empty(n_edges, dtype=np.int64)
        weights = np.empty(n_edges, dtype=get_default_dtype())
        for node in range(n_nodes):
            lo, hi = indptr[node], indptr[node + 1]
            if lo == hi:
                continue
            indices[lo:hi] = neighbor_lists[node]
            weights[lo:hi] = weight_lists[node]
        return cls(indptr, indices, cls._search_keys(indptr, weights))

    @staticmethod
    def _search_keys(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-edge keys ``owner + cumulative_normalized_weight``."""
        n_edges = weights.shape[0]
        if n_edges == 0:
            return np.empty(0, dtype=get_default_dtype())
        degrees = np.diff(indptr)
        owners = np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64),
                           degrees)
        running = np.cumsum(weights)
        starts = indptr[:-1][degrees > 0]
        # Cumulative weight *before* each node's segment, broadcast to
        # its edges; subtracting yields within-segment running sums.
        base_per_segment = running[starts] - weights[starts]
        base = np.repeat(base_per_segment, degrees[degrees > 0])
        segment_cum = running - base
        ends = indptr[1:][degrees > 0] - 1
        totals = np.repeat(segment_cum[ends], degrees[degrees > 0])
        keys = owners + segment_cum / totals
        return keys

    def step(self, current: np.ndarray,
             draws: np.ndarray) -> np.ndarray:
        """Advance every front one weighted step; ``-1`` marks dead ends.

        ``current`` holds the front node per walk, ``draws`` one
        uniform ``[0, 1)`` variate per walk.
        """
        successors = np.full(current.shape[0], -1, dtype=np.int64)
        lo = self.indptr[current]
        hi = self.indptr[current + 1]
        active = hi > lo
        if not active.any():
            return successors
        fronts = current[active]
        positions = np.searchsorted(self.keys, fronts + draws[active],
                                    side="right")
        # Clamp to the segment tail: a draw within one ulp of 1.0 may
        # round past the final key (the seed path's min(...) clamp).
        positions = np.minimum(positions, hi[active] - 1)
        successors[active] = self.indices[positions]
        return successors


def walk_shard(graph: FrozenWalkGraph, starts: np.ndarray,
               walk_length: int, seed: np.random.SeedSequence
               ) -> tuple[np.ndarray, np.ndarray]:
    """Run one walk from each of ``starts`` with the shard's own seed.

    Returns ``(matrix, lengths)`` where ``matrix`` is
    ``(len(starts), walk_length)`` with ``-1`` padding after early
    stops.
    """
    rng = np.random.default_rng(seed)
    n_walks = starts.shape[0]
    matrix = np.full((n_walks, walk_length), -1, dtype=np.int64)
    matrix[:, 0] = starts
    current = starts.astype(np.int64, copy=True)
    alive = np.arange(n_walks)
    for position in range(1, walk_length):
        if alive.shape[0] == 0:
            break
        draws = rng.random(alive.shape[0])
        successors = graph.step(current[alive], draws)
        moved = successors >= 0
        survivors = alive[moved]
        matrix[survivors, position] = successors[moved]
        current[survivors] = successors[moved]
        alive = survivors
    lengths = np.count_nonzero(matrix >= 0, axis=1).astype(np.int64)
    return matrix, lengths


def walks_to_lists(matrix: np.ndarray,
                   lengths: np.ndarray) -> list[list[int]]:
    """Convert a padded walk matrix back to ragged Python lists."""
    rows = matrix.tolist()
    return [row[:length] for row, length in zip(rows, lengths.tolist())]
