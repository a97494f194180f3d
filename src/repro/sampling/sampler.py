"""Fanout-based neighborhood sampling over a :class:`FrozenGraph`.

One :meth:`NeighborSampler.sample` call expands a batch's seed nodes
into the compact subgraph that message passing needs, hop by hop.  Per
hop, per edge type, every frontier node's neighborhood is produced by
vectorized numpy calls — the finite-fanout path is ONE batched
``np.searchsorted`` over the frozen search keys for the entire
frontier (the walk-kernel idiom), and the exact path is one
``repeat``/``cumsum`` slice gather of whole CSR rows.

The subgraph is *square*: every node that appears anywhere in the
expansion gets a local id, and each edge type becomes an ``(s, s)``
CSR operator over the local ids.  Rows are materialized once per node
(the same sampled row serves every GNN layer, which is exactly the
full-graph contract where one adjacency is shared by all layers);
nodes discovered on the last hop contribute features only and keep
empty rows.  With an unbounded fanout the materialized rows are the
full-graph rows verbatim — same neighbors, same normalized weights —
so a minibatch forward over the subgraph reproduces full-graph
outputs (and therefore gradients) for the batch exactly.

With a finite fanout ``k``, each row is estimated by ``k`` draws
*with replacement* from the row's normalized weight distribution,
each contributing weight ``1/k`` (duplicates merge by summation) — an
unbiased estimator of the full row aggregation whose memory cost is
bounded by ``k`` per node per edge type instead of the node's degree.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .frozen import FrozenGraph

__all__ = ["NeighborSampler", "SampledSubgraph"]


class SampledSubgraph:
    """A compact relabeled subgraph produced by one sampler call.

    ``nodes`` holds the sorted global node ids; local id ``i`` is
    global id ``nodes[i]``.  ``adjacencies`` maps each edge type to an
    ``(s, s)`` CSR over local ids, directly consumable by
    :class:`~repro.gnn.HeteroGNN` (and compilable into a
    :class:`~repro.gnn.MessagePassingPlan`).
    """

    __slots__ = ("nodes", "adjacencies")

    def __init__(self, nodes: np.ndarray,
                 adjacencies: dict[str, sparse.csr_matrix]):
        self.nodes = nodes
        self.adjacencies = adjacencies

    @property
    def n_local(self) -> int:
        """Number of local nodes (``s``)."""
        return int(self.nodes.shape[0])

    def local_indices(self, indices: np.ndarray,
                      null_index: int) -> np.ndarray:
        """Map a global node-index matrix into local ids.

        Entries equal to ``null_index`` (the trailing zero row of the
        full graph) map to ``n_local`` — the zero row
        :meth:`GrimpModel.node_representations` appends to the local
        representations.  Every other entry must be a sampled seed.
        """
        flat = np.asarray(indices, dtype=np.int64)
        out = np.full(flat.shape, self.n_local, dtype=np.int64)
        real = flat != null_index
        positions = np.searchsorted(self.nodes, flat[real])
        if positions.size and (np.any(positions >= self.nodes.shape[0])
                               or np.any(self.nodes[np.minimum(
                                   positions, self.nodes.shape[0] - 1)]
                                   != flat[real])):
            raise ValueError("index matrix references nodes outside the "
                             "sampled subgraph")
        out[real] = positions
        return out

    def __repr__(self) -> str:
        return (f"SampledSubgraph(nodes={self.n_local}, "
                f"edge_types={len(self.adjacencies)})")


class NeighborSampler:
    """Expand seed nodes into bounded sampled neighborhoods.

    Parameters
    ----------
    frozen:
        The :class:`FrozenGraph` snapshot to sample from.
    fanout:
        Neighbors to draw per node per edge type per hop.  ``0`` (or
        ``None``) means *unbounded*: every row is taken exactly, with
        its full-graph normalized weights — minibatched but unsampled,
        which is what the golden-parity tests and exact batched
        inference run.
    """

    def __init__(self, frozen: FrozenGraph, fanout: int | None = None):
        fanout = 0 if fanout is None else int(fanout)
        if fanout < 0:
            raise ValueError(f"fanout must be >= 0, got {fanout}")
        self.frozen = frozen
        self.fanout = fanout

    @property
    def exact(self) -> bool:
        """Whether rows are materialized exactly (unbounded fanout)."""
        return self.fanout == 0

    def sample(self, seeds: np.ndarray, n_hops: int,
               rng: np.random.Generator | None = None) -> SampledSubgraph:
        """Sample the ``n_hops``-deep subgraph rooted at ``seeds``.

        ``rng`` supplies the draws for finite fanouts (required then,
        unused for exact expansion).  The draw order is fixed — hops
        outer, edge types in frozen order — so a given generator state
        always yields the same subgraph.
        """
        if not self.exact and rng is None:
            raise ValueError("finite-fanout sampling needs an rng")
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            raise ValueError("cannot sample a subgraph from zero seeds")
        if seeds[0] < 0 or seeds[-1] >= self.frozen.n_nodes:
            raise ValueError("seed node ids out of range")
        blocks: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] \
            = {edge_type: [] for edge_type in self.frozen.edge_types}
        known = seeds
        frontier = seeds
        for _hop in range(n_hops):
            if frontier.size == 0:
                break
            discovered: list[np.ndarray] = []
            for edge_type in self.frozen.edge_types:
                rows, cols, vals = self._rows(edge_type, frontier, rng)
                if rows.size:
                    blocks[edge_type].append((rows, cols, vals))
                    discovered.append(cols)
            if not discovered:
                break
            neighbors = np.unique(np.concatenate(discovered))
            frontier = np.setdiff1d(neighbors, known, assume_unique=True)
            known = np.union1d(known, frontier)
        nodes = known  # sorted by construction
        s = nodes.shape[0]
        adjacencies: dict[str, sparse.csr_matrix] = {}
        for edge_type in self.frozen.edge_types:
            parts = blocks[edge_type]
            if parts:
                rows = np.concatenate([part[0] for part in parts])
                cols = np.concatenate([part[1] for part in parts])
                vals = np.concatenate([part[2] for part in parts])
                local = sparse.coo_matrix(
                    (vals, (np.searchsorted(nodes, rows),
                            np.searchsorted(nodes, cols))),
                    shape=(s, s)).tocsr()
                local.sum_duplicates()
            else:
                local = sparse.csr_matrix((s, s),
                                          dtype=self._weights(edge_type).dtype)
            adjacencies[edge_type] = local
        return SampledSubgraph(nodes, adjacencies)

    # ------------------------------------------------------------------
    def _weights(self, edge_type: str) -> np.ndarray:
        return self.frozen.csr[edge_type][2]

    def _rows(self, edge_type: str, frontier: np.ndarray,
              rng: np.random.Generator | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (exactly or by sampling) the frontier's rows.

        Returns parallel ``(row, col, weight)`` arrays in global ids.
        """
        indptr, indices, weights, keys = self.frozen.csr[edge_type]
        lo = indptr[frontier]
        hi = indptr[frontier + 1]
        if self.exact:
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, np.empty(0, dtype=weights.dtype)
            bases = np.cumsum(counts) - counts
            offsets = np.arange(total, dtype=np.int64) \
                - np.repeat(bases, counts)
            flat = np.repeat(lo, counts) + offsets
            return (np.repeat(frontier, counts), indices[flat],
                    weights[flat])
        active = hi > lo
        owners = frontier[active]
        if owners.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=weights.dtype)
        k = self.fanout
        draws = rng.random((owners.shape[0], k))
        positions = np.searchsorted(keys,
                                    (owners[:, None] + draws).reshape(-1),
                                    side="right")
        # Clamp to each owner's segment tail: a draw within one ulp of
        # 1.0 may round past the final key (the walk kernel's clamp).
        positions = np.minimum(positions, np.repeat(hi[active], k) - 1)
        vals = np.full(owners.shape[0] * k, 1.0 / k, dtype=weights.dtype)
        return np.repeat(owners, k), indices[positions], vals
