"""Fanout-based neighborhood sampling over a :class:`FrozenGraph`.

One :meth:`NeighborSampler.sample` call expands a batch's seed nodes
into the compact subgraph that message passing needs, hop by hop.  Per
hop, per edge type, every frontier node's neighborhood is produced by
vectorized numpy calls — the finite-fanout path is ONE batched
``np.searchsorted`` over the frozen search keys for the entire
frontier (the walk-kernel idiom), and the exact path is one
``repeat``/``cumsum`` slice gather of whole CSR rows.  The frontier
itself is a boolean mask over the graph's nodes, so a hop costs no
set operations.

The subgraph is *square*: every node that appears anywhere in the
expansion gets a local id, and each edge type becomes an ``(s, s)``
operator over the local ids.  Rows are materialized once per node
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

:meth:`SampledSubgraph.compile` turns the draws straight into the
:class:`~repro.gnn.MessagePassingPlan` a training step multiplies by:
every edge type's canonical CSR (ascending columns per row) and, when
gradients will flow, its transpose (ascending rows per column), built
for all edge types in one vectorized pass with no scipy conversion.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..gnn import MessagePassingPlan, PlannedOperator
from .frozen import FrozenGraph

__all__ = ["NeighborSampler", "SampledSubgraph"]

_INT32_MAX = np.iinfo(np.int32).max


class SampledSubgraph:
    """A compact relabeled subgraph produced by one sampler call.

    ``nodes`` holds the sorted global node ids; local id ``i`` is
    global id ``nodes[i]``.  The sampled rows are kept as drawn, in
    global ids; :meth:`compile` assembles them into one ``(s, s)``
    operator per edge type over local ids.
    """

    __slots__ = ("nodes", "edge_types", "fanout", "_local", "_draws")

    def __init__(self, nodes: np.ndarray, local: np.ndarray,
                 edge_types: list[str], fanout: int,
                 draws: tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]):
        self.nodes = nodes
        self.edge_types = edge_types
        self.fanout = fanout
        #: ``global id -> local id`` over the whole graph, ``-1`` for
        #: nodes outside the subgraph.
        self._local = local
        #: Parallel ``(edge type position, row, col, weight)`` arrays of
        #: every sampled entry, in global ids.
        self._draws = draws

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
        representations.  Every other entry must be a sampled node.
        """
        flat = np.asarray(indices, dtype=np.int64)
        out = np.full(flat.shape, self.n_local, dtype=np.int64)
        real = flat != null_index
        ids = flat[real]
        if ids.size and (ids.min() < 0 or ids.max() >= self._local.shape[0]
                         or self._local[ids].min() < 0):
            raise ValueError("index matrix references nodes outside the "
                             "sampled subgraph")
        out[real] = self._local[ids]
        return out

    def compile(self, build_backward: bool = True) -> MessagePassingPlan:
        """Assemble every edge type's local operator in one pass.

        Entries are relabeled into local ids and sorted by the key
        ``(edge type * s + row) * s + col``, which lays all edge types'
        canonical CSR arrays out back to back; row pointers come from
        one ``bincount``.  With ``build_backward`` the transposes are
        built the same way from the key ``(edge type * s + col) * s +
        row``; otherwise they stay lazy, which is what evaluation under
        ``no_grad`` wants.  The operators carry the sampled weights'
        dtype, which the frozen graph shares with the features.
        """
        relation, rows, cols, weights = self._draws
        s = self.n_local
        base = relation * s
        rows = self._local[rows]
        cols = self._local[cols]
        forward = self._csr_parts((base + rows) * s + cols, weights)
        if build_backward:
            backward = self._csr_parts((base + cols) * s + rows, weights)
        else:
            backward = [None] * len(self.edge_types)
        return MessagePassingPlan.from_operators(
            {edge_type: PlannedOperator(forward[position],
                                        backward[position])
             for position, edge_type in enumerate(self.edge_types)},
            dtype=weights.dtype)

    def _merge(self, keys: np.ndarray, weights: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Sort entry keys, merging duplicate draws; returns the unique
        keys and their weights.

        Exact rows are copies of canonical full-graph rows, so their
        keys never repeat.  Finite-fanout duplicates merge exactly as
        scipy's sequential ``sum_duplicates`` would: ``c`` draws at
        weight ``1/k`` become the ``c``-th running sum of ``1/k``.
        """
        if self.fanout == 0:
            # Forward keys arrive as one sorted run per hop, which the
            # stable sort (timsort) merges instead of re-sorting.
            order = np.argsort(keys, kind="stable")
            return keys[order], weights[order]
        keys = np.sort(keys, kind="stable")
        first = np.empty(keys.shape[0], dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=keys.shape[0])
        running = np.cumsum(np.full(self.fanout, 1.0 / self.fanout,
                                    dtype=weights.dtype))
        return keys[starts], running[counts - 1]

    def _csr_parts(self, keys: np.ndarray,
                   weights: np.ndarray) -> list[sparse.csr_matrix]:
        """One ``(s, s)`` CSR matrix per edge type from entry keys
        ``(edge type * s + row) * s + col`` in any order."""
        keys, data = self._merge(keys, weights)
        s = self.n_local
        n_relations = len(self.edge_types)
        # scipy's own index-dtype rule; int32 arrays that fit also spare
        # its constructor a scan of their contents.
        index_dtype = np.int32 if max(keys.shape[0], s) <= _INT32_MAX \
            else np.int64
        row_keys = keys // s
        indices = (keys - row_keys * s).astype(index_dtype)
        indptr = np.zeros((n_relations, s + 1), dtype=index_dtype)
        np.cumsum(np.bincount(row_keys, minlength=n_relations * s)
                  .reshape(n_relations, s), axis=1, dtype=index_dtype,
                  out=indptr[:, 1:])
        bounds = np.zeros(n_relations + 1, dtype=np.int64)
        np.cumsum(indptr[:, -1], out=bounds[1:])
        return [sparse.csr_matrix(
                    (data[bounds[position]:bounds[position + 1]],
                     indices[bounds[position]:bounds[position + 1]],
                     indptr[position]), shape=(s, s))
                for position in range(n_relations)]

    def __repr__(self) -> str:
        return (f"SampledSubgraph(nodes={self.n_local}, "
                f"edge_types={len(self.edge_types)})")


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
        outer, edge types in frozen order, frontier nodes ascending —
        so a given generator state always yields the same subgraph.
        """
        if not self.exact and rng is None:
            raise ValueError("finite-fanout sampling needs an rng")
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size == 0:
            raise ValueError("cannot sample a subgraph from zero seeds")
        n_nodes = self.frozen.n_nodes
        if seeds.min() < 0 or seeds.max() >= n_nodes:
            raise ValueError("seed node ids out of range")
        edge_types = self.frozen.edge_types
        # An empty first part types the concatenations below even when
        # nothing is drawn.
        empty = np.empty(0, dtype=np.int64)
        parts = [(0, empty, empty, self.frozen.csr[edge_types[0]][2][:0])]
        known = np.zeros(n_nodes, dtype=bool)
        known[seeds] = True
        frontier = np.flatnonzero(known)
        for _hop in range(n_hops):
            if frontier.size == 0:
                break
            reached = np.zeros(n_nodes, dtype=bool)
            for position, edge_type in enumerate(edge_types):
                rows, cols, vals = self._rows(edge_type, frontier, rng)
                if rows.size:
                    parts.append((position, rows, cols, vals))
                    reached[cols] = True
            reached &= ~known
            frontier = np.flatnonzero(reached)
            known |= reached
        nodes = np.flatnonzero(known)
        local = np.full(n_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
        positions, rows, cols, vals = zip(*parts)
        draws = (np.repeat(np.array(positions, dtype=np.int64),
                           [block.shape[0] for block in rows]),
                 np.concatenate(rows), np.concatenate(cols),
                 np.concatenate(vals))
        return SampledSubgraph(nodes, local, edge_types, self.fanout, draws)

    # ------------------------------------------------------------------
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
