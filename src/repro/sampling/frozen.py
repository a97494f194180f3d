"""Immutable CSR snapshot of the quasi-bipartite heterograph.

The sampler needs three things per edge type that the mutable
:class:`~repro.graph.HeteroGraph` cannot provide cheaply: flat CSR
arrays to slice whole neighborhoods out of, the *row-normalized*
message-passing weights (so an exact subgraph row reproduces the
full-graph aggregation bit-for-bit instead of renormalizing over the
sample), and globally sorted per-edge *search keys* for batched
weighted sampling.

The key layout is the batched-searchsorted idiom from
:mod:`repro.embeddings.walk_kernel`: for an edge at CSR position ``j``
owned by node ``u``, ``keys[j] = u + c`` where ``c`` is the node's
cumulative normalized weight up to and including that edge
(``0 < c <= 1``).  Keys are globally sorted, so sampling one weighted
neighbor for every query node ``u_i`` with draw ``r_i in [0, 1)`` is
ONE ``np.searchsorted(keys, u + r)`` over the whole frontier.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from ..tensor import get_default_dtype

__all__ = ["FrozenGraph"]


class FrozenGraph:
    """Per-edge-type CSR arrays of the normalized table-graph adjacency.

    Build with :meth:`freeze` from the ``edge type -> csr_matrix``
    mapping produced by :func:`repro.gnn.column_adjacencies` (row
    normalization, self-loops included — the exact operators full-graph
    training multiplies by).  The snapshot is read-only: sampling
    slices it and never writes back.
    """

    def __init__(self, n_nodes: int, edge_types: list[str],
                 csr: dict[str, tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]]):
        self.n_nodes = int(n_nodes)
        self.edge_types = list(edge_types)
        #: ``edge type -> (indptr, indices, weights, keys)``.
        self.csr = csr

    @classmethod
    def freeze(cls, adjacencies: Mapping[str, sparse.spmatrix],
               dtype=None) -> "FrozenGraph":
        """Snapshot normalized adjacency matrices into flat CSR arrays.

        ``weights`` are stored in ``dtype`` (default: the engine
        default dtype) so sampled-subgraph operators compile without a
        cast; ``keys`` stay float64 regardless — ``node_id +
        fraction`` loses the fraction entirely in float32 once node
        ids pass 2^23, which would corrupt the sampling distribution
        on exactly the large graphs this subsystem exists for.
        """
        resolved = get_default_dtype() if dtype is None else np.dtype(dtype)
        edge_types = list(adjacencies)
        if not edge_types:
            raise ValueError("cannot freeze an empty adjacency mapping")
        n_nodes = None
        csr: dict[str, tuple[np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]] = {}
        for edge_type in edge_types:
            matrix = adjacencies[edge_type]
            forward = matrix if sparse.issparse(matrix) \
                and matrix.format == "csr" else matrix.tocsr()
            if n_nodes is None:
                n_nodes = forward.shape[0]
            elif forward.shape[0] != n_nodes:
                raise ValueError("adjacency shapes disagree across edge "
                                 "types")
            # Index arrays keep the matrix's own (scipy-chosen) dtype:
            # int32 unless the graph needs int64.
            indptr = np.ascontiguousarray(forward.indptr)
            indices = np.ascontiguousarray(forward.indices)
            weights = np.ascontiguousarray(forward.data, dtype=resolved)
            csr[edge_type] = (indptr, indices, weights,
                              cls._search_keys(indptr, weights))
        return cls(n_nodes, edge_types, csr)

    @staticmethod
    def _search_keys(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-edge keys ``owner + cumulative_normalized_weight``.

        Same construction as ``FrozenWalkGraph._search_keys``, but in
        float64 unconditionally (see :meth:`freeze`).
        """
        n_edges = weights.shape[0]
        wide = weights.astype(np.float64)  # repro: noqa[RPR001] -- search keys need float64 so node_id + fraction keeps sub-1 resolution on large graphs
        if n_edges == 0:
            return wide
        degrees = np.diff(indptr)
        owners = np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64),
                           degrees)
        running = np.cumsum(wide)
        occupied = degrees > 0
        starts = indptr[:-1][occupied]
        base_per_segment = running[starts] - wide[starts]
        base = np.repeat(base_per_segment, degrees[occupied])
        segment_cum = running - base
        ends = indptr[1:][occupied] - 1
        totals = np.repeat(segment_cum[ends], degrees[occupied])
        return owners + segment_cum / totals

    def __repr__(self) -> str:
        edges = sum(self.csr[et][1].shape[0] for et in self.edge_types)
        return (f"FrozenGraph(nodes={self.n_nodes}, "
                f"edge_types={len(self.edge_types)}, entries={edges})")
