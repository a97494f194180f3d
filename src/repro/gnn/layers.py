"""Homogeneous GNN layers: GraphSAGE (mean aggregator) and GCN.

GRIMP "employ[s] GraphSAGE for all submodules" but is "agnostic to the
specific GNN model used" (§3.5); both layers implement a common
interface — ``forward(adjacency, features) -> features`` — so the
heterogeneous wrapper can mix them.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Linear
from ..tensor import Tensor
from .plan import PlannedOperator
from .sparse import sparse_matmul

__all__ = ["GraphSAGELayer", "GCNLayer"]


class GraphSAGELayer(Module):
    """GraphSAGE with mean aggregation (Hamilton et al. 2017).

    ``h_v = W_self h_v + W_neigh * mean_{u in N(v)} h_u``

    The activation is applied by the caller (the heterogeneous wrapper's
    :math:`\\sigma` in the paper's eq. 1), not here.
    """

    #: Adjacency normalization this layer expects.
    normalization = "row"

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.self_linear = Linear(in_dim, out_dim, rng=rng)
        self.neighbor_linear = Linear(in_dim, out_dim, bias=False, rng=rng)

    def forward(self, adjacency: PlannedOperator, features: Tensor) -> Tensor:
        aggregated = sparse_matmul(adjacency, features)
        return self.self_linear(features) + self.neighbor_linear(aggregated)


class GCNLayer(Module):
    """Graph convolution (Kipf & Welling 2016) with a single weight:
    ``h = \\hat{A} h W`` where ``\\hat{A}`` is symmetrically normalized."""

    #: Adjacency normalization this layer expects.
    normalization = "sym"

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, adjacency: PlannedOperator, features: Tensor) -> Tensor:
        return self.linear(sparse_matmul(adjacency, features))
