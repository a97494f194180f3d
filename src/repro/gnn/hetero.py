"""Heterogeneous GNN: one sub-module per table attribute (§3.5, eq. 1).

Each layer :math:`L_i` holds ``N`` sub-modules ``l_{ij}`` (one per
column); sub-module ``l_{ij}`` convolves exclusively over edges of its
column's type.  The per-submodule outputs are combined by an
aggregation function :math:`\\gamma` (mean by default) and passed
through a nonlinearity :math:`\\sigma`.  Trainable weights are *not*
shared among sub-modules, "which allows some independence between each
column while modeling each node's feature representation".
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from ..graph import TableGraph
from ..nn import Module
from ..telemetry import detail_span
from ..tensor import Tensor, concat, stack
from .layers import GCNLayer, GraphSAGELayer
from .plan import PlannedOperator
from .sparse import sparse_matmul

__all__ = ["HeteroGNNLayer", "HeteroGNN", "column_adjacencies", "LAYER_TYPES"]

#: Registry of homogeneous layer types usable as sub-modules.
LAYER_TYPES = {"sage": GraphSAGELayer, "gcn": GCNLayer}


def column_adjacencies(table_graph: TableGraph, normalization: str = "row",
                       self_loops: bool = True,
                       edge_types: list[str] | None = None
                       ) -> dict[str, sparse.csr_matrix]:
    """Materialize one normalized adjacency matrix per edge type.

    Defaults to the table's column edge types; pass ``edge_types`` to
    include augmentation edges (FD or semantic, §3.2).
    """
    edge_types = edge_types if edge_types is not None \
        else list(table_graph.columns)
    return {edge_type: table_graph.graph.adjacency(edge_type,
                                                   normalize=normalization,
                                                   self_loops=self_loops)
            for edge_type in edge_types}


class HeteroGNNLayer(Module):
    """One heterogeneous layer: per-column sub-modules + aggregation.

    Parameters
    ----------
    columns:
        Edge types (table attributes); one sub-module each.
    layer_types:
        Either a single type name (``"sage"``/``"gcn"``) for all
        sub-modules or a per-column mapping, reflecting the paper's note
        that "each submodule can use a different GNN architecture".
        When mixing types, pass each sub-module the adjacency matching
        its :meth:`normalization` (compile one
        :class:`~repro.gnn.MessagePassingPlan` per normalization from
        :func:`column_adjacencies`); a single shared plan is only
        correct when all sub-modules agree.
    aggregate:
        The :math:`\\gamma` combinator: ``"mean"`` or ``"sum"``.
    """

    def __init__(self, columns: list[str], in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None,
                 layer_types: str | dict[str, str] = "sage",
                 aggregate: str = "mean"):
        super().__init__()
        if not columns:
            raise ValueError("need at least one column")
        if aggregate not in ("mean", "sum"):
            raise ValueError(f"unknown aggregation {aggregate!r}")
        self.columns = list(columns)
        self.aggregate = aggregate
        self.submodules: dict[str, Module] = {}
        for column in self.columns:
            type_name = layer_types if isinstance(layer_types, str) \
                else layer_types[column]
            if type_name not in LAYER_TYPES:
                raise ValueError(f"unknown layer type {type_name!r}")
            self.submodules[column] = LAYER_TYPES[type_name](
                in_dim, out_dim, rng=rng)

    def normalization(self, column: str) -> str:
        """Adjacency normalization expected by a column's sub-module."""
        return self.submodules[column].normalization

    def forward(self, adjacencies: Mapping[str, PlannedOperator],
                features: Tensor) -> Tensor:
        submodules = [self.submodules[column] for column in self.columns]
        # Homogeneous sub-module stacks run through fused weight
        # matrices: every sub-module consumes the same ``features``, so
        # C small GEMMs collapse into one wide (self path) or one
        # batched (neighbor path) product.  The math is identical to
        # the per-column loop below.
        if all(type(sub) is GraphSAGELayer for sub in submodules):
            stacked = self._forward_sage(adjacencies, features, submodules)
        elif all(type(sub) is GCNLayer for sub in submodules):
            stacked = self._forward_gcn(adjacencies, features, submodules)
        else:
            outputs = [submodule(adjacencies[column], features)
                       for column, submodule in zip(self.columns, submodules)]
            stacked = stack(outputs, axis=0)
        if self.aggregate == "mean":
            return stacked.mean(axis=0)
        return stacked.sum(axis=0)

    def _forward_sage(self, adjacencies, features: Tensor,
                      submodules: list[GraphSAGELayer]) -> Tensor:
        """All-GraphSAGE fast path returning the ``(C, n, out)`` stack."""
        n_cols = len(submodules)
        out_dim = submodules[0].out_dim
        weight_self = concat([sub.self_linear.weight for sub in submodules],
                             axis=1)                       # (in, C*out)
        bias_self = concat([sub.self_linear.bias for sub in submodules],
                           axis=0)                         # (C*out,)
        self_out = (features @ weight_self + bias_self) \
            .reshape(features.shape[0], n_cols, out_dim) \
            .transpose(1, 0, 2)                            # (C, n, out)
        aggregated = stack([sparse_matmul(adjacencies[column], features)
                            for column in self.columns], axis=0)
        weight_neigh = stack([sub.neighbor_linear.weight
                              for sub in submodules], axis=0)  # (C, in, out)
        return self_out + aggregated @ weight_neigh

    def _forward_gcn(self, adjacencies, features: Tensor,
                     submodules: list[GCNLayer]) -> Tensor:
        """All-GCN fast path returning the ``(C, n, out)`` stack."""
        n_cols = len(submodules)
        out_dim = submodules[0].out_dim
        aggregated = stack([sparse_matmul(adjacencies[column], features)
                            for column in self.columns], axis=0)
        weight = stack([sub.linear.weight for sub in submodules], axis=0)
        bias = concat([sub.linear.bias for sub in submodules], axis=0) \
            .reshape(n_cols, 1, out_dim)
        return aggregated @ weight + bias


class HeteroGNN(Module):
    """Stack of heterogeneous layers (two by default, as in the paper).

    ``forward`` returns the refined node representations; the caller
    (GRIMP's shared layer) applies the merging step on top.
    """

    def __init__(self, columns: list[str], dims: list[int],
                 rng: np.random.Generator | None = None,
                 layer_types: str | dict[str, str] = "sage",
                 aggregate: str = "mean", activation: str = "relu"):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.columns = list(columns)
        self.activation = activation
        self.layers = [
            HeteroGNNLayer(columns, in_dim, out_dim, rng=rng,
                           layer_types=layer_types, aggregate=aggregate)
            for in_dim, out_dim in zip(dims[:-1], dims[1:])
        ]

    @property
    def n_layers(self) -> int:
        """Number of heterogeneous layers (paper default: 2)."""
        return len(self.layers)

    def required_normalizations(self) -> set[str]:
        """Adjacency normalizations needed by the stacked sub-modules."""
        return {layer.normalization(column)
                for layer in self.layers for column in layer.columns}

    def forward(self, adjacencies: Mapping[str, PlannedOperator],
                features: Tensor) -> Tensor:
        hidden = features
        for index, layer in enumerate(self.layers):
            # Detail span (only when telemetry is enabled): one node per
            # stacked layer, parent of the spmm dispatch spans inside.
            with detail_span(f"layer[{index}]",
                             columns=len(layer.columns)):
                hidden = layer(adjacencies, hidden)
                hidden = hidden.relu() if self.activation == "relu" \
                    else hidden.tanh()
        return hidden
