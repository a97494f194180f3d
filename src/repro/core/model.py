"""The GRIMP multi-task model: shared layer + per-attribute task heads.

Architecture (Figure 2):

1. **Shared section** — a heterogeneous GNN over the table graph
   (per-column GraphSAGE sub-modules, eq. 1) followed by a *merging
   step* of two linear layers, "a further pooling step [so as] to not
   use GNN embeddings directly" (§3.5).  Parameters here are shared by
   all tasks (hard parameter sharing).
2. **Task-specific section** — one head per attribute (classifier for
   categorical, single-output regressor for numerical), implemented as
   linear or attention tasks (:mod:`repro.core.tasks`).

The model also owns the *training-vector* assembly: a sample's vector is
the tuple's per-column node representations with zeros at the masked
target and at missing cells (Figure 4's ``(0)`` entries).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..data import MISSING, Table
from ..graph import TableGraph
from ..gnn import HeteroGNN, PlannedOperator, sparse_matmul
from ..nn import Linear, Module, Parameter
from ..tensor import Tensor, concat
from .config import GrimpConfig
from .corpus import TrainingSample
from .tasks import AttentionTask, LinearTask

__all__ = ["SharedLayer", "GrimpModel", "fd_related_columns",
           "build_node_index_matrix", "build_sample_indices",
           "masked_sample_rows", "build_row_indices"]


class SharedLayer(Module):
    """Heterogeneous GNN plus the two-linear-layer merging step.

    The merging step "recombines the vectors produced by the GNN"
    (§3.5); it consumes the GNN output concatenated with the node's own
    (refined) input features — a residual path that keeps node identity
    sharp while the GNN contributes neighbourhood context.
    """

    def __init__(self, columns: list[str], feature_dim: int, gnn_dim: int,
                 merge_dim: int, rng: np.random.Generator,
                 layer_type: str = "sage"):
        super().__init__()
        self.gnn = HeteroGNN(columns, [feature_dim, gnn_dim, gnn_dim],
                             rng=rng, layer_types=layer_type)
        self.merge1 = Linear(gnn_dim + feature_dim, merge_dim, rng=rng)
        self.merge2 = Linear(merge_dim, merge_dim, rng=rng)
        self.output_dim = merge_dim

    def forward(self, adjacencies: Mapping[str, PlannedOperator],
                features: Tensor) -> Tensor:
        hidden = self.gnn(adjacencies, features)
        combined = concat([hidden, features], axis=1)
        return self.merge2(self.merge1(combined).relu())


class GrimpModel(Module):
    """Shared layer + one task head per attribute.

    Parameters
    ----------
    columns / kinds:
        The table schema: column order and each column's kind
        (``"categorical"`` or ``"numerical"``).
    cardinalities:
        Domain size per categorical column (classifier output widths).
    attribute_vectors:
        ``(C, feature_dim)`` pre-trained attribute vectors seeding each
        attention task's ``Q`` matrix.
    fd_related:
        Per-column list of FD-related column indices, consumed by the
        ``weak_diagonal_fd`` strategy.
    """

    def __init__(self, columns: list[str], kinds: dict[str, str],
                 cardinalities: dict[str, int],
                 attribute_vectors: np.ndarray, config: GrimpConfig,
                 rng: np.random.Generator,
                 fd_related: dict[str, list[int]] | None = None,
                 gnn_edge_types: list[str] | None = None):
        super().__init__()
        self.columns = list(columns)
        self.kinds = dict(kinds)
        self.config = config
        # The GNN gets one sub-module per edge type — the table's
        # attributes plus any augmentation edge types (§3.2).
        self.gnn_edge_types = list(gnn_edge_types) if gnn_edge_types \
            else list(self.columns)
        self.shared = SharedLayer(self.gnn_edge_types, config.feature_dim,
                                  config.gnn_dim, config.merge_dim, rng,
                                  layer_type=config.gnn_layer_type)
        fd_related = fd_related or {}
        self.tasks: dict[str, Module] = {}
        for index, column in enumerate(self.columns):
            output_dim = cardinalities[column] \
                if self.kinds[column] == "categorical" else 1
            output_dim = max(output_dim, 1)
            if config.task_kind == "linear":
                self.tasks[column] = LinearTask(
                    len(self.columns), config.merge_dim, output_dim, rng=rng)
            else:
                self.tasks[column] = AttentionTask(
                    len(self.columns), config.merge_dim, output_dim,
                    target_index=index, attribute_vectors=attribute_vectors,
                    k_strategy=config.k_strategy,
                    fd_columns=fd_related.get(column), rng=rng)

    def attach_features(self, features: np.ndarray, dtype) -> Tensor:
        """Attach the node features, cast to ``dtype``, and return the
        feature tensor.  With ``train_features`` they become the
        ``node_features`` parameter *before* the cast: every model
        builder shares this order, which fixes the optimizer's."""
        if self.config.train_features:
            self.node_features = Parameter(features)
            feature_tensor: Tensor = self.node_features
        else:
            feature_tensor = Tensor(features, dtype=dtype)
        self.astype(dtype)
        return feature_tensor

    # ------------------------------------------------------------------
    def node_representations(self,
                             adjacencies: Mapping[str, PlannedOperator]
                             | None,
                             features: Tensor) -> Tensor:
        """Shared-section output ``h`` for every graph node, with a
        trailing all-zero row for null lookups (index ``n_nodes``);
        ``adjacencies=None`` (no nodes) gives the zero row alone."""
        if adjacencies is None:
            return Tensor(np.zeros((1, self.shared.output_dim),
                                   dtype=features.data.dtype))
        h = self.shared(adjacencies, features)
        zero_row = Tensor(np.zeros((1, self.shared.output_dim),
                                   dtype=h.data.dtype))
        return concat([h, zero_row], axis=0)

    def training_vectors(self, h_extended: Tensor,
                         indices: np.ndarray | None = None,
                         gather: PlannedOperator | None = None) -> Tensor:
        """Gather ``(n, C, D)`` training vectors from node representations.

        ``indices`` is an ``(n, C)`` int matrix of node ids where masked
        or missing cells point at the trailing zero row.  When a
        precompiled ``gather`` operator is supplied (full-batch training
        with a :class:`~repro.gnn.MessagePassingPlan`), the gather runs
        as one planned sparse product whose backward is a cached
        scatter-add — no per-epoch ``np.add.at`` — and ``indices`` is
        not needed.
        """
        n_columns = len(self.columns)
        if gather is not None:
            flat = sparse_matmul(gather, h_extended)
            n = gather.shape[0] // n_columns
            return flat.reshape(n, n_columns, h_extended.shape[1])
        if indices is None:
            raise ValueError("training_vectors needs indices or a gather "
                             "operator")
        return h_extended[indices]

    def task_output(self, column: str, vectors: Tensor) -> Tensor:
        """Run one attribute's head on its training vectors."""
        return self.tasks[column](vectors)


def fd_related_columns(fds, columns: list[str]) -> dict[str, list[int]]:
    """Column indices FD-related to each column (for the K matrix)."""
    position = {column: index for index, column in enumerate(columns)}
    related: dict[str, set[int]] = {column: set() for column in columns}
    for fd in fds:
        names = [name for name in fd.attributes if name in position]
        for name in names:
            related[name].update(position[other] for other in names
                                 if other != name)
    return {column: sorted(indices) for column, indices in related.items()}


def build_node_index_matrix(table: Table,
                            table_graph: TableGraph) -> np.ndarray:
    """Per-row node-index matrix ``(n_rows, C)`` for the whole table.

    Entry ``[r, c]`` is the node id of row ``r``'s value in column ``c``;
    missing cells (and values without a node) map to ``n_nodes`` — the
    trailing zero row appended by
    :meth:`GrimpModel.node_representations`.  Sample- and row-index
    matrices are sliced out of this with fancy indexing, so each cell's
    node lookup happens once per fit instead of once per sample.
    """
    null_index = table_graph.graph.n_nodes
    columns = table.column_names
    matrix = np.full((table.n_rows, len(columns)), null_index,
                     dtype=np.int64)
    for column_index, column in enumerate(columns):
        values = table.column(column)
        target = matrix[:, column_index]
        node_of: dict = {}
        for row, value in enumerate(values):
            if value is MISSING:
                continue
            node = node_of.get(value)
            if node is None:
                found = table_graph.cell_node(column, value)
                node = null_index if found is None else found
                node_of[value] = node
            target[row] = node
    return matrix


def masked_sample_rows(node_matrix: np.ndarray, rows, position,
                       null_index: int) -> np.ndarray:
    """Node-index matrix for training samples: ``(n_samples, C)``.

    Sample ``s`` is table row ``rows[s]`` of ``node_matrix``
    (:func:`build_node_index_matrix`) with its target cell, in column
    ``position`` (one for every sample, or one per sample), set to
    ``null_index``.
    """
    matrix = node_matrix[rows]
    matrix[np.arange(matrix.shape[0]), position] = null_index
    return matrix


def build_sample_indices(table: Table, table_graph: TableGraph,
                         samples: list[TrainingSample],
                         node_matrix: np.ndarray | None = None) -> np.ndarray:
    """Node-index matrix for training samples: ``(n_samples, C)``.

    Entry ``[s, c]`` is the node id of sample ``s``'s value in column
    ``c``; the sample's target column and missing cells map to
    ``n_nodes`` (the zero row appended by
    :meth:`GrimpModel.node_representations`).  Pass a precomputed
    ``node_matrix`` (:func:`build_node_index_matrix`) to share the
    per-cell lookups across call sites.  The trainer, which keeps
    samples as per-task arrays, calls :func:`masked_sample_rows`.
    """
    if node_matrix is None:
        node_matrix = build_node_index_matrix(table, table_graph)
    n = len(samples)
    position = {column: index
                for index, column in enumerate(table.column_names)}
    return masked_sample_rows(
        node_matrix,
        np.fromiter((sample.row for sample in samples), dtype=np.int64,
                    count=n),
        np.fromiter((position[sample.target_column] for sample in samples),
                    dtype=np.int64, count=n),
        table_graph.graph.n_nodes)


def build_row_indices(table: Table, table_graph: TableGraph,
                      rows: list[int],
                      mask_columns: list[str] | None = None,
                      node_matrix: np.ndarray | None = None) -> np.ndarray:
    """Node-index matrix for whole rows (imputation-time vectors).

    Missing cells (and optionally ``mask_columns``) map to the zero row.
    A row's vector is identical regardless of which of its missing
    attributes is being imputed — the Figure 5 situation that the
    independent per-attribute tasks are designed to resolve.
    """
    if node_matrix is None:
        node_matrix = build_node_index_matrix(table, table_graph)
    null_index = table_graph.graph.n_nodes
    matrix = node_matrix[np.asarray(rows, dtype=np.int64)]
    if mask_columns:
        position = {column: index
                    for index, column in enumerate(table.column_names)}
        for column in mask_columns:
            matrix[:, position[column]] = null_index
    return matrix
