"""GNN-MC ablation: GRIMP's graph + GNN, but a single global classifier.

The middle rung of Figure 10: graph representation learning is enabled
(end-to-end, like GRIMP) but the multi-task component is replaced by one
softmax over the union of all attribute domains.  Comparing GRIMP-MT >
GNN-MC > EmbDI-MC isolates the contribution of each component.
"""

from __future__ import annotations

import numpy as np

from ..data import MISSING, NumericNormalizer, Table
from ..embeddings import initialize_node_features
from ..gnn import MessagePassingPlan, column_adjacencies
from ..graph import build_table_graph
from ..imputation import Imputer
from ..nn import Adam, Linear, Module
from ..tensor import Tensor, concat, cross_entropy, no_grad
from .embdi_mc import GlobalDomain

__all__ = ["GnnMcImputer"]


class _GnnClassifier(Module):
    """Shared GNN encoder + single global classification head."""

    def __init__(self, columns, feature_dim, gnn_dim, n_classes, rng):
        super().__init__()
        from ..gnn import HeteroGNN
        self.gnn = HeteroGNN(columns, [feature_dim, gnn_dim, gnn_dim],
                             rng=rng)
        self.head = Linear(gnn_dim, n_classes, rng=rng)
        self.gnn_dim = gnn_dim

    def node_representations(self, adjacencies, features: Tensor) -> Tensor:
        h = self.gnn(adjacencies, features)
        zero = Tensor(np.zeros((1, self.gnn_dim)))
        return concat([h, zero], axis=0)

    def classify(self, context: Tensor) -> Tensor:
        return self.head(context)


class GnnMcImputer(Imputer):
    """Graph + GNN with multi-task learning disabled."""

    NAME = "gnn-mc"

    def __init__(self, feature_dim: int = 16, gnn_dim: int = 24,
                 epochs: int = 40, lr: float = 5e-3,
                 feature_strategy: str = "fasttext", seed: int = 0):
        self.feature_dim = feature_dim
        self.gnn_dim = gnn_dim
        self.epochs = epochs
        self.lr = lr
        self.feature_strategy = feature_strategy
        self.seed = seed

    def _context_indices(self, table: Table, table_graph,
                         cells: list[tuple[int, str | None]]) -> np.ndarray:
        """Index matrix of each cell's row context (target skipped)."""
        null_index = table_graph.graph.n_nodes
        columns = table.column_names
        matrix = np.full((len(cells), len(columns)), null_index,
                         dtype=np.int64)
        for position, (row, skip) in enumerate(cells):
            for column_index, column in enumerate(columns):
                if column == skip:
                    continue
                value = table.get(row, column)
                if value is MISSING:
                    continue
                node = table_graph.cell_node(column, value)
                if node is not None:
                    matrix[position, column_index] = node
        return matrix

    def impute(self, dirty: Table) -> Table:
        imputed = dirty.copy()
        missing = dirty.missing_cells()
        if not missing:
            return imputed
        normalized = NumericNormalizer().fit_transform(dirty)
        table_graph = build_table_graph(normalized)
        domain = GlobalDomain(table_graph)
        if domain.n_classes == 0:
            return imputed
        features = initialize_node_features(
            table_graph, normalized, strategy=self.feature_strategy,
            dim=self.feature_dim, seed=self.seed)
        raw_adjacencies = column_adjacencies(table_graph)
        # At the matrices' own dtype, not the engine default, so the
        # products do not depend on the process-wide default dtype.
        adjacencies = MessagePassingPlan(
            raw_adjacencies,
            dtype=next(iter(raw_adjacencies.values())).dtype)
        feature_tensor = Tensor(features.node_vectors)

        train_cells, targets = [], []
        for row in range(normalized.n_rows):
            for column in normalized.column_names:
                value = normalized.get(row, column)
                if value is MISSING:
                    continue
                node = table_graph.cell_node(column, value)
                if node is None or node not in domain.class_of_node:
                    continue
                train_cells.append((row, column))
                targets.append(domain.class_of_node[node])
        if not train_cells:
            return imputed
        train_indices = self._context_indices(normalized, table_graph,
                                              train_cells)
        y = np.array(targets, dtype=np.int64)

        rng = np.random.default_rng(self.seed)
        model = _GnnClassifier(normalized.column_names, self.feature_dim,
                               self.gnn_dim, domain.n_classes, rng)
        optimizer = Adam(model.parameters(), lr=self.lr)
        for _ in range(self.epochs):
            optimizer.zero_grad()
            h = model.node_representations(adjacencies, feature_tensor)
            context = h[train_indices].mean(axis=1)
            loss = cross_entropy(model.classify(context), y)
            loss.backward()
            optimizer.step()

        with no_grad():
            h = model.node_representations(adjacencies, feature_tensor)
            cells = [(row, None) for row, _ in missing]
            indices = self._context_indices(normalized, table_graph, cells)
            logits = model.classify(h[indices].mean(axis=1)).data
            normalizer = NumericNormalizer().fit(dirty)
            for position, (row, column) in enumerate(missing):
                choice = domain.restricted_argmax(logits[position], column)
                if choice is None:
                    continue
                if dirty.is_numerical(column):
                    choice = normalizer.inverse_value(column, float(choice))
                imputed.set(row, column, choice)
        return imputed
