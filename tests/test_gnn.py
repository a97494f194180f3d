"""Tests for GNN layers, the heterogeneous wrapper, and sparse autograd."""

import numpy as np
import pytest
from scipy import sparse

from repro.data import Table
from repro.graph import build_table_graph
from repro.gnn import (
    MessagePassingPlan,
    PlannedOperator,
    sparse_matmul,
    GraphSAGELayer,
    GCNLayer,
    HeteroGNNLayer,
    HeteroGNN,
    column_adjacencies,
)
from repro.nn import Adam
from repro.tensor import Tensor, cross_entropy, gradcheck

RNG = np.random.default_rng(21)


def random_adjacency(n, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(dense, 1.0)
    rows = dense / dense.sum(axis=1, keepdims=True)
    return PlannedOperator.compile(sparse.csr_matrix(rows),
                                   dtype=np.float64)


class TestSparseMatmul:
    def test_matches_dense(self):
        adjacency = random_adjacency(6)
        x = Tensor(RNG.standard_normal((6, 4)))
        out = sparse_matmul(adjacency, x)
        assert np.allclose(out.data, adjacency.forward.toarray() @ x.data)

    def test_gradcheck(self):
        adjacency = random_adjacency(5)
        x = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        assert gradcheck(lambda t: (sparse_matmul(adjacency, t) ** 2).sum(),
                         [x])

    def test_shape_mismatch_raises(self):
        adjacency = random_adjacency(4)
        with pytest.raises(ValueError):
            sparse_matmul(adjacency, Tensor(np.zeros((5, 2))))


class TestHomogeneousLayers:
    def test_sage_output_shape(self):
        layer = GraphSAGELayer(4, 8, rng=RNG)
        out = layer(random_adjacency(6), Tensor(RNG.standard_normal((6, 4))))
        assert out.shape == (6, 8)

    def test_sage_uses_neighbors(self):
        # With all-zero self features except node 0, neighbors of node 0
        # receive non-zero output through the aggregation path.
        layer = GraphSAGELayer(2, 2, rng=RNG)
        features = np.zeros((3, 2))
        features[0] = [1.0, 1.0]
        adjacency = PlannedOperator.compile(sparse.csr_matrix(np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ])), dtype=np.float64)
        out = layer(adjacency, Tensor(features))
        assert np.abs(out.data[1]).sum() > 0
        # Node 2 sees only itself (zero features): only bias remains.
        assert np.allclose(out.data[2], layer.self_linear.bias.data)

    def test_gcn_output_shape(self):
        layer = GCNLayer(4, 5, rng=RNG)
        out = layer(random_adjacency(7), Tensor(RNG.standard_normal((7, 4))))
        assert out.shape == (7, 5)

    def test_layers_declare_normalization(self):
        assert GraphSAGELayer.normalization == "row"
        assert GCNLayer.normalization == "sym"

    def test_sage_gradcheck_through_layer(self):
        layer = GraphSAGELayer(3, 2, rng=np.random.default_rng(0))
        adjacency = random_adjacency(4)
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)

        def forward(t):
            return (layer(adjacency, t) ** 2).sum()

        assert gradcheck(forward, [x])


@pytest.fixture
def tiny_graph():
    table = Table({
        "color": ["red", "red", "blue", "blue"],
        "size": ["s", "m", "s", "m"],
    })
    return build_table_graph(table)


class TestHeteroGNN:
    def test_layer_has_submodule_per_column(self, tiny_graph):
        layer = HeteroGNNLayer(tiny_graph.columns, 4, 4, rng=RNG)
        assert set(layer.submodules) == {"color", "size"}

    def test_forward_shape(self, tiny_graph):
        adjacencies = MessagePassingPlan(column_adjacencies(tiny_graph),
                                         dtype=np.float64)
        n = tiny_graph.graph.n_nodes
        model = HeteroGNN(tiny_graph.columns, [4, 8, 6], rng=RNG)
        out = model(adjacencies, Tensor(RNG.standard_normal((n, 4))))
        assert out.shape == (n, 6)
        assert model.n_layers == 2

    def test_mixed_layer_types(self, tiny_graph):
        layer = HeteroGNNLayer(tiny_graph.columns, 4, 4, rng=RNG,
                               layer_types={"color": "sage", "size": "gcn"})
        assert isinstance(layer.submodules["color"], GraphSAGELayer)
        assert isinstance(layer.submodules["size"], GCNLayer)

    def test_sum_vs_mean_aggregation(self, tiny_graph):
        adjacencies = MessagePassingPlan(column_adjacencies(tiny_graph),
                                         dtype=np.float64)
        n = tiny_graph.graph.n_nodes
        features = Tensor(RNG.standard_normal((n, 4)))
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        mean_layer = HeteroGNNLayer(tiny_graph.columns, 4, 4, rng=rng_a,
                                    aggregate="mean")
        sum_layer = HeteroGNNLayer(tiny_graph.columns, 4, 4, rng=rng_b,
                                   aggregate="sum")
        assert np.allclose(sum_layer(adjacencies, features).data,
                           2.0 * mean_layer(adjacencies, features).data)

    def test_unknown_aggregation_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            HeteroGNNLayer(tiny_graph.columns, 4, 4, aggregate="max")

    def test_unknown_layer_type_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            HeteroGNNLayer(tiny_graph.columns, 4, 4, layer_types="gat")

    def test_empty_columns_raise(self):
        with pytest.raises(ValueError):
            HeteroGNNLayer([], 4, 4)

    def test_submodules_not_shared(self, tiny_graph):
        model = HeteroGNN(tiny_graph.columns, [4, 4], rng=RNG)
        layer = model.layers[0]
        weights = [layer.submodules[column].self_linear.weight
                   for column in tiny_graph.columns]
        assert weights[0] is not weights[1]
        assert not np.allclose(weights[0].data, weights[1].data)

    def test_trains_to_separate_classes(self):
        # Nodes of two "communities" linked through shared cell values
        # must become linearly separable after training.
        rng = np.random.default_rng(5)
        labels = [f"g{index % 2}" for index in range(20)]
        table = Table({
            "group": labels,
            "noise": [f"n{rng.integers(0, 4)}" for _ in range(20)],
        })
        table_graph = build_table_graph(table)
        adjacencies = MessagePassingPlan(column_adjacencies(table_graph),
                                         dtype=np.float64)
        n = table_graph.graph.n_nodes
        features = Tensor(rng.standard_normal((n, 8)) * 0.1,
                          requires_grad=True)
        model = HeteroGNN(table_graph.columns, [8, 8, 2], rng=rng)
        from repro.nn.module import Parameter
        feature_parameter = Parameter(features.data)
        optimizer = Adam(model.parameters() + [feature_parameter], lr=0.05)
        rid_nodes = np.array(table_graph.rid_nodes)
        targets = np.array([0 if label == "g0" else 1 for label in labels])
        for _ in range(60):
            optimizer.zero_grad()
            out = model(adjacencies, feature_parameter)
            loss = cross_entropy(out[rid_nodes], targets)
            loss.backward()
            optimizer.step()
        predictions = model(adjacencies, feature_parameter).data[
            rid_nodes].argmax(axis=1)
        assert (predictions == targets).mean() >= 0.95

    def test_required_normalizations(self, tiny_graph):
        model = HeteroGNN(tiny_graph.columns, [4, 4], rng=RNG,
                          layer_types="sage")
        assert model.required_normalizations() == {"row"}
