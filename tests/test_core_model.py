"""Tests for the GRIMP model assembly and index-matrix builders."""

import numpy as np
import pytest

from repro.data import MISSING, Table
from repro.graph import build_table_graph
from repro.gnn import MessagePassingPlan, column_adjacencies
from repro.core import (
    GrimpConfig,
    GrimpModel,
    SharedLayer,
    build_sample_indices,
    build_row_indices,
    build_training_corpus,
)
from repro.core.corpus import TrainingSample
from repro.tensor import Tensor

RNG = np.random.default_rng(9)


@pytest.fixture
def table():
    return Table({
        "city": ["paris", "rome", MISSING, "paris"],
        "country": ["france", "italy", "france", MISSING],
        "population": [2.1, 2.8, MISSING, 2.2],
    })


@pytest.fixture
def table_graph(table):
    return build_table_graph(table)


def make_model(table, config=None):
    config = config or GrimpConfig(feature_dim=8, gnn_dim=8, merge_dim=8,
                                   epochs=1)
    cardinalities = {"city": 2, "country": 2}
    attributes = np.random.default_rng(0).standard_normal(
        (table.n_columns, config.feature_dim))
    return GrimpModel(table.column_names, table.kinds, cardinalities,
                      attributes, config, np.random.default_rng(0))


class TestSharedLayer:
    def test_output_shape(self, table, table_graph):
        layer = SharedLayer(table.column_names, feature_dim=8, gnn_dim=16,
                            merge_dim=12, rng=RNG)
        adjacencies = MessagePassingPlan(column_adjacencies(table_graph),
                                         dtype=np.float64)
        n = table_graph.graph.n_nodes
        out = layer(adjacencies, Tensor(RNG.standard_normal((n, 8))))
        assert out.shape == (n, 12)
        assert layer.output_dim == 12


class TestGrimpModel:
    def test_one_task_per_column(self, table):
        model = make_model(table)
        assert set(model.tasks) == set(table.column_names)

    def test_numerical_task_single_output(self, table, table_graph):
        model = make_model(table)
        adjacencies = MessagePassingPlan(column_adjacencies(table_graph),
                                         dtype=np.float64)
        features = Tensor(RNG.standard_normal(
            (table_graph.graph.n_nodes, 8)))
        h = model.node_representations(adjacencies, features)
        vectors = model.training_vectors(
            h, np.zeros((3, table.n_columns), dtype=np.int64))
        assert model.task_output("population", vectors).shape == (3, 1)
        assert model.task_output("city", vectors).shape == (3, 2)

    def test_node_representations_appends_zero_row(self, table, table_graph):
        model = make_model(table)
        adjacencies = MessagePassingPlan(column_adjacencies(table_graph),
                                         dtype=np.float64)
        n = table_graph.graph.n_nodes
        h = model.node_representations(
            adjacencies, Tensor(RNG.standard_normal((n, 8))))
        assert h.shape == (n + 1, 8)
        assert np.allclose(h.data[-1], 0.0)

    def test_linear_task_kind(self, table):
        config = GrimpConfig(feature_dim=8, gnn_dim=8, merge_dim=8,
                             task_kind="linear", epochs=1)
        model = make_model(table, config)
        from repro.core import LinearTask
        assert all(isinstance(task, LinearTask)
                   for task in model.tasks.values())


class TestSampleIndices:
    def test_target_column_is_null(self, table, table_graph):
        samples = [TrainingSample(row=0, target_column="city",
                                  target_value="paris")]
        matrix = build_sample_indices(table, table_graph, samples)
        null_index = table_graph.graph.n_nodes
        assert matrix.shape == (1, 3)
        assert matrix[0, 0] == null_index  # city masked
        assert matrix[0, 1] == table_graph.cell_node("country", "france")

    def test_missing_context_is_null(self, table, table_graph):
        samples = [TrainingSample(row=2, target_column="country",
                                  target_value="france")]
        matrix = build_sample_indices(table, table_graph, samples)
        null_index = table_graph.graph.n_nodes
        # Row 2 has missing city and population.
        assert matrix[0, 0] == null_index
        assert matrix[0, 2] == null_index

    def test_gathered_vectors_zero_for_null(self, table, table_graph):
        model = make_model(table)
        adjacencies = MessagePassingPlan(column_adjacencies(table_graph),
                                         dtype=np.float64)
        n = table_graph.graph.n_nodes
        h = model.node_representations(
            adjacencies, Tensor(RNG.standard_normal((n, 8))))
        samples = [TrainingSample(row=0, target_column="city",
                                  target_value="paris")]
        matrix = build_sample_indices(table, table_graph, samples)
        vectors = model.training_vectors(h, matrix)
        assert vectors.shape == (1, 3, 8)
        assert np.allclose(vectors.data[0, 0], 0.0)
        # Context cells gather the corresponding node representation.
        france = table_graph.cell_node("country", "france")
        assert np.allclose(vectors.data[0, 1], h.data[france])


class TestRowIndices:
    def test_full_row(self, table, table_graph):
        matrix = build_row_indices(table, table_graph, [0])
        assert matrix[0, 0] == table_graph.cell_node("city", "paris")
        assert matrix[0, 1] == table_graph.cell_node("country", "france")

    def test_missing_cells_null(self, table, table_graph):
        matrix = build_row_indices(table, table_graph, [2])
        null_index = table_graph.graph.n_nodes
        assert matrix[0, 0] == null_index
        assert matrix[0, 1] == table_graph.cell_node("country", "france")

    def test_mask_columns(self, table, table_graph):
        matrix = build_row_indices(table, table_graph, [0],
                                   mask_columns=["country"])
        assert matrix[0, 1] == table_graph.graph.n_nodes

    def test_same_vector_for_multi_missing_row(self, table, table_graph):
        # Figure 5: a row with several missing cells produces one vector
        # reused by every task.
        a = build_row_indices(table, table_graph, [2])
        b = build_row_indices(table, table_graph, [2])
        assert np.array_equal(a, b)


class TestCorpusIntegration:
    def test_indices_for_whole_corpus(self, table, table_graph):
        corpus = build_training_corpus(table)
        matrix = build_sample_indices(table, table_graph, corpus)
        assert matrix.shape == (len(corpus), table.n_columns)
        null_index = table_graph.graph.n_nodes
        assert (matrix <= null_index).all()
        assert (matrix >= 0).all()
