"""Tests for the message-passing plan cache and planned sparse products.

Covers the tentpole guarantees of the hot-path work:

* ``sparse_matmul`` gradients match the dense ``A @ x`` autograd product
  for compiled and lazily transposed operators, in both dtypes;
* ``sparse_matmul`` refuses raw scipy matrices;
* an operator without a compiled backward never materializes the
  transpose eagerly (and never under ``no_grad``);
* a full training run performs *zero* sparse format conversions inside
  the epoch loop.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.datasets import load
from repro.gnn import (MessagePassingPlan, PlannedOperator,
                       build_gather_operator, conversion_counts,
                       reset_conversion_counts, sparse_matmul)
from repro.tensor import Tensor, no_grad


def random_sparse(rng, n_rows=6, n_cols=5, density=0.4, dtype=np.float64):
    mask = rng.random((n_rows, n_cols)) < density
    dense = rng.standard_normal((n_rows, n_cols)) * mask
    return sparse.csr_matrix(dense.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestSparseMatmulGradients:
    """Planned sparse products agree with dense autograd."""

    def _dense_reference(self, matrix, x_data, dtype):
        x = Tensor(x_data.copy(), requires_grad=True, dtype=dtype)
        dense = Tensor(matrix.toarray().astype(dtype))
        loss = (dense @ x).sum()
        loss.backward()
        return x.grad

    def _check(self, operator, matrix, dtype):
        rng = np.random.default_rng(0)
        x_data = rng.standard_normal((matrix.shape[1], 3)).astype(dtype)
        x = Tensor(x_data.copy(), requires_grad=True, dtype=dtype)
        loss = sparse_matmul(operator, x).sum()
        loss.backward()
        expected = self._dense_reference(matrix, x_data, dtype)
        tol = 1e-5 if dtype == np.float32 else 1e-10
        np.testing.assert_allclose(x.grad, expected, atol=tol, rtol=tol)

    def test_planned_operator_gradient(self, dtype):
        matrix = random_sparse(np.random.default_rng(1), dtype=dtype)
        operator = PlannedOperator.compile(matrix, dtype=dtype)
        self._check(operator, matrix, dtype)

    def test_lazy_backward_gradient(self, dtype):
        matrix = random_sparse(np.random.default_rng(2), dtype=dtype)
        self._check(PlannedOperator(matrix), matrix, dtype)

    def test_non_csr_compiled_gradient(self, dtype):
        matrix = random_sparse(np.random.default_rng(3), dtype=dtype)
        operator = PlannedOperator.compile(matrix.tocoo(), dtype=dtype)
        self._check(operator, matrix, dtype)

    def test_raw_matrix_is_rejected(self, dtype):
        matrix = random_sparse(np.random.default_rng(3), dtype=dtype)
        x = Tensor(np.ones((matrix.shape[1], 2)), dtype=dtype)
        with pytest.raises(TypeError, match="MessagePassingPlan"):
            sparse_matmul(matrix, x)

    def test_gather_operator_matches_fancy_indexing(self, dtype):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((7, 3)).astype(dtype)
        indices = np.array([0, 3, 3, 6, 1])

        gather = build_gather_operator(indices, 7, dtype=dtype)
        x = Tensor(h.copy(), requires_grad=True, dtype=dtype)
        loss = (sparse_matmul(gather, x) * 2.0).sum()
        loss.backward()

        reference = Tensor(h.copy(), requires_grad=True, dtype=dtype)
        (reference[indices] * 2.0).sum().backward()

        np.testing.assert_allclose(
            sparse_matmul(gather, Tensor(h, dtype=dtype)).data, h[indices],
            atol=1e-6)
        np.testing.assert_allclose(x.grad, reference.grad, atol=1e-5)


class TestLazyTranspose:
    """An operator without a compiled backward builds the transpose
    lazily, only when a gradient flows (old eager-transpose bug)."""

    def test_no_transpose_without_grad(self):
        operator = PlannedOperator(random_sparse(np.random.default_rng(5)))
        reset_conversion_counts()
        x = Tensor(np.ones((operator.shape[1], 2)))
        sparse_matmul(operator, x)
        assert conversion_counts()["transpose"] == 0

    def test_no_transpose_under_no_grad(self):
        operator = PlannedOperator(random_sparse(np.random.default_rng(6)))
        reset_conversion_counts()
        x = Tensor(np.ones((operator.shape[1], 2)), requires_grad=True)
        with no_grad():
            sparse_matmul(operator, x)
        assert conversion_counts()["transpose"] == 0

    def test_transpose_only_when_grad_flows(self):
        operator = PlannedOperator(random_sparse(np.random.default_rng(7)))
        reset_conversion_counts()
        x = Tensor(np.ones((operator.shape[1], 2)), requires_grad=True)
        sparse_matmul(operator, x).sum().backward()
        assert conversion_counts()["transpose"] == 1

    def test_plan_compiles_backward_eagerly(self):
        matrix = random_sparse(np.random.default_rng(8))
        operator = PlannedOperator.compile(matrix, dtype=np.float32)
        assert operator.has_backward
        reset_conversion_counts()
        x = Tensor(np.ones((matrix.shape[1], 2), dtype=np.float32),
                   requires_grad=True)
        sparse_matmul(operator, x).sum().backward()
        assert conversion_counts() == {"tocsr": 0, "transpose": 0}


class TestPlanMapping:
    """MessagePassingPlan drops in for the adjacency dict."""

    def test_mapping_interface_and_dtype(self):
        rng = np.random.default_rng(9)
        adjacencies = {"a": random_sparse(rng), "b": random_sparse(rng)}
        plan = MessagePassingPlan(adjacencies, dtype=np.float32)
        assert set(plan) == {"a", "b"}
        assert len(plan) == 2
        for operator in plan.values():
            assert operator.dtype == np.float32
            assert operator.has_backward

    def test_shape_mismatch_raises(self):
        operator = PlannedOperator.compile(
            random_sparse(np.random.default_rng(10)))
        x = Tensor(np.ones((operator.shape[1] + 1, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            sparse_matmul(operator, x)


class TestZeroConversionsInEpochLoop:
    """End to end: the plan removes every conversion from training."""

    def test_training_performs_no_conversions(self):
        clean = load("adult", n_rows=40, seed=0)
        corruption = inject_mcar(clean, 0.2, np.random.default_rng(1))
        imputer = GrimpImputer(GrimpConfig(epochs=2, patience=2, seed=0))
        imputer.impute(corruption.dirty)
        assert imputer.train_conversions_ == {"tocsr": 0, "transpose": 0}

    @pytest.mark.parametrize("fanout", [2, 0])
    def test_sampled_training_performs_no_conversions(self, fanout):
        # Sampled batches come out of the sampler as planned operators:
        # no per-batch tocsr, and transposes only where gradients flow,
        # built without a scipy conversion.
        clean = load("adult", n_rows=40, seed=0)
        corruption = inject_mcar(clean, 0.2, np.random.default_rng(1))
        imputer = GrimpImputer(GrimpConfig(epochs=2, patience=2, seed=0,
                                           batch_size=16, fanout=fanout))
        imputer.impute(corruption.dirty)
        assert imputer.timings_["meta"]["sampling"]["n_batches"] > 1
        assert imputer.train_conversions_ == {"tocsr": 0, "transpose": 0}
