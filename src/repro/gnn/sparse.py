"""Autograd support for products with constant sparse matrices.

GNN message passing multiplies node features by a (fixed) normalized
adjacency matrix; only the features carry gradients, so the backward
pass is simply ``A.T @ grad``.

The matrix is a :class:`~repro.gnn.plan.PlannedOperator` (usually from
a :class:`~repro.gnn.plan.MessagePassingPlan`): its CSR forward and
transposed backward operators are compiled once per fit, so no format
conversion happens per call.  An operator compiled without its backward
builds the transpose lazily, only if a gradient actually flows, so
inference never holds a transposed copy alive.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..telemetry import counter, detail_span
from ..tensor import Tensor, is_grad_enabled
from .plan import PlannedOperator

try:  # scipy's typed CSR kernel: Y += A @ X into a caller-owned buffer
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _csr_matvecs = None

__all__ = ["sparse_matmul"]


def _spmm(matrix: sparse.csr_matrix, x: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ x``, optionally accumulated into a caller-owned ``out``.

    scipy's own ``csr @ dense`` is exactly ``np.zeros`` + ``csr_matvecs``
    (see ``scipy.sparse._base._matmul_multivector``), so zeroing ``out``
    and running the same kernel is bit-identical.  The hot path passes
    ``out=None`` on purpose: scipy's ``np.zeros`` gets lazily-zeroed
    step-warm pages from the allocator, while an eager ``out.fill(0)``
    into an epoch-cold pooled buffer measured ~14% slower.  The ``out``
    form exists for callers that must land the product in a specific
    buffer (shared-memory serving, externally pinned outputs).
    """
    if out is None:
        return matrix @ x
    if _csr_matvecs is None or x.ndim != 2 or \
            matrix.dtype != x.dtype or matrix.format != "csr" or \
            not x.flags.c_contiguous:
        out[...] = matrix @ x
        return out
    n_rows, n_cols = matrix.shape
    n_vecs = x.shape[1]
    out.fill(0)
    _csr_matvecs(n_rows, n_cols, n_vecs, matrix.indptr, matrix.indices,
                 matrix.data, x.ravel(), out.ravel())
    return out

#: Products served by a precompiled operator (zero conversions).
#: Exposed via ``GET /metrics`` and run manifests.
_PLAN_HITS = counter("plan.dispatch.planned",
                     "sparse products served by a precompiled operator")


def sparse_matmul(operator: PlannedOperator, x: Tensor) -> Tensor:
    """Compute ``operator @ x`` for a constant precompiled sparse
    operator and a dense ``(n, d)`` tensor ``x``.

    Gradients flow only into ``x``.
    """
    if not isinstance(operator, PlannedOperator):
        raise TypeError(
            f"sparse_matmul needs a PlannedOperator, got "
            f"{type(operator).__name__}; compile adjacency matrices once "
            f"with MessagePassingPlan(adjacencies) (or a single matrix "
            f"with PlannedOperator.compile)")
    if operator.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {operator.shape} @ {x.shape}")
    _PLAN_HITS.inc()
    with detail_span("spmm.plan"):
        out_data = _spmm(operator.forward, x.data)

    if not (x.requires_grad and is_grad_enabled()):
        return x._make(out_data, (x,), None, "sparse_matmul")

    def backward(grad):
        x._accumulate(_spmm(operator.backward, grad), owned=True)

    return x._make(out_data, (x,), backward, "sparse_matmul")
