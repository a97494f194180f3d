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

from ..telemetry import counter, detail_span
from ..tensor import Tensor, is_grad_enabled
from .plan import PlannedOperator

__all__ = ["sparse_matmul"]

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
        out_data = operator.forward @ x.data

    if not (x.requires_grad and is_grad_enabled()):
        return x._make(out_data, (x,), None, "sparse_matmul")

    def backward(grad):
        x._accumulate(operator.backward @ grad, owned=True)

    return x._make(out_data, (x,), backward, "sparse_matmul")
