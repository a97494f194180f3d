"""Precompiled message-passing plans for the epoch loop.

The adjacency structure of a GRIMP training run is fixed once the graph
is built, yet the original hot path re-ran ``tocsr()`` and materialized
``csr.T.tocsr()`` on *every* forward call.  This module compiles each
constant sparse operator exactly once per fit:

* :class:`PlannedOperator` — a ``(forward, backward)`` CSR pair for one
  constant matrix; the backward operator (the transpose) is built
  lazily, so inference-only uses never pay for it.
* :class:`MessagePassingPlan` — a mapping ``edge type -> operator`` that
  drops into every API that previously took a dict of adjacency
  matrices (it *is* a :class:`~collections.abc.Mapping`).
* :func:`build_gather_operator` — a CSR row-selection operator for the
  training-vector gather, replacing fancy indexing whose backward
  relied on the slow ``np.add.at`` scatter.

Sampled minibatches do not compile here: the sampler builds each
batch's CSR pairs itself (:meth:`repro.sampling.SampledSubgraph.compile`)
and wraps them with :meth:`MessagePassingPlan.from_operators`.

Format conversions are counted in :data:`CONVERSION_COUNTS` so tests and
the profiler can assert that none happen inside the epoch loop.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from ..telemetry import counter
from ..tensor import get_default_dtype

__all__ = ["PlannedOperator", "MessagePassingPlan", "build_gather_operator",
           "conversion_counts", "reset_conversion_counts"]


def _resolve_dtype(dtype) -> np.dtype:
    """Resolve a dtype argument, mapping ``None`` to the engine default.

    ``np.dtype(None)`` silently means float64, so the ``None`` sentinel
    must be handled before conversion.
    """
    return get_default_dtype() if dtype is None else np.dtype(dtype)

#: Running totals of sparse-format conversions performed by this module.
CONVERSION_COUNTS = {"tocsr": 0, "transpose": 0}

#: Telemetry counters mirroring the conversion totals plus plan-compile
#: activity; snapshotted into ``GET /metrics`` and run manifests.
_CONVERSION_COUNTERS = {
    "tocsr": counter("plan.conversions.tocsr",
                     "sparse tocsr() format conversions"),
    "transpose": counter("plan.conversions.transpose",
                         "sparse transpose materializations"),
}
_COMPILES = counter("plan.compile", "PlannedOperator compilations")


def count_conversion(kind: str) -> None:
    """Record one sparse-format conversion (``"tocsr"``/``"transpose"``)."""
    CONVERSION_COUNTS[kind] += 1
    _CONVERSION_COUNTERS[kind].inc()


def conversion_counts() -> dict[str, int]:
    """Snapshot of the conversion counters."""
    return dict(CONVERSION_COUNTS)


def reset_conversion_counts() -> None:
    """Zero the conversion counters (test/bench helper)."""
    for key in CONVERSION_COUNTS:
        CONVERSION_COUNTS[key] = 0


class PlannedOperator:
    """A constant sparse operator compiled for repeated application.

    Parameters
    ----------
    forward:
        CSR matrix applied in the forward pass (``forward @ x``).
    backward:
        Optional CSR matrix applied to incoming gradients
        (``backward @ grad``); when omitted it is built lazily from
        ``forward.T`` on first use and cached.
    """

    __slots__ = ("forward", "_backward")

    def __init__(self, forward: sparse.csr_matrix,
                 backward: sparse.csr_matrix | None = None):
        self.forward = forward
        self._backward = backward

    @classmethod
    def compile(cls, matrix: sparse.spmatrix, dtype=None,
                build_backward: bool = True) -> "PlannedOperator":
        """Compile ``matrix`` into a planned operator.

        Conversions happen here, once, instead of on every product: the
        matrix is converted to CSR in the requested dtype — defaulting
        to the engine dtype (:func:`repro.tensor.get_default_dtype`) —
        and (when ``build_backward``) its transpose is materialized as
        CSR too.
        """
        resolved = _resolve_dtype(dtype)
        _COMPILES.inc()
        if sparse.issparse(matrix) and matrix.format == "csr":
            forward = matrix
        else:
            count_conversion("tocsr")
            forward = matrix.tocsr()
        if forward.dtype != resolved:
            forward = forward.astype(resolved)
        operator = cls(forward)
        if build_backward:
            operator.backward  # noqa: B018 -- force the cached build
        return operator

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the forward operator."""
        return self.forward.shape

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the forward operator."""
        return self.forward.dtype

    @property
    def backward(self) -> sparse.csr_matrix:
        """The transposed operator, built on first access and cached.

        Lazy so that inference-only products (``requires_grad`` false or
        ``no_grad`` active) never materialize — or retain — a transposed
        copy of a large adjacency.
        """
        if self._backward is None:
            count_conversion("transpose")
            self._backward = self.forward.T.tocsr()
        return self._backward

    @property
    def has_backward(self) -> bool:
        """Whether the backward operator is already materialized."""
        return self._backward is not None

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Raw CSR component arrays of the forward operator.

        The backward operator is never serialized — it is a pure function
        of the forward matrix and rebuilds lazily on first use.
        """
        forward = self.forward
        return {
            "data": forward.data,
            "indices": forward.indices,
            "indptr": forward.indptr,
            "shape": np.asarray(forward.shape, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PlannedOperator":
        """Rebuild an operator from :meth:`to_arrays` output.

        The CSR components are adopted as-is (same dtype, same index
        ordering), so a round-tripped operator produces bit-identical
        products.
        """
        forward = sparse.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=tuple(int(size) for size in arrays["shape"]))
        return cls(forward)

    def __repr__(self) -> str:
        return (f"PlannedOperator(shape={self.shape}, dtype={self.dtype}, "
                f"backward={'cached' if self.has_backward else 'lazy'})")


class MessagePassingPlan(Mapping):
    """Per-edge-type planned operators for heterogeneous message passing.

    Compiled once per fit from the normalized per-column adjacencies;
    behaves like the ``dict[str, spmatrix]`` it replaces, so
    :class:`~repro.gnn.HeteroGNN` and friends accept it unchanged — the
    difference is that :func:`~repro.gnn.sparse.sparse_matmul` recognizes
    the planned operators and performs zero conversions per call.
    """

    def __init__(self, adjacencies: Mapping[str, sparse.spmatrix],
                 dtype=None, build_backward: bool = True):
        self.dtype = _resolve_dtype(dtype)
        self.operators: dict[str, PlannedOperator] = {
            edge_type: PlannedOperator.compile(matrix, dtype=self.dtype,
                                               build_backward=build_backward)
            for edge_type, matrix in adjacencies.items()
        }

    @classmethod
    def from_operators(cls, operators: dict[str, PlannedOperator],
                       dtype=None) -> "MessagePassingPlan":
        """Wrap already-compiled operators (checkpoint restore, sampled
        batches).

        No conversion or copy happens; the operators keep whatever dtype
        they were compiled with, which is what makes reloaded inference
        bit-identical to the run that produced the checkpoint.
        """
        plan = cls.__new__(cls)
        plan.dtype = _resolve_dtype(dtype)
        plan.operators = dict(operators)
        return plan

    @classmethod
    def from_graph(cls, table_graph, normalization: str = "row",
                   self_loops: bool = True,
                   edge_types: list[str] | None = None,
                   dtype=None) -> "MessagePassingPlan":
        """Build the plan straight from a :class:`~repro.graph.TableGraph`."""
        from .hetero import column_adjacencies
        adjacencies = column_adjacencies(table_graph,
                                         normalization=normalization,
                                         self_loops=self_loops,
                                         edge_types=edge_types)
        return cls(adjacencies, dtype=dtype)

    def __getitem__(self, edge_type: str) -> PlannedOperator:
        return self.operators[edge_type]

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def __repr__(self) -> str:
        return (f"MessagePassingPlan(edge_types={len(self.operators)}, "
                f"dtype={self.dtype})")


def build_gather_operator(indices: np.ndarray, n_rows: int,
                          dtype=None) -> PlannedOperator:
    """Compile a row-gather into a planned sparse operator.

    ``forward @ h`` equals ``h[indices.reshape(-1)]`` exactly (each CSR
    row holds a single ``1.0``), while ``backward @ grad`` scatter-adds
    gradients back — orders of magnitude faster than ``np.add.at`` on
    large index matrices.

    Parameters
    ----------
    indices:
        Integer node-index array of any shape; flattened row-major.
    n_rows:
        Number of rows of the matrix being gathered from (for GRIMP,
        ``n_nodes + 1`` to include the trailing zero row).
    """
    flat = np.asarray(indices, dtype=np.int64).reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= n_rows):
        raise ValueError("gather indices out of range")
    resolved = _resolve_dtype(dtype)
    data = np.ones(flat.size, dtype=resolved)
    indptr = np.arange(flat.size + 1, dtype=np.int64)
    forward = sparse.csr_matrix((data, flat, indptr),
                                shape=(flat.size, n_rows))
    return PlannedOperator(forward, forward.T.tocsr())
