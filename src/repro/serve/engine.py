"""Online imputation engine over a fitted (or reloaded) GRIMP model.

The engine splits GRIMP's inference cost into a one-time *pin* and a
cheap per-batch path:

* **pin** — the heterogeneous-GNN forward over the training graph runs
  once (under ``no_grad``) and the resulting node representations
  ``h`` are cached as a dense matrix.  The planned sparse operators and
  the node features never change after fit, so neither does ``h``.
* **batch** — imputing a batch of new rows only looks up each observed
  cell's node representation (unseen values hit the null row), runs the
  per-attribute task heads, and decodes — no message passing, no graph
  rebuild.

This is the GRAPE-style "imputation = prediction on a frozen graph"
framing: the expensive fit happens once, the inference path is
repeatable and cheap.  Engine calls are serialized by an internal lock
(correct under the HTTP server's thread pool); throughput comes from
micro-batching, not from concurrent engine entry.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.fill import fill_missing
from ..core.model import build_node_index_matrix
from ..core.trainer import GrimpImputer
from ..data import MISSING, Table, require_finite
from ..telemetry import Tracer
from ..tensor import Tensor, no_grad

__all__ = ["InferenceEngine", "records_to_table", "table_to_records"]


def _bad_cell(position: int, column: str, value, expected: str
              ) -> ValueError:
    return ValueError(f"row {position}, column {column!r}: {value!r} is "
                      f"not {expected}")


def records_to_table(records: list[dict], columns: list[str],
                     kinds: dict[str, str]) -> Table:
    """Build a schema-conforming :class:`Table` from JSON-style records.

    Missing keys and ``None`` values become the missing sentinel;
    numerical cells are coerced to float (numeric strings included) so
    HTTP clients can send either ``3.5`` or ``"3.5"``.  A cell that is
    not a JSON scalar of its column's kind (an array or object, or a
    boolean in a numerical column) raises ``ValueError`` naming it.
    """
    data: dict[str, list] = {column: [] for column in columns}
    for position, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"row {position} is not an object")
        unknown = set(record) - set(columns)
        if unknown:
            raise ValueError(f"row {position} has unknown columns: "
                             f"{sorted(unknown)}")
        for column in columns:
            value = record.get(column)
            if value is None:
                data[column].append(MISSING)
            elif kinds[column] == "numerical":
                if isinstance(value, bool):
                    raise _bad_cell(position, column, value, "numerical")
                try:
                    number = float(value)
                except (TypeError, ValueError):
                    raise _bad_cell(position, column, value,
                                    "numerical") from None
                data[column].append(require_finite(column, position,
                                                   number))
            elif isinstance(value, (str, int, float)):
                data[column].append(value)
            else:
                raise _bad_cell(position, column, value,
                                "a categorical value")
    if not records:
        raise ValueError("no rows to impute")
    return Table(data, kinds=dict(kinds))


def table_to_records(table: Table) -> list[dict]:
    """Rows of a table as JSON-ready dicts (missing cells → ``None``)."""
    records = []
    for row in range(table.n_rows):
        record = {}
        for column in table.column_names:
            value = table.get(row, column)
            record[column] = None if value is MISSING else value
        records.append(record)
    return records


class InferenceEngine:
    """Batch imputation over a fitted imputer with pinned representations.

    Parameters
    ----------
    imputer:
        A fitted :class:`~repro.core.GrimpImputer` — either freshly
        trained in this process or restored via
        :func:`repro.serve.load_imputer`.
    pin:
        Compute the node representations eagerly (default).  When false
        the pin happens lazily on the first imputation.
    """

    def __init__(self, imputer: GrimpImputer, pin: bool = True):
        artifacts = getattr(imputer, "_artifacts", None)
        if artifacts is None:
            raise RuntimeError("the imputer is not fitted; run impute() "
                               "or load a checkpoint first")
        self.imputer = imputer
        self.artifacts = artifacts
        self.columns: list[str] = list(artifacts.columns)
        self.kinds: dict[str, str] = dict(artifacts.kinds)
        # Aggregate-only tracer (``max_spans=0``): per-path totals with
        # constant memory, safe for long-lived serving processes.  The
        # tracer is activated around engine work so detail spans (GNN
        # layers, spmm dispatch) nest under "pin"/"batch" when telemetry
        # is enabled globally.
        self.tracer = Tracer(max_spans=0)
        self._h: np.ndarray | None = None
        self._lock = threading.Lock()
        self._rows_imputed = 0
        self._cells_filled = 0
        if pin:
            self.pin()

    @classmethod
    def from_checkpoint(cls, path, pin: bool = True) -> "InferenceEngine":
        """Load a checkpoint directory and build an engine over it."""
        from .checkpoint import load_imputer
        return cls(load_imputer(path), pin=pin)

    # ------------------------------------------------------------------
    def pin(self) -> np.ndarray:
        """Run the GNN forward once and cache the node representations."""
        with self._lock:
            return self._pin_locked()

    def _pin_locked(self) -> np.ndarray:
        if self._h is None:
            artifacts = self.artifacts
            model = artifacts.model
            model.eval()
            with self.tracer.activate(), self.tracer.span("pin"), \
                    no_grad():
                h_extended = model.node_representations(
                    artifacts.adjacencies, artifacts.feature_tensor)
            self._h = np.ascontiguousarray(h_extended.data)
        return self._h

    @property
    def is_pinned(self) -> bool:
        """Whether the node representations are already cached."""
        return self._h is not None

    # ------------------------------------------------------------------
    def impute_table(self, new_dirty: Table) -> Table:
        """Impute every missing cell of a new same-schema table.

        Numerically identical to
        :meth:`~repro.core.GrimpImputer.impute_new_rows`, but the GNN
        forward is reused across calls instead of recomputed.
        """
        if list(new_dirty.column_names) != self.columns or \
                dict(new_dirty.kinds) != self.kinds:
            raise ValueError("schema mismatch with the served model")
        with self._lock:
            h = self._pin_locked()
            with self.tracer.activate(), \
                    self.tracer.span("batch", rows=new_dirty.n_rows):
                return self._impute_locked(new_dirty, h)

    def impute_records(self, records: list[dict]) -> list[dict]:
        """Impute JSON-style records; returns fully-filled records."""
        table = records_to_table(records, self.columns, self.kinds)
        return table_to_records(self.impute_table(table))

    # ------------------------------------------------------------------
    def _impute_locked(self, new_dirty: Table, h: np.ndarray) -> Table:
        artifacts = self.artifacts
        model = artifacts.model
        model.eval()
        self._rows_imputed += new_dirty.n_rows

        def predict(column: str, indices: np.ndarray) -> np.ndarray:
            self._cells_filled += indices.shape[0]
            return model.task_output(column, Tensor(h[indices])).data

        normalized = artifacts.normalizer.transform(new_dirty)
        node_matrix = build_node_index_matrix(normalized,
                                              artifacts.table_graph)
        return fill_missing(new_dirty, node_matrix, predict,
                            artifacts.encoders, artifacts.normalizer)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine-side counters and phase timings for ``/metrics``."""
        with self._lock:
            phases = self.tracer.aggregate()
            for key in ("pin", "batch"):
                phases.setdefault(key, {"seconds": 0.0, "count": 0})
            return {
                "rows_imputed": self._rows_imputed,
                "cells_filled": self._cells_filled,
                "pinned": self._h is not None,
                "phases": phases,
            }
