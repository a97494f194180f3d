"""Turn task-head outputs into filled cells (§3.7).

Every imputation path fills a missing cell the same way: run the cell's
attribute head on its row's vector, then decode — the argmax value for
categorical attributes, the de-normalized regression for numerical
ones.  The paths differ only in where the representations come from (a
full-graph forward, sampled subgraphs, or pinned serving state), so
they share :func:`fill_missing` and supply a ``predict`` callable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data import NumericNormalizer, Table, TableEncoder
from ..tensor import no_grad

__all__ = ["fill_missing"]

#: ``predict(column, index_matrix) -> head outputs``: logits
#: ``(n, cardinality)`` for categorical columns, ``(n, 1)`` regressions
#: for numerical ones, one row per row of the ``(n, C)`` node-index
#: matrix.
Predict = Callable[[str, np.ndarray], np.ndarray]


def fill_missing(dirty: Table, node_matrix: np.ndarray, predict: Predict,
                 encoders: TableEncoder, normalizer: NumericNormalizer,
                 scores: dict[tuple[int, str], float] | None = None
                 ) -> Table:
    """Fill every missing cell of ``dirty`` from ``predict``'s outputs.

    Missing cells are grouped by column (in ``missing_cells`` order) and
    ``predict`` runs once per column on the rows' slice of
    ``node_matrix`` (:func:`~repro.core.model.build_node_index_matrix`
    of the normalized table).  Columns with no observed value at fit
    time stay missing and are never predicted: a categorical column
    without an observed domain, or a numerical one the normalizer has
    no statistics for.

    When ``scores`` is given it receives a confidence per filled cell:
    the softmax probability of the written value for categorical cells,
    ``1.0`` for numerical ones (point regression has no calibrated
    uncertainty).
    """
    imputed = dirty.copy()
    by_column: dict[str, list[int]] = {}
    for row, column in dirty.missing_cells():
        by_column.setdefault(column, []).append(row)
    for column, rows in by_column.items():
        categorical = dirty.is_categorical(column)
        observed = encoders.cardinality(column) > 0 if categorical \
            else column in normalizer.means
        if not observed:
            continue  # nothing observed to impute from
        with no_grad():
            output = predict(column,
                             node_matrix[np.asarray(rows, dtype=np.int64)])
        if categorical:
            codes = output.argmax(axis=1)
            encoder = encoders[column]
            for row, code in zip(rows, codes):
                imputed.set(row, column, encoder.decode(int(code)))
            if scores is not None:
                shifted = output - output.max(axis=1, keepdims=True)
                probabilities = np.exp(shifted)
                probabilities /= probabilities.sum(axis=1, keepdims=True)
                chosen = probabilities[np.arange(len(rows)), codes]
                for row, confidence in zip(rows, chosen):
                    scores[(row, column)] = float(confidence)
        else:
            for row, value in zip(rows, output.reshape(-1)):
                imputed.set(row, column,
                            normalizer.inverse_value(column, float(value)))
                if scores is not None:
                    scores[(row, column)] = 1.0
    return imputed
