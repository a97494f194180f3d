"""Numeric normalization for mixed-type tables.

The paper normalizes numerical values before training "so that their MSE
is comparable in magnitude to the Cross Entropy loss measured for
categorical variables", and de-normalizes before measuring imputation
accuracy (§3.2, §3.6).  Real numbers are rounded to a pre-defined number
of decimal places (8 by default) when treated as graph node strings.
"""

from __future__ import annotations

import math

import numpy as np

from .table import MISSING, Table

__all__ = ["NumericNormalizer", "round_numeric", "require_finite",
           "DEFAULT_DECIMALS"]

#: Decimal places used when numerals become graph-node strings (§3.2).
DEFAULT_DECIMALS = 8


class NumericNormalizer:
    """Per-column z-score normalizer fitted on non-missing values.

    Columns with zero variance are scaled by 1 to avoid division by zero
    (their normalized values are all 0).
    """

    def __init__(self):
        self.means: dict[str, float] = {}
        self.stds: dict[str, float] = {}
        self._fitted = False

    def fit(self, table: Table) -> "NumericNormalizer":
        """Estimate mean/std of every numerical column.

        A ``nan``/``inf`` cell would poison the statistics and every
        imputed value, so it raises (:func:`require_finite`).
        """
        for name in table.numerical_columns:
            values = np.array([require_finite(name, row, v)
                               for row, v in enumerate(table.column(name))
                               if v is not MISSING], dtype=float)
            if values.size == 0:
                self.means[name], self.stds[name] = 0.0, 1.0
                continue
            mean = float(values.mean())
            std = float(values.std())
            self.means[name] = mean
            self.stds[name] = std if std > 1e-12 else 1.0
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("normalizer must be fitted before use")

    def transform(self, table: Table) -> Table:
        """Return a copy of ``table`` with numerical cells z-scored."""
        self._require_fitted()
        out = table.copy()
        for name in table.numerical_columns:
            mean, std = self.means[name], self.stds[name]
            column = out.column(name)
            for row in range(out.n_rows):
                if column[row] is not MISSING:
                    column[row] = (column[row] - mean) / std
        return out

    def fit_transform(self, table: Table) -> Table:
        """Fit on ``table`` then transform it."""
        return self.fit(table).transform(table)

    def inverse_value(self, name: str, value: float) -> float:
        """De-normalize a single value of column ``name``."""
        self._require_fitted()
        return value * self.stds[name] + self.means[name]

    def inverse_transform(self, table: Table) -> Table:
        """Return a copy of ``table`` with numerical cells de-normalized."""
        self._require_fitted()
        out = table.copy()
        for name in table.numerical_columns:
            column = out.column(name)
            for row in range(out.n_rows):
                if column[row] is not MISSING:
                    column[row] = self.inverse_value(name, column[row])
        return out


def require_finite(column: str, row: int, value):
    """``value`` itself if it is a finite number, else ``ValueError``
    naming the cell."""
    if not math.isfinite(value):
        raise ValueError(f"row {row}, column {column!r}: {value!r} is "
                         f"not a finite number")
    return value


def round_numeric(value: float, decimals: int = DEFAULT_DECIMALS) -> float:
    """Round a numeric cell value as done before stringifying it into a
    graph node (§3.2)."""
    return round(float(value), decimals)
