"""Relational table substrate: mixed-type tables, encoders, normalization,
and CSV I/O."""

from .table import Table, ColumnKind, MISSING
from .encoding import ColumnEncoder, TableEncoder
from .normalize import (DEFAULT_DECIMALS, NumericNormalizer, require_finite,
                        round_numeric)
from .io import read_csv, write_csv

__all__ = [
    "Table",
    "ColumnKind",
    "MISSING",
    "ColumnEncoder",
    "TableEncoder",
    "NumericNormalizer",
    "round_numeric",
    "require_finite",
    "DEFAULT_DECIMALS",
    "read_csv",
    "write_csv",
]
