"""Tests for the Table substrate (schema, cells, missing values, stats)."""

import numpy as np
import pytest

from repro.data import (
    MISSING,
    Table,
    ColumnEncoder,
    TableEncoder,
    NumericNormalizer,
    round_numeric,
    read_csv,
    write_csv,
)


@pytest.fixture
def movies():
    return Table({
        "year": [2015.0, MISSING, 2001.0],
        "country": [MISSING, "France", "France"],
        "title": ["The Martian", "Amelie", "Amelie"],
    })


class TestSchema:
    def test_kind_inference(self, movies):
        assert movies.kinds == {"year": "numerical", "country": "categorical",
                                "title": "categorical"}

    def test_explicit_kinds_override(self):
        table = Table({"code": [1, 2, 3]}, kinds={"code": "categorical"})
        assert table.is_categorical("code")

    def test_bools_are_categorical(self):
        table = Table({"flag": [True, False]})
        assert table.is_categorical("flag")

    def test_all_missing_column_is_categorical(self):
        table = Table({"x": [MISSING, MISSING]})
        assert table.is_categorical("x")

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table({"a": [1], "b": [1, 2]})

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table({})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Table({"a": [1]}, kinds={"a": "textual"})

    def test_shape_and_partitions(self, movies):
        assert movies.shape == (3, 3)
        assert movies.categorical_columns == ["country", "title"]
        assert movies.numerical_columns == ["year"]


class TestCells:
    def test_get_set_roundtrip(self, movies):
        movies.set(0, "country", "USA")
        assert movies.get(0, "country") == "USA"
        movies[1, "year"] = 1999
        assert movies[1, "year"] == pytest.approx(1999.0)
        assert isinstance(movies[1, "year"], float)

    def test_set_missing(self, movies):
        movies.set(2, "title", MISSING)
        assert movies.is_missing(2, "title")

    def test_row_access(self, movies):
        row = movies.row(1)
        assert row == {"year": MISSING, "country": "France", "title": "Amelie"}


class TestMissing:
    def test_missing_mask(self, movies):
        mask = movies.missing_mask()
        assert mask.sum() == 2
        assert mask[1, 0] and mask[0, 1]

    def test_missing_cells(self, movies):
        assert set(movies.missing_cells()) == {(1, "year"), (0, "country")}

    def test_missing_fraction(self, movies):
        assert movies.missing_fraction() == pytest.approx(2 / 9)


class TestDomains:
    def test_domain_excludes_missing(self, movies):
        assert movies.domain("country") == ["France"]
        assert movies.domain("year") == [2001.0, 2015.0]

    def test_value_counts(self, movies):
        assert movies.value_counts("title") == {"The Martian": 1, "Amelie": 2}

    def test_n_distinct_counts_per_column(self):
        # "x" appears in both columns -> counted twice (paper's
        # disambiguation rule).
        table = Table({"a": ["x", "y"], "b": ["x", "x"]})
        assert table.n_distinct() == 3


class TestConversion:
    def test_copy_is_deep(self, movies):
        clone = movies.copy()
        clone.set(0, "title", "Alien")
        assert movies.get(0, "title") == "The Martian"
        assert movies.equals(movies.copy())

    def test_numeric_matrix_uses_nan(self, movies):
        matrix = movies.numeric_matrix()
        assert matrix.shape == (3, 1)
        assert np.isnan(matrix[1, 0])
        assert matrix[0, 0] == 2015.0

    def test_numeric_matrix_rejects_categorical(self, movies):
        with pytest.raises(ValueError):
            movies.numeric_matrix(["country"])

    def test_select_rows(self, movies):
        subset = movies.select_rows([2, 0])
        assert subset.n_rows == 2
        assert subset.get(0, "title") == "Amelie"

    def test_equals_detects_difference(self, movies):
        other = movies.copy()
        other.set(0, "year", 1900)
        assert not movies.equals(other)

    def test_to_rows_order(self, movies):
        rows = movies.to_rows()
        assert rows[0] == [2015.0, MISSING, "The Martian"]


class TestEncoders:
    def test_column_encoder_bijection(self, movies):
        encoder = ColumnEncoder.fit(movies, "title")
        assert encoder.cardinality == 2
        for value in movies.domain("title"):
            assert encoder.decode(encoder.encode(value)) == value

    def test_encode_or_default(self, movies):
        encoder = ColumnEncoder.fit(movies, "title")
        assert encoder.encode_or("Unknown Movie") == -1
        assert encoder.encode_or(MISSING) == -1

    def test_encode_column_vectorized(self, movies):
        encoder = ColumnEncoder.fit(movies, "country")
        codes = encoder.encode_column(movies.column("country"))
        assert codes.tolist() == [-1, 0, 0]

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError):
            ColumnEncoder(["a", "a"])

    def test_table_encoder_covers_categoricals(self, movies):
        encoders = TableEncoder(movies)
        assert "country" in encoders and "title" in encoders
        assert "year" not in encoders
        assert encoders.cardinality("title") == 2


class TestNormalizer:
    def test_transform_zero_mean_unit_std(self):
        table = Table({"x": [1.0, 2.0, 3.0, 4.0], "c": ["a", "b", "a", "b"]})
        normalizer = NumericNormalizer()
        normalized = normalizer.fit_transform(table)
        values = np.array(list(normalized.column("x")), dtype=float)
        assert values.mean() == pytest.approx(0.0)
        assert values.std() == pytest.approx(1.0)

    def test_roundtrip(self):
        table = Table({"x": [10.0, MISSING, 30.0]})
        normalizer = NumericNormalizer().fit(table)
        back = normalizer.inverse_transform(normalizer.transform(table))
        assert back.equals(table)

    def test_all_missing_column_gets_no_statistics(self):
        normalizer = NumericNormalizer().fit(
            Table({"x": [1.0, 3.0], "z": [MISSING, MISSING]}))
        assert "z" not in normalizer.means
        # A later table's observed cell passes through both directions.
        table = Table({"x": [2.0, MISSING], "z": [2.5, MISSING]})
        normalized = normalizer.transform(table)
        assert normalized.get(0, "z") == 2.5
        assert normalizer.inverse_transform(normalized).equals(table)

    def test_constant_column_safe(self):
        table = Table({"x": [5.0, 5.0, 5.0]})
        normalized = NumericNormalizer().fit_transform(table)
        assert all(value == 0.0 for value in normalized.column("x"))

    def test_missing_cells_preserved(self):
        table = Table({"x": [1.0, MISSING]})
        normalized = NumericNormalizer().fit_transform(table)
        assert normalized.is_missing(1, "x")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NumericNormalizer().transform(Table({"x": [1.0]}))

    def test_inverse_value(self):
        table = Table({"x": [0.0, 10.0]})
        normalizer = NumericNormalizer().fit(table)
        assert normalizer.inverse_value("x", 0.0) == pytest.approx(5.0)

    def test_round_numeric_default_decimals(self):
        assert round_numeric(1.123456789123) == pytest.approx(1.12345679)


class TestCsv:
    def test_roundtrip(self, tmp_path, movies):
        path = tmp_path / "movies.csv"
        write_csv(movies, path)
        loaded = read_csv(path)
        assert loaded.equals(movies)

    def test_missing_round_trips_as_empty(self, tmp_path):
        table = Table({"a": ["x", MISSING], "n": [MISSING, 2.5]})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.is_missing(1, "a")
        assert loaded.is_missing(0, "n")
        assert loaded.get(1, "n") == pytest.approx(2.5)

    def test_declared_categorical_keeps_strings(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("zip\n07001\n10001\n")
        loaded = read_csv(path, kinds={"zip": "categorical"})
        assert loaded.get(0, "zip") == "07001"

    def test_declared_numerical_with_text_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\nhello\n")
        with pytest.raises(ValueError):
            read_csv(path, kinds={"x": "numerical"})

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)
