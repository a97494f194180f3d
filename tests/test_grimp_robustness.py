"""Robustness tests: GRIMP on degenerate schemas and stress cases."""

import numpy as np
import pytest

from repro.data import MISSING, Table
from repro.corruption import inject_mcar
from repro.core import GrimpConfig, GrimpImputer

TINY = dict(feature_dim=8, gnn_dim=10, merge_dim=12, epochs=6, patience=3,
            lr=1e-2, seed=0)


@pytest.fixture(params=["full", "sampled"])
def path(request):
    """Config overrides selecting each training path: full-graph, and
    sampled minibatches (exact neighborhoods)."""
    return {} if request.param == "full" else {"batch_size": 8}


class TestDegenerateSchemas:
    """Every case runs on both training paths (the ``path`` fixture)."""

    def test_numerical_only_table(self, path):
        rng = np.random.default_rng(0)
        table = Table({
            "x": list(rng.normal(0, 1, 40)),
            "y": list(rng.normal(5, 2, 40)),
        })
        corruption = inject_mcar(table, 0.2, np.random.default_rng(1))
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(corruption.dirty)
        assert imputed.missing_fraction() == 0.0
        for row, column in corruption.injected:
            assert isinstance(imputed.get(row, column), float)

    def test_single_column_table(self, path):
        table = Table({"c": ["a", "b", "a", "a", MISSING, "b", "a", "b",
                             "a", MISSING]})
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        assert imputed.missing_fraction() == 0.0
        assert imputed.get(4, "c") in ("a", "b")

    def test_two_row_table(self, path):
        table = Table({"a": ["x", MISSING], "b": ["1", "2"]})
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        # Only one observed value in "a": the only possible imputation.
        assert imputed.get(1, "a") == "x"

    def test_fully_missing_column_left_missing(self, path):
        table = Table({
            "known": ["a", "b", "a", "b"] * 3,
            "unknown": [MISSING] * 12,
        })
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        # No observed domain exists for "unknown": cells stay missing.
        assert all(imputed.is_missing(row, "unknown")
                   for row in range(12))
        assert imputed.missing_mask()[:, 0].sum() == 0

    def test_wide_table_many_columns(self, path):
        rng = np.random.default_rng(0)
        columns = {f"c{index}": [f"v{rng.integers(0, 3)}"
                                 for _ in range(25)]
                   for index in range(12)}
        table = Table(columns)
        corruption = inject_mcar(table, 0.2, np.random.default_rng(1))
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(corruption.dirty)
        assert imputed.missing_fraction() == 0.0

    def test_high_cardinality_column(self, path):
        rng = np.random.default_rng(0)
        n = 50
        table = Table({
            "id_like": [f"unique_{index}" for index in range(n)],
            "group": [f"g{rng.integers(0, 3)}" for _ in range(n)],
        })
        corruption = inject_mcar(table, 0.2, np.random.default_rng(1))
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(corruption.dirty)
        assert imputed.missing_fraction() == 0.0
        observed_ids = set(corruption.dirty.domain("id_like"))
        for row, column in corruption.injected:
            if column == "id_like":
                assert imputed.get(row, column) in observed_ids

    def test_single_row_table(self, path):
        table = Table({"a": ["x"], "b": [MISSING], "n": [1.5]})
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        assert imputed.get(0, "a") == "x"
        assert imputed.get(0, "n") == 1.5
        # "b" has no observed domain: the cell stays missing.
        assert imputed.is_missing(0, "b")

    def test_table_with_no_observed_cell_is_returned_unchanged(self, path):
        table = Table({"a": [MISSING] * 3, "b": [MISSING] * 3})
        imputer = GrimpImputer(GrimpConfig(**TINY, **path))
        imputed = imputer.impute(table)
        # No observed cell means no training sample: no epoch runs and
        # nothing is filled.
        assert imputer.history_ == []
        assert imputed.equals(table)

    def test_constant_numerical_column(self, path):
        rng = np.random.default_rng(0)
        values = [3.0] * 30
        for row in (2, 9, 17):
            values[row] = MISSING
        table = Table({"c": [f"v{rng.integers(0, 3)}" for _ in range(30)],
                       "k": values})
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        for row in (2, 9, 17):
            assert abs(imputed.get(row, "k") - 3.0) < 0.5

    def test_non_ascii_values(self, path):
        names = ["café", "東京", "Ωmega"]
        table = Table({"u": [names[row % 3] for row in range(30)],
                       "v": [names[(row + 1) % 3] for row in range(30)]})
        table.set(4, "u", MISSING)
        table.set(7, "v", MISSING)
        imputed = GrimpImputer(GrimpConfig(**TINY, **path)).impute(table)
        assert imputed.get(4, "u") in names
        assert imputed.get(7, "v") in names

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_number_is_a_typed_error(self, path, value):
        values = [float(row) for row in range(12)]
        values[5] = value
        table = Table({"c": ["a", "b"] * 6, "x": values})
        imputer = GrimpImputer(GrimpConfig(**TINY, **path))
        with pytest.raises(ValueError, match=r"row 5, column 'x'"):
            imputer.impute(table)

    def test_all_missing_numerical_column_round_trips(self, path,
                                                      tmp_path):
        from repro.serve import InferenceEngine

        rng = np.random.default_rng(0)
        kinds = {"c": "categorical", "z": "numerical"}
        table = Table({"c": [f"v{rng.integers(0, 3)}" for _ in range(20)],
                       "z": [MISSING] * 20}, kinds=kinds)
        imputer = GrimpImputer(GrimpConfig(**TINY, **path))
        imputer.impute(table)
        imputer.save_checkpoint(tmp_path / "model.ckpt")
        engine = InferenceEngine.from_checkpoint(tmp_path / "model.ckpt")
        new = Table({"c": ["v1", MISSING], "z": [MISSING, MISSING]},
                    kinds=kinds)
        expected = imputer.impute_new_rows(new)
        served = engine.impute_records([{"c": "v1", "z": None},
                                        {"c": None, "z": None}])
        for row, record in enumerate(served):
            for column in ("c", "z"):
                assert record[column] == expected.get(row, column)
            assert record["z"] is None

    def test_fully_missing_numerical_column_left_missing(self, path,
                                                         tmp_path):
        rng = np.random.default_rng(0)
        kinds = {"c": "categorical", "z": "numerical"}
        table = Table({"c": [f"v{rng.integers(0, 3)}" for _ in range(20)],
                       "z": [MISSING] * 20}, kinds=kinds)
        table.set(3, "c", MISSING)
        imputer = GrimpImputer(GrimpConfig(**TINY, **path))
        imputed = imputer.impute(table)
        # No observed value exists for "z": its cells stay missing, as
        # an all-missing categorical column's do, while "c" still fills.
        assert all(imputed.is_missing(row, "z") for row in range(20))
        assert not imputed.is_missing(3, "c")

        new = Table({"c": ["v1", MISSING], "z": [2.5, MISSING]},
                    kinds=kinds)
        fresh = imputer.impute_new_rows(new)
        assert fresh.get(0, "z") == 2.5  # observed input passes through
        assert fresh.is_missing(1, "z")
        assert not fresh.is_missing(1, "c")

        imputer.save_checkpoint(tmp_path / "model.ckpt")
        restored = GrimpImputer.from_checkpoint(tmp_path / "model.ckpt")
        assert restored.impute_new_rows(new).equals(fresh)


class TestNonFiniteInput:
    """``nan``/``inf`` numerics fail with the offending cell named on
    every input surface, instead of poisoning the column's fill; so do
    served cells that are not a scalar of their column's kind."""

    @pytest.mark.parametrize("value", ["nan", float("inf"), "-Infinity"])
    def test_records_rejected(self, value):
        from repro.serve import records_to_table

        with pytest.raises(ValueError, match=r"row 1, column 'x'"):
            records_to_table([{"x": 1.0}, {"x": value}], ["x"],
                             {"x": "numerical"})

    @pytest.mark.parametrize("kind,value,expected", [
        ("categorical", ["a"], "is not a categorical value"),
        ("categorical", {"a": 1}, "is not a categorical value"),
        ("numerical", True, "is not numerical"),
        ("numerical", False, "is not numerical"),
    ], ids=["array", "object", "true", "false"])
    def test_malformed_records_rejected(self, kind, value, expected):
        # A JSON array or object would crash the node lookup inside the
        # batcher, and a JSON boolean would be imputed as 1.0 or 0.0.
        from repro.serve import records_to_table

        with pytest.raises(ValueError,
                           match=rf"row 1, column 'x': .* {expected}"):
            records_to_table([{"x": None}, {"x": value}], ["x"],
                             {"x": kind})

    def test_cli_impute_reports_the_cell(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "dirty.csv"
        rows = ["c,x"] + [f"{'ab'[row % 2]},{row}" for row in range(10)]
        rows[4] = "a,nan"
        rows[6] = "b,"
        source.write_text("\n".join(rows) + "\n")
        code = main(["impute", str(source), str(tmp_path / "out.csv"),
                     "--algorithm", "grimp-mt", "--profile", "fast"])
        assert code == 1
        assert "row 3, column 'x'" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_same_imputation(self):
        rng = np.random.default_rng(0)
        table = Table({
            "c": [f"v{rng.integers(0, 3)}" for _ in range(40)],
            "x": list(rng.normal(0, 1, 40)),
        })
        corruption = inject_mcar(table, 0.2, np.random.default_rng(1))
        a = GrimpImputer(GrimpConfig(**TINY)).impute(corruption.dirty)
        b = GrimpImputer(GrimpConfig(**TINY)).impute(corruption.dirty)
        assert a.equals(b)

    def test_different_seed_may_differ_but_fills(self):
        rng = np.random.default_rng(0)
        table = Table({
            "c": [f"v{rng.integers(0, 3)}" for _ in range(40)],
            "x": list(rng.normal(0, 1, 40)),
        })
        corruption = inject_mcar(table, 0.3, np.random.default_rng(1))
        config = dict(TINY)
        config["seed"] = 99
        imputed = GrimpImputer(GrimpConfig(**config)).impute(
            corruption.dirty)
        assert imputed.missing_fraction() == 0.0


class TestStress:
    def test_eighty_percent_missing(self):
        rng = np.random.default_rng(0)
        table = Table({
            "a": [f"v{rng.integers(0, 2)}" for _ in range(60)],
            "b": [f"w{rng.integers(0, 2)}" for _ in range(60)],
            "c": list(rng.normal(0, 1, 60)),
        })
        corruption = inject_mcar(table, 0.8, np.random.default_rng(1))
        imputed = GrimpImputer(GrimpConfig(**TINY)).impute(corruption.dirty)
        assert imputed.missing_fraction() == 0.0

    def test_validation_fraction_zero(self):
        table = Table({"a": ["x", "y"] * 15, "b": ["1", MISSING] * 15})
        config = GrimpConfig(validation_fraction=0.0, **TINY)
        imputed = GrimpImputer(config).impute(table)
        assert imputed.missing_fraction() == 0.0
