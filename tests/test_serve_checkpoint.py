"""Tests for checkpoint save/load and the inference engine."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import MISSING, Table, read_csv, write_csv
from repro.fd import FunctionalDependency
from repro.serve.checkpoint import _config_from_json, _config_to_json
from repro.serve import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    InferenceEngine,
    load_checkpoint,
    load_imputer,
    records_to_table,
    save_checkpoint,
    table_to_records,
)


def structured_table(n_rows=50, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["paris", "rome", "berlin"]
    country_of = {"paris": "france", "rome": "italy", "berlin": "germany"}
    population_of = {"paris": 2.1, "rome": 2.8, "berlin": 3.6}
    chosen = [cities[index] for index in rng.integers(0, 3, n_rows)]
    return Table({
        "city": chosen,
        "country": [country_of[city] for city in chosen],
        "population": [population_of[city] + rng.normal(0, 0.05)
                       for city in chosen],
    })


def fit_imputer(**overrides):
    settings = dict(feature_dim=8, gnn_dim=10, merge_dim=12, epochs=6,
                    patience=6, lr=1e-2, seed=0)
    settings.update(overrides)
    corruption = inject_mcar(structured_table(), 0.15,
                             np.random.default_rng(1))
    imputer = GrimpImputer(GrimpConfig(**settings))
    imputer.impute(corruption.dirty)
    return imputer


def fresh_rows(seed=7, n_rows=12):
    corruption = inject_mcar(structured_table(n_rows=n_rows, seed=seed),
                             0.25, np.random.default_rng(seed))
    return corruption.dirty


@pytest.fixture(scope="module")
def fitted32():
    return fit_imputer(dtype="float32")


@pytest.fixture(scope="module")
def fitted64():
    return fit_imputer(dtype="float64")


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_byte_identical_imputations(self, dtype, tmp_path, request):
        imputer = request.getfixturevalue(f"fitted{dtype[-2:]}")
        path = tmp_path / "model.ckpt"
        save_checkpoint(imputer, path)
        reloaded = load_imputer(path)
        dirty = fresh_rows()
        assert reloaded.impute_new_rows(dirty).to_rows() == \
            imputer.impute_new_rows(dirty).to_rows()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parameters_restored_exactly(self, dtype, tmp_path, request):
        imputer = request.getfixturevalue(f"fitted{dtype[-2:]}")
        path = tmp_path / "model.ckpt"
        save_checkpoint(imputer, path)
        reloaded = load_imputer(path)
        original = dict(imputer.model_.named_parameters())
        restored = dict(reloaded.model_.named_parameters())
        assert set(original) == set(restored)
        for name, parameter in original.items():
            assert restored[name].data.dtype == parameter.data.dtype
            assert np.array_equal(restored[name].data, parameter.data)

    def test_save_via_imputer_methods(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        fitted32.save_checkpoint(path)
        reloaded = GrimpImputer.from_checkpoint(path)
        dirty = fresh_rows()
        assert reloaded.impute_new_rows(dirty).to_rows() == \
            fitted32.impute_new_rows(dirty).to_rows()

    def test_config_round_trips(self, tmp_path):
        imputer = fit_imputer(task_kind="linear",
                              k_strategy="weak_diagonal_fd",
                              fds=(FunctionalDependency(("city",),
                                                        "country"),))
        path = tmp_path / "model.ckpt"
        save_checkpoint(imputer, path)
        reloaded = load_imputer(path)
        assert reloaded.config == imputer.config
        dirty = fresh_rows()
        assert reloaded.impute_new_rows(dirty).to_rows() == \
            imputer.impute_new_rows(dirty).to_rows()

    def test_every_config_field_round_trips(self):
        """Every :class:`GrimpConfig` field survives the manifest, not
        just a hand-picked list (a reloaded ``fanout`` of ``None`` would
        silently switch to exact neighbourhoods)."""
        config = GrimpConfig(
            feature_strategy="embdi", feature_dim=7, train_features=False,
            gnn_dim=9, merge_dim=11, task_kind="linear",
            k_strategy="weak_diagonal_fd",
            fds=(FunctionalDependency(("city",), "country"),),
            augment_fd_edges=True, categorical_loss="focal", epochs=3,
            patience=2, validation_fraction=0.3, corpus_fraction=0.5,
            lr=0.02, batch_size=64, fanout=2, gnn_layer_type="gcn",
            dtype="float64", seed=5, embdi_kwargs={"walks_per_node": 3})
        default = GrimpConfig()
        for field in dataclasses.fields(GrimpConfig):
            assert getattr(config, field.name) != \
                getattr(default, field.name), field.name
        payload = json.loads(json.dumps(_config_to_json(config)))
        assert _config_from_json(payload) == config

    def test_legacy_node_matrix_array_is_ignored(self, fitted32, tmp_path):
        """Checkpoints that still carry the retired per-row
        ``node_matrix`` array load and impute unchanged."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        with np.load(path / "arrays.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        assert "node_matrix" not in arrays
        arrays["node_matrix"] = np.arange(12, dtype=np.int64).reshape(4, 3)
        np.savez(path / "arrays.npz", **arrays)
        dirty = fresh_rows()
        assert load_imputer(path).impute_new_rows(dirty).to_rows() == \
            fitted32.impute_new_rows(dirty).to_rows()

    def test_fresh_process_identical(self, fitted32, tmp_path):
        """A brand-new interpreter must reproduce imputations exactly."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        dirty = fresh_rows()
        dirty_path = tmp_path / "dirty.csv"
        write_csv(dirty, dirty_path)
        expected = fitted32.impute_new_rows(dirty)
        script = (
            "import sys, json\n"
            "from repro.data import read_csv\n"
            "from repro.serve import InferenceEngine\n"
            "engine = InferenceEngine.from_checkpoint(sys.argv[1])\n"
            "imputed = engine.impute_table(read_csv(sys.argv[2]))\n"
            "print(json.dumps(imputed.to_rows()))\n"
        )
        source_root = Path(__file__).resolve().parent.parent / "src"
        environment = dict(os.environ, PYTHONPATH=str(source_root))
        completed = subprocess.run(
            [sys.executable, "-c", script, str(path), str(dirty_path)],
            capture_output=True, text=True, env=environment)
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == \
            json.loads(json.dumps(expected.to_rows()))


class TestFormat:
    def test_manifest_identifies_format(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format"] == CHECKPOINT_FORMAT
        assert manifest["format_version"] == CHECKPOINT_VERSION

    def test_load_checkpoint_exposes_manifest(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        bundle = load_checkpoint(path)
        assert bundle["manifest"]["columns"] == \
            ["city", "country", "population"]
        assert any(name.startswith("param/") for name in bundle["arrays"])

    def test_unfitted_imputer_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            save_checkpoint(GrimpImputer(GrimpConfig()),
                            tmp_path / "model.ckpt")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_imputer(tmp_path / "nope.ckpt")

    def test_version_mismatch_rejected(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = CHECKPOINT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_imputer(path)

    def test_retired_mp_plan_key_is_dropped(self, fitted32, tmp_path):
        """Version-1 manifests written while ``mp_plan`` existed load
        unchanged: the retired key is ignored."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"]["mp_plan"] = True
        (path / "manifest.json").write_text(json.dumps(manifest))
        rows = fresh_rows()
        assert load_imputer(path).impute_new_rows(rows).equals(
            fitted32.impute_new_rows(rows))

    def test_retired_dp_keys_are_dropped(self, fitted32, tmp_path):
        """Version-1 manifests written while data-parallel training
        existed load unchanged: ``dp_shards``/``dp_workers`` are
        ignored."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"]["dp_shards"] = 2
        manifest["config"]["dp_workers"] = 3
        (path / "manifest.json").write_text(json.dumps(manifest))
        rows = fresh_rows()
        assert load_imputer(path).impute_new_rows(rows).equals(
            fitted32.impute_new_rows(rows))

    def test_retired_plan_cache_size_key_is_dropped(self, fitted32,
                                                     tmp_path):
        """Version-1 manifests written while the sampled-subgraph plan
        cache existed load unchanged: ``plan_cache_size`` is
        ignored."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"]["plan_cache_size"] = 16
        (path / "manifest.json").write_text(json.dumps(manifest))
        rows = fresh_rows()
        assert load_imputer(path).impute_new_rows(rows).equals(
            fitted32.impute_new_rows(rows))

    def test_unknown_config_key_rejected(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"]["warp_drive"] = 9
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="'warp_drive'"):
            load_imputer(path)

    def test_results_file_pointed_at_right_api(self, tmp_path):
        """Loading an experiment-results file as a checkpoint names the
        correct loader instead of failing deep in deserialization."""
        from repro.experiments import save_results
        from repro.experiments.runner import ExperimentResult
        results_dir = tmp_path / "results.ckpt"
        results_dir.mkdir()
        save_results([ExperimentResult(
            dataset="flare", algorithm="mode", error_rate=0.2, seed=0,
            accuracy=0.5, rmse=0.1, fill_rate=1.0, seconds=0.1,
            n_test_cells=10)], results_dir / "manifest.json")
        with pytest.raises(CheckpointError, match="load_results"):
            load_imputer(results_dir)

    def test_checkpoint_manifest_rejected_by_results_loader(
            self, fitted32, tmp_path):
        from repro.experiments import load_results
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        with pytest.raises(ValueError, match="load_checkpoint"):
            load_results(path / "manifest.json")


class TestInferenceEngine:
    def test_requires_fitted_imputer(self):
        with pytest.raises(RuntimeError):
            InferenceEngine(GrimpImputer(GrimpConfig()))

    def test_matches_impute_new_rows(self, fitted32, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fitted32, path)
        engine = InferenceEngine.from_checkpoint(path)
        dirty = fresh_rows()
        assert engine.impute_table(dirty).to_rows() == \
            fitted32.impute_new_rows(dirty).to_rows()

    def test_impute_records_fills_missing(self, fitted32):
        engine = InferenceEngine(fitted32)
        imputed = engine.impute_records([
            {"city": "paris", "country": None, "population": 2.1},
            {"city": None, "country": "italy", "population": 2.8},
        ])
        assert imputed[0]["country"] == "france"
        assert all(value is not None for record in imputed
                   for value in record.values())

    def test_stats_accumulate(self, fitted32):
        engine = InferenceEngine(fitted32)
        engine.impute_records([{"city": "paris", "country": None,
                                "population": None}])
        stats = engine.stats()
        assert stats["pinned"] is True
        assert stats["rows_imputed"] == 1
        assert stats["cells_filled"] == 2

    def test_rejects_unknown_columns(self, fitted32):
        engine = InferenceEngine(fitted32)
        with pytest.raises(ValueError, match="unknown column"):
            engine.impute_records([{"city": "paris", "altitude": 42}])


class TestRecordConversion:
    def test_round_trip(self):
        table = Table({"city": ["paris", MISSING],
                       "population": [2.1, MISSING]})
        records = table_to_records(table)
        assert records == [{"city": "paris", "population": 2.1},
                           {"city": None, "population": None}]
        rebuilt = records_to_table(records, ["city", "population"],
                                   table.kinds)
        assert rebuilt.to_rows() == table.to_rows()

    def test_numeric_strings_coerced(self):
        table = records_to_table([{"population": "3.5"}], ["population"],
                                 {"population": "numerical"})
        assert table.get(0, "population") == 3.5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            records_to_table([], ["city"], {"city": "categorical"})
