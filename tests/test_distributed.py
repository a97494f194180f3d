"""Tests for the one training step and one-process sampled training.

Sampled training and the EmbDI pre-compute run in one process:

* the one training step applies the allocator setting, and a sampled
  epoch steps every scheduled batch — even one with no real context;
* `Tracer.record` folds externally timed work into the aggregate;
* a fit reports no data-parallel phases.
"""

import numpy as np
import pytest

import repro.core.step as step_module
from repro.core import GrimpConfig, GrimpImputer
from repro.core import trainer as trainer_module
from repro.corruption import inject_mcar
from repro.data import Table
from repro.telemetry import Tracer


def structured_table(n_rows=40, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["paris", "rome", "berlin"]
    country_of = {"paris": "france", "rome": "italy", "berlin": "germany"}
    chosen = [cities[index] for index in rng.integers(0, 3, n_rows)]
    return Table({
        "city": chosen,
        "country": [country_of[city] for city in chosen],
        "population": [float(index % 7) for index in range(n_rows)],
    })


# ---------------------------------------------------------------------------
# The allocator setting every training step applies
# ---------------------------------------------------------------------------

class _CountingLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestKeepFreedPages:
    def test_second_call_is_a_no_op(self, monkeypatch):
        libc = _CountingLibc()
        monkeypatch.setattr(step_module.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(step_module, "_pages_kept", False)
        step_module.keep_freed_pages()
        step_module.keep_freed_pages()
        assert libc.calls == [(-3, 1 << 30), (-1, 1 << 30)]

    def test_silent_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(step_module.ctypes, "CDLL", lambda name: object())
        monkeypatch.setattr(step_module, "_pages_kept", False)
        step_module.keep_freed_pages()
        step_module.keep_freed_pages()

    def test_silent_without_libc(self, monkeypatch):
        def missing(name):
            raise OSError("no C library")
        monkeypatch.setattr(step_module.ctypes, "CDLL", missing)
        monkeypatch.setattr(step_module, "_pages_kept", False)
        step_module.keep_freed_pages()

    def test_real_libc_call_is_safe_twice(self, monkeypatch):
        monkeypatch.setattr(step_module, "_pages_kept", False)
        step_module.keep_freed_pages()
        step_module.keep_freed_pages()

    def test_step_applies_the_setting(self, monkeypatch):
        calls = []
        monkeypatch.setattr(step_module, "keep_freed_pages",
                            lambda: calls.append(1))
        config = GrimpConfig(feature_dim=8, gnn_dim=8, merge_dim=8,
                             epochs=2, patience=2, seed=0)
        corruption = inject_mcar(structured_table(), 0.2,
                                 np.random.default_rng(1))
        GrimpImputer(config).impute(corruption.dirty)
        assert len(calls) == 2  # one full-graph step per epoch


# ---------------------------------------------------------------------------
# Tracer.record
# ---------------------------------------------------------------------------

class TestTracerRecord:
    def test_folds_into_aggregate_under_current_path(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            tracer.record("sample", 0.25, count=10)
            tracer.record("sample", 0.75, count=30)
        aggregate = tracer.aggregate()
        assert aggregate["epoch/sample"]["seconds"] == pytest.approx(1.0)
        assert aggregate["epoch/sample"]["count"] == 40

    def test_rejects_bad_input(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record("a/b", 1.0)
        with pytest.raises(ValueError):
            tracer.record("ok", -1.0)

    def test_respects_max_spans(self):
        tracer = Tracer(max_spans=0)
        tracer.record("work", 1.0)
        assert tracer.spans() == []
        assert tracer.aggregate()["work"]["seconds"] == 1.0


# ---------------------------------------------------------------------------
# Serial sampled training
# ---------------------------------------------------------------------------

SAMPLED_DIMS = dict(feature_dim=12, gnn_dim=16, merge_dim=16, epochs=3,
                    patience=3, lr=1e-2, seed=0, batch_size=16, fanout=2)


def run_fit(table=None, **overrides):
    corruption = inject_mcar(table or structured_table(), 0.2,
                             np.random.default_rng(1))
    imputer = GrimpImputer(GrimpConfig(**{**SAMPLED_DIMS, **overrides}))
    imputed = imputer.impute(corruption.dirty)
    cells = [imputed.get(row, column)
             for column in imputed.column_names
             for row in range(imputed.n_rows)]
    return imputer, cells


class TestDpTelemetry:
    def test_serial_fit_has_no_dp_spans(self):
        imputer, _ = run_fit()
        timings = imputer.timings_
        assert "fit/dp_setup" not in timings
        assert not any("/shard" in path for path in timings)
        assert "dp" not in timings["meta"]["sampling"]
        assert timings["fit/train/epoch/batch"]["count"] > 0


class TestTrainShardValidation:
    def test_no_real_seed_batch_trains_on_zero_vectors(self, monkeypatch):
        # A batch whose context is entirely masked must still step (on
        # zero vectors), like every other batch — skipping it would
        # shift the Adam clock of every later step.
        table = structured_table()
        for row in range(0, table.n_rows, 5):
            table.set(row, "country", None)
            table.set(row, "population", None)
        steps, contextless = [], []
        real_step, real_inputs = trainer_module.step, \
            trainer_module.sampled_inputs

        def counting_step(*args, **kwargs):
            # Training samples a batch, then steps on it.
            steps.append(contextless[-1])
            return real_step(*args, **kwargs)

        def spying_inputs(*args, **kwargs):
            inputs = real_inputs(*args, **kwargs)
            contextless.append(inputs[0] is None)
            return inputs

        monkeypatch.setattr(trainer_module, "step", counting_step)
        monkeypatch.setattr(trainer_module, "sampled_inputs", spying_inputs)
        imputer, cells = run_fit(table, batch_size=1)
        sampling = imputer.timings_["meta"]["sampling"]
        assert len(steps) == len(imputer.history_) * sampling["n_batches"]
        assert any(steps)
        assert all(cell is not None for cell in cells)
