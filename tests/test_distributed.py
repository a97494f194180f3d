"""Tests for `repro.distributed`: data-parallel sharded GNN training.

Four layers of guarantees, bottom-up:

* The building blocks hold their contracts: `ShardPool` returns
  results in task order with per-worker persistent state, `Adam`
  round-trips its moment state, `Tracer.record` folds externally
  timed work into the aggregate, and `epoch_shards` partitions every
  epoch's schedule worker-count-independently.
* `GrimpConfig` validates the dp knobs (`dp_shards` requires
  `fanout`, `dp_workers` requires `dp_shards`).
* The end-to-end bit contracts: `dp_shards=1` reproduces the serial
  sampled fit exactly (same loss history, same imputed cells), and a
  fixed `dp_shards` produces identical bits for every `dp_workers`.
* The integration surface: CLI flags, registry gating, and the
  `fit/train/epoch/shard/*` telemetry spans.
"""

import numpy as np
import pytest

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import Table
from repro.distributed import PHASES, shard, train_shard
from repro.nn import Adam, Parameter
from repro.parallel import (BENCH_CORES_ENV, ShardPool,
                            schedulable_cores)
from repro.sampling import MinibatchIterator
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
        monkeypatch.setattr(shard.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(shard, "_pages_kept", False)
        shard.keep_freed_pages()
        shard.keep_freed_pages()
        assert libc.calls == [(-3, 1 << 30), (-1, 1 << 30)]

    def test_silent_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(shard.ctypes, "CDLL", lambda name: object())
        monkeypatch.setattr(shard, "_pages_kept", False)
        shard.keep_freed_pages()
        shard.keep_freed_pages()

    def test_silent_without_libc(self, monkeypatch):
        def missing(name):
            raise OSError("no C library")
        monkeypatch.setattr(shard.ctypes, "CDLL", missing)
        monkeypatch.setattr(shard, "_pages_kept", False)
        shard.keep_freed_pages()

    def test_real_libc_call_is_safe_twice(self, monkeypatch):
        monkeypatch.setattr(shard, "_pages_kept", False)
        shard.keep_freed_pages()
        shard.keep_freed_pages()

    def test_step_applies_the_setting(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shard, "keep_freed_pages",
                            lambda: calls.append(1))
        config = GrimpConfig(feature_dim=8, gnn_dim=8, merge_dim=8,
                             epochs=2, patience=2, seed=0)
        corruption = inject_mcar(structured_table(), 0.2,
                                 np.random.default_rng(1))
        GrimpImputer(config).impute(corruption.dirty)
        assert len(calls) == 2  # one full-graph step per epoch


# ---------------------------------------------------------------------------
# ShardPool
# ---------------------------------------------------------------------------

def _double(task, views, state):
    return task * 2


def _with_state(task, views, state):
    return task + state["offset"] + int(views["base"][0])


def _make_state(views, payload):
    return {"offset": payload["offset"]}


def _fail_on_three(task, views, state):
    if task == 3:
        raise ValueError("task three is cursed")
    return task


class TestShardPool:
    def test_serial_path_runs_in_process(self):
        with ShardPool(_double, workers=1) as pool:
            assert pool.run([1, 2, 3]) == [2, 4, 6]

    def test_results_in_task_order(self):
        with ShardPool(_double, workers=2) as pool:
            assert pool.run(range(20)) == [2 * n for n in range(20)]

    def test_init_state_and_shared_views_reach_fn(self):
        shared = {"base": np.array([10.0])}
        with ShardPool(_with_state, workers=2, shared=shared,
                       init_fn=_make_state,
                       payload={"offset": 100}) as pool:
            assert pool.run([1, 2]) == [111, 112]
        with ShardPool(_with_state, workers=1, shared=shared,
                       init_fn=_make_state,
                       payload={"offset": 100}) as pool:
            assert pool.run([1, 2]) == [111, 112]

    def test_task_error_surfaces_without_killing_pool(self):
        with ShardPool(_fail_on_three, workers=2) as pool:
            with pytest.raises(RuntimeError, match="task 1 failed"):
                pool.run([1, 3, 5])
            # The workers survived the failure and keep serving.
            assert pool.run([7, 8]) == [7, 8]

    def test_close_is_idempotent_and_run_after_close_raises(self):
        pool = ShardPool(_double, workers=2)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([1])


class TestSchedulableCores:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(BENCH_CORES_ENV, "7")
        assert schedulable_cores() == 7

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(BENCH_CORES_ENV, "zero")
        with pytest.raises(ValueError, match=BENCH_CORES_ENV):
            schedulable_cores()
        monkeypatch.setenv(BENCH_CORES_ENV, "0")
        with pytest.raises(ValueError, match=BENCH_CORES_ENV):
            schedulable_cores()

    def test_detects_at_least_one_core(self, monkeypatch):
        monkeypatch.delenv(BENCH_CORES_ENV, raising=False)
        assert schedulable_cores() >= 1


# ---------------------------------------------------------------------------
# Adam state round-trip
# ---------------------------------------------------------------------------

class TestAdamState:
    def build(self):
        parameters = [Parameter(np.ones((2, 3))), Parameter(np.ones(4))]
        return Adam(parameters, lr=0.1), parameters

    def test_round_trip_restores_moments_and_clock(self):
        optimizer, parameters = self.build()
        for parameter in parameters:
            parameter.grad = np.full_like(parameter.data, 0.5)
        optimizer.step()
        optimizer.step()
        state = optimizer.get_state()
        assert state["step_count"] == 2

        fresh, fresh_parameters = self.build()
        fresh.set_state(state)
        restored = fresh.get_state()
        assert restored["step_count"] == 2
        for left, right in zip(state["first_moment"],
                               restored["first_moment"]):
            np.testing.assert_array_equal(left, right)
        for left, right in zip(state["second_moment"],
                               restored["second_moment"]):
            np.testing.assert_array_equal(left, right)

    def test_get_state_returns_copies(self):
        optimizer, parameters = self.build()
        for parameter in parameters:
            parameter.grad = np.full_like(parameter.data, 0.5)
        optimizer.step()
        state = optimizer.get_state()
        state["first_moment"][0][...] = 99.0
        assert not np.any(optimizer.get_state()["first_moment"][0] == 99.0)

    def test_set_state_validates_shapes(self):
        optimizer, _ = self.build()
        state = optimizer.get_state()
        state["first_moment"] = state["first_moment"][:1]
        with pytest.raises(ValueError):
            optimizer.set_state(state)
        optimizer2, _ = self.build()
        bad = optimizer2.get_state()
        bad["second_moment"][0] = np.zeros((9, 9))
        with pytest.raises(ValueError):
            optimizer2.set_state(bad)


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
# Shard partition of the minibatch schedule
# ---------------------------------------------------------------------------

class TestEpochShards:
    def iterator(self):
        return MinibatchIterator([40, 33, 7], batch_size=8, seed=123)

    def test_single_shard_is_the_epoch_exactly(self):
        # Fresh iterators per call: SeedSequence spawning is stateful,
        # and training computes each epoch's schedule exactly once.
        for epoch in (0, 3):
            (shard,) = self.iterator().epoch_shards(epoch, 1)
            expected = self.iterator().epoch(epoch)
            assert len(shard) == len(expected)
            for left, right in zip(shard, expected):
                assert left.task == right.task
                np.testing.assert_array_equal(left.rows, right.rows)
                assert left.seed.entropy == right.seed.entropy
                assert left.seed.spawn_key == right.seed.spawn_key

    def test_shards_partition_the_epoch(self):
        iterator = self.iterator()
        shards = iterator.epoch_shards(1, 4)
        assert len(shards) == 4
        flattened = [batch for shard in shards for batch in shard]
        assert len(flattened) == iterator.n_batches
        keys = sorted((batch.task, tuple(batch.rows))
                      for batch in flattened)
        expected = sorted((batch.task, tuple(batch.rows))
                          for batch in self.iterator().epoch(1))
        assert keys == expected

    def test_assignment_is_epoch_independent(self):
        iterator = self.iterator()
        assignment = iterator.shard_assignment(3)
        np.testing.assert_array_equal(assignment,
                                      iterator.shard_assignment(3))

        def shard_contents(epoch):
            return [sorted((batch.task, tuple(batch.rows))
                           for batch in shard)
                    for shard in iterator.epoch_shards(epoch, 3)]

        assert shard_contents(0) == shard_contents(5)

    def test_more_shards_than_chunks_leaves_empties(self):
        iterator = MinibatchIterator([4], batch_size=8, seed=0)
        shards = iterator.epoch_shards(0, 5)
        assert len(shards) == 5
        assert sum(len(shard) for shard in shards) == 1

    def test_invalid_dp_shards_rejected(self):
        with pytest.raises(ValueError, match="dp_shards"):
            self.iterator().shard_assignment(0)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestDpConfig:
    def test_dp_shards_requires_batch_size(self):
        with pytest.raises(ValueError,
                           match="dp_shards requires batch_size"):
            GrimpConfig(dp_shards=2)
        # Without a fanout the shards train on exact neighborhoods.
        assert GrimpConfig(batch_size=16, dp_shards=2).dp_shards == 2

    def test_dp_workers_requires_dp_shards(self):
        with pytest.raises(ValueError, match="dp_workers requires"):
            GrimpConfig(dp_workers=2, batch_size=8, fanout=2)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="dp_shards"):
            GrimpConfig(dp_shards=0, batch_size=8, fanout=2)
        with pytest.raises(ValueError, match="dp_workers"):
            GrimpConfig(dp_shards=2, dp_workers=0, batch_size=8, fanout=2)

    def test_valid_combination_accepted(self):
        config = GrimpConfig(dp_shards=4, dp_workers=2, batch_size=8,
                             fanout=2)
        assert config.dp_shards == 4 and config.dp_workers == 2


# ---------------------------------------------------------------------------
# End-to-end bit contracts
# ---------------------------------------------------------------------------

DP_DIMS = dict(feature_dim=12, gnn_dim=16, merge_dim=16, epochs=3,
               patience=3, lr=1e-2, seed=0, batch_size=16, fanout=2)


def run_fit(dp_shards=None, dp_workers=None, **overrides):
    config = GrimpConfig(dp_shards=dp_shards, dp_workers=dp_workers,
                         **{**DP_DIMS, **overrides})
    corruption = inject_mcar(structured_table(), 0.2,
                             np.random.default_rng(1))
    imputer = GrimpImputer(config)
    imputed = imputer.impute(corruption.dirty)
    cells = [imputed.get(row, column)
             for column in imputed.column_names
             for row in range(imputed.n_rows)]
    return imputer, cells


class TestDataParallelParity:
    def test_single_shard_matches_serial_bits(self):
        serial, serial_cells = run_fit()
        dp, dp_cells = run_fit(dp_shards=1)
        assert dp.history_ == serial.history_
        assert dp_cells == serial_cells

    def test_single_shard_without_fanout_matches_serial_bits(self):
        serial, serial_cells = run_fit(fanout=None)
        dp, dp_cells = run_fit(dp_shards=1, fanout=None)
        assert dp.history_ == serial.history_
        assert dp_cells == serial_cells

    def test_worker_count_does_not_change_bits(self):
        one, one_cells = run_fit(dp_shards=4, dp_workers=1)
        two, two_cells = run_fit(dp_shards=4, dp_workers=2)
        assert one.history_ == two.history_
        assert one_cells == two_cells

    def test_repro_workers_env_does_not_change_bits(self, monkeypatch):
        # dp_workers=None resolves through $REPRO_WORKERS; the resolved
        # count must stay pure scheduling.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        default, default_cells = run_fit(dp_shards=4)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        env, env_cells = run_fit(dp_shards=4)
        assert env.timings_["meta"]["sampling"]["dp"]["workers"] == 3
        assert env.history_ == default.history_
        assert env_cells == default_cells

    def test_constant_features_path_holds_parity(self):
        serial, serial_cells = run_fit(train_features=False)
        dp, dp_cells = run_fit(dp_shards=1, train_features=False)
        assert dp.history_ == serial.history_
        assert dp_cells == serial_cells

    def test_fills_every_cell_and_reports_dp_meta(self):
        imputer, _ = run_fit(dp_shards=3, dp_workers=2)
        meta = imputer.timings_["meta"]["sampling"]["dp"]
        assert meta["shards"] == 3
        assert meta["workers"] == 2
        assert len(meta["plan_caches"]) == 3

    def test_workers_clamped_to_shards(self):
        imputer, _ = run_fit(dp_shards=2, dp_workers=4)
        assert imputer.timings_["meta"]["sampling"]["dp"]["workers"] == 2


class TestDpTelemetry:
    def test_shard_spans_present(self):
        imputer, _ = run_fit(dp_shards=2, dp_workers=1)
        timings = imputer.timings_
        assert timings["fit/dp_setup"]["count"] == 1
        shard = timings["fit/train/epoch/shard"]
        assert shard["count"] == len(imputer.history_)
        assert timings["fit/train/epoch/shard/reduce"]["count"] == \
            shard["count"]
        for phase in PHASES:
            key = f"fit/train/epoch/shard/{phase}"
            assert timings[key]["count"] > 0, key

    def test_serial_fit_has_no_dp_spans(self):
        imputer, _ = run_fit()
        timings = imputer.timings_
        assert timings["fit/dp_setup"]["count"] == 0
        assert timings["fit/train/epoch/shard"]["count"] == 0


# ---------------------------------------------------------------------------
# CLI and registry integration
# ---------------------------------------------------------------------------

class TestCliAndRegistry:
    def test_parser_accepts_dp_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["impute", "in.csv", "out.csv", "--batch-size", "32",
             "--fanout", "2", "--dp-shards", "4", "--dp-workers", "2"])
        assert args.dp_shards == 4 and args.dp_workers == 2
        defaults = build_parser().parse_args(
            ["impute", "in.csv", "out.csv"])
        assert defaults.dp_shards is None and defaults.dp_workers is None

    def test_registry_threads_dp_knobs_into_config(self):
        from repro.experiments import make_imputer
        imputer = make_imputer("grimp-ft", batch_size=16, fanout=2,
                               dp_shards=4, dp_workers=2)
        assert imputer.config.dp_shards == 4
        assert imputer.config.dp_workers == 2

    def test_registry_rejects_dp_knobs_for_non_grimp(self):
        from repro.experiments import make_imputer
        with pytest.raises(ValueError, match="dp_shards/dp_workers"):
            make_imputer("mode", dp_shards=2)


class TestTrainShardValidation:
    def test_no_real_seed_batch_trains_on_zero_vectors(self):
        # A batch whose context is entirely masked must still step (on
        # zero vectors), exactly like the serial sampled path does —
        # skipping it would desynchronize the Adam clock across shards.
        imputer, cells = run_fit(dp_shards=1)
        assert train_shard is not None  # re-exported for the trainer
        assert all(cell is not None for cell in cells)
