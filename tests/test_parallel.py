"""Tests for ``repro.parallel``: seed spawning and shared-memory
packing (``ShardPool`` is covered in ``test_distributed.py``)."""

import numpy as np
import pytest

from repro.parallel import SharedArrays, attach_shared, spawn_seeds


class TestSpawnSeeds:
    def test_deterministic_sequence(self):
        a = spawn_seeds(np.random.default_rng(0), 4)
        b = spawn_seeds(np.random.default_rng(0), 4)
        draws_a = [np.random.default_rng(s).random(3) for s in a]
        draws_b = [np.random.default_rng(s).random(3) for s in b]
        for left, right in zip(draws_a, draws_b):
            assert np.array_equal(left, right)

    def test_children_are_independent(self):
        seeds = spawn_seeds(np.random.default_rng(0), 3)
        draws = [np.random.default_rng(s).random(8) for s in seeds]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])


class TestSharedArrays:
    def test_round_trip(self):
        arrays = {"a": np.arange(12, dtype=np.int64).reshape(3, 4),
                  "b": np.linspace(0, 1, 5, dtype=np.float32)}
        pack = SharedArrays(arrays)
        try:
            views = attach_shared(pack.specs())
            for name, original in arrays.items():
                assert views[name].dtype == original.dtype
                assert np.array_equal(views[name], original)
        finally:
            pack.close()

    def test_close_is_idempotent(self):
        pack = SharedArrays({"x": np.ones(3)})
        pack.close()
        pack.close()

