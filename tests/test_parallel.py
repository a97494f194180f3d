"""Tests for ``repro.parallel``: the per-shard seed tree."""

import numpy as np

from repro.parallel import spawn_seeds


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

