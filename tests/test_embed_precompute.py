"""Tests for the embedding pre-compute kernels and cache.

Covers the CSR walk kernel (frozen snapshot, batched weighted steps),
the vectorized SGNS pieces (pair extraction, alias negatives, compact
gradient scatter) against straightforward reference implementations,
same-seed determinism, the embedder's parameter validation, and the
content-hash embedding cache.
"""

import numpy as np
import pytest

from repro.data import MISSING, Table
from repro.embeddings import (
    AliasSampler,
    EmbdiEmbedder,
    EmbeddingCache,
    SkipGram,
    build_walk_graph,
    embedding_cache_key,
    generate_walk_matrix,
    generate_walks,
    walks_to_lists,
)
from repro.embeddings.sgns import _scatter_mean
from repro.embeddings.walks import WalkGraph
from repro.graph import build_table_graph
from repro.tensor import default_dtype


@pytest.fixture
def dirty_table():
    return Table({
        "city": ["paris", "paris", MISSING, "rome", "rome", "oslo"],
        "country": ["france", MISSING, "france", "italy", MISSING, "norway"],
    })


@pytest.fixture
def walk_setup(dirty_table):
    table_graph = build_table_graph(dirty_table)
    walk_graph = build_walk_graph(table_graph, dirty_table)
    return table_graph, walk_graph


class TestFrozenWalkGraph:
    def test_keys_are_globally_sorted(self, walk_setup):
        _, walk_graph = walk_setup
        frozen = walk_graph.freeze()
        assert np.all(np.diff(frozen.keys) > 0)
        # Each node's segment ends exactly at owner + 1.
        indptr = frozen.indptr
        for node in range(indptr.shape[0] - 1):
            if indptr[node + 1] > indptr[node]:
                assert frozen.keys[indptr[node + 1] - 1] \
                    == pytest.approx(node + 1.0)

    def test_step_matches_edge_weights(self):
        graph = WalkGraph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 9.0)
        frozen = graph.freeze()
        rng = np.random.default_rng(0)
        n = 20_000
        successors = frozen.step(np.zeros(n, dtype=np.int64), rng.random(n))
        assert set(np.unique(successors)) == {1, 2}
        share_heavy = float(np.mean(successors == 2))
        assert share_heavy == pytest.approx(0.9, abs=0.02)

    def test_step_dead_end(self):
        graph = WalkGraph(2)
        graph.add_edge(0, 1, 1.0)  # node 1 has no outgoing edges
        frozen = graph.freeze()
        successors = frozen.step(np.array([1, 0], dtype=np.int64),
                                 np.array([0.5, 0.5]))
        assert successors[0] == -1
        assert successors[1] == 1

    def test_step_draw_near_one_is_clamped(self):
        graph = WalkGraph(2)
        graph.add_edge(0, 1, 1.0)
        frozen = graph.freeze()
        draws = np.array([np.nextafter(1.0, 0.0)])
        successors = frozen.step(np.zeros(1, dtype=np.int64), draws)
        assert successors[0] == 1


class TestWalkDeterminism:
    def test_facade_matches_matrix(self, walk_setup):
        _, walk_graph = walk_setup
        matrix, lengths = generate_walk_matrix(walk_graph, 2, 5,
                                               np.random.default_rng(3))
        listed = generate_walks(walk_graph, 2, 5, np.random.default_rng(3))
        assert walks_to_lists(matrix, lengths) == listed

    def test_lengths_match_padding(self, walk_setup):
        _, walk_graph = walk_setup
        matrix, lengths = generate_walk_matrix(walk_graph, 2, 5,
                                               np.random.default_rng(0))
        assert np.array_equal(lengths, np.count_nonzero(matrix >= 0, axis=1))
        # Padding only ever follows the walk's end.
        for row, length in zip(matrix, lengths):
            assert np.all(row[:length] >= 0)
            assert np.all(row[length:] == -1)


def _reference_pairs(walks, window):
    """The historical triple-loop pair extraction."""
    pairs = []
    for walk in walks:
        for i, center in enumerate(walk):
            lo, hi = max(0, i - window), min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, walk[j]))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


class TestPairExtraction:
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_matches_reference_order_exactly(self, window):
        rng = np.random.default_rng(window)
        walks = [list(rng.integers(0, 20, size=rng.integers(1, 9)))
                 for _ in range(40)]
        vectorized = SkipGram.pairs_from_walks(walks, window=window)
        assert np.array_equal(vectorized, _reference_pairs(walks, window))

    def test_single_token_walks_yield_nothing(self):
        assert SkipGram.pairs_from_walks([[3], [7]], window=2).shape == (0, 2)


class TestAliasSampler:
    def test_matches_target_distribution(self):
        probabilities = np.array([0.5, 0.3, 0.15, 0.05])
        sampler = AliasSampler(probabilities)
        draws = sampler.draw(np.random.default_rng(0), 100_000)
        observed = np.bincount(draws, minlength=4) / draws.shape[0]
        assert np.allclose(observed, probabilities, atol=0.01)

    def test_deterministic_per_seed(self):
        sampler = AliasSampler(np.array([0.25, 0.25, 0.5]))
        a = sampler.draw(np.random.default_rng(5), 64)
        b = sampler.draw(np.random.default_rng(5), 64)
        assert np.array_equal(a, b)

    def test_degenerate_single_outcome(self):
        sampler = AliasSampler(np.array([1.0]))
        assert np.all(sampler.draw(np.random.default_rng(0), 16) == 0)


class TestScatterMean:
    def test_matches_add_at_reference(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((10, 4))
        rows = rng.integers(0, 10, size=50)
        grads = rng.standard_normal((50, 4))
        lr = 0.1

        expected = matrix.copy()
        accumulated = np.zeros_like(matrix)
        counts = np.zeros(10)
        np.add.at(accumulated, rows, grads)
        np.add.at(counts, rows, 1.0)
        touched = counts > 0
        expected[touched] -= lr * accumulated[touched] \
            / counts[touched, None]

        updated = matrix.copy()
        _scatter_mean(updated, rows, grads, lr)
        assert np.allclose(updated, expected, atol=1e-12)

    def test_untouched_rows_unchanged(self):
        matrix = np.ones((6, 3), dtype=np.float32)
        _scatter_mean(matrix, np.array([2, 2, 4]),
                      np.ones((3, 3), dtype=np.float32), 0.5)
        for row in (0, 1, 3, 5):
            assert np.all(matrix[row] == 1.0)
        assert np.all(matrix[2] != 1.0)
        assert np.all(matrix[4] != 1.0)


class TestShardedTraining:
    def _pairs(self):
        rng = np.random.default_rng(1)
        walks = [list(rng.integers(0, 12, size=8)) for _ in range(60)]
        return SkipGram.pairs_from_walks(walks, window=2)

    def test_serial_training_deterministic(self):
        pairs = self._pairs()
        a = SkipGram(12, dim=8, seed=0).train(pairs, epochs=2)
        b = SkipGram(12, dim=8, seed=0).train(pairs, epochs=2)
        assert np.array_equal(a.vectors(), b.vectors())


class TestEmbedderValidation:
    @pytest.mark.parametrize("name",
                             ["dim", "walks_per_node", "walk_length",
                              "window"])
    def test_rejects_nonpositive_parameter(self, name):
        with pytest.raises(ValueError, match=name):
            EmbdiEmbedder(**{name: 0})


class TestEmbedderParity:
    def test_fit_respects_default_dtype(self, dirty_table):
        with default_dtype("float32"):
            embedder = EmbdiEmbedder(dim=8, walks_per_node=2, walk_length=5,
                                     epochs=1, seed=0).fit(dirty_table)
        assert embedder.node_vectors().dtype == np.float32


class TestEmbeddingCache:
    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_EMBED_CACHE", raising=False)
        cache = EmbeddingCache()
        assert not cache.enabled
        assert cache.load("deadbeef") is None
        cache.store("deadbeef", np.ones((2, 2)))  # no-op, no error

    def test_store_load_round_trip(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        vectors = np.random.default_rng(0).standard_normal((5, 3))
        cache.store("abc123", vectors)
        loaded = cache.load("abc123")
        assert np.array_equal(loaded, vectors)
        assert cache.load("missing") is None

    def test_env_variable_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EMBED_CACHE", str(tmp_path))
        assert EmbeddingCache().enabled

    def test_key_sensitivity(self, dirty_table):
        table_graph = build_table_graph(dirty_table)
        frozen = build_walk_graph(table_graph, dirty_table).freeze()
        config = {"dim": 8, "seed": 0}
        base = embedding_cache_key(dirty_table, frozen, config)
        assert base == embedding_cache_key(dirty_table, frozen, config)
        # Config change → new key.
        assert base != embedding_cache_key(dirty_table, frozen,
                                           {"dim": 16, "seed": 0})
        # Table-value change → new key.
        changed = Table({
            "city": ["paris", "paris", MISSING, "rome", "rome", "lima"],
            "country": ["france", MISSING, "france", "italy", MISSING,
                        "norway"],
        })
        changed_frozen = build_walk_graph(build_table_graph(changed),
                                          changed).freeze()
        assert base != embedding_cache_key(changed, changed_frozen, config)

    def test_fit_hits_cache_on_repeat(self, dirty_table, tmp_path):
        first = EmbdiEmbedder(dim=8, walks_per_node=2, walk_length=5,
                              epochs=1, seed=0,
                              cache_dir=str(tmp_path)).fit(dirty_table)
        files = list(tmp_path.glob("embdi-*.npz"))
        assert len(files) == 1
        second = EmbdiEmbedder(dim=8, walks_per_node=2, walk_length=5,
                               epochs=1, seed=0,
                               cache_dir=str(tmp_path)).fit(dirty_table)
        assert np.array_equal(first.node_vectors(), second.node_vectors())
        # No second artifact was written.
        assert list(tmp_path.glob("embdi-*.npz")) == files

    def test_config_change_misses_cache(self, dirty_table, tmp_path):
        EmbdiEmbedder(dim=8, walks_per_node=2, walk_length=5, epochs=1,
                      seed=0, cache_dir=str(tmp_path)).fit(dirty_table)
        EmbdiEmbedder(dim=8, walks_per_node=2, walk_length=5, epochs=1,
                      seed=1, cache_dir=str(tmp_path)).fit(dirty_table)
        assert len(list(tmp_path.glob("embdi-*.npz"))) == 2
