"""Skip-gram with negative sampling (word2vec/SGNS) in plain numpy.

This is the embedding learner behind the EmbDI substitute: random-walk
"sentences" over the table graph are fed to SGNS exactly as EmbDI feeds
them to word2vec.  Updates are hand-derived (no autograd) for speed.

The implementation is fully vectorized:

* **pair extraction** — window pairs come from offset arithmetic over
  the padded walk matrix (one shifted view per offset) instead of a
  Python triple loop, in exactly the historical (walk, position,
  context) order;
* **negative sampling** — an :class:`AliasSampler` built once from the
  noise distribution draws negatives in O(1) per sample, replacing the
  O(vocab) ``rng.choice(p=...)`` inverse-CDF call per batch;
* **gradient accumulation** — per-row gradient means are computed with
  ``np.bincount`` over the batch's *unique* rows, replacing an
  ``np.add.at`` scatter into a full ``(vocab, dim)`` scratch matrix
  per batch.
"""

from __future__ import annotations

import numpy as np

from ..tensor import get_default_dtype

__all__ = ["SkipGram", "AliasSampler"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class AliasSampler:
    """O(1) sampling from a fixed categorical distribution (Vose).

    Construction walks the distribution once; every draw afterwards is
    one uniform integer, one uniform float, and one table lookup —
    independent of the vocabulary size.
    """

    def __init__(self, probabilities: np.ndarray):
        probabilities = np.asarray(probabilities, dtype=np.float64)  # repro: noqa[RPR001] -- probability table, needs full precision; O(vocab) not O(vocab x dim)
        if probabilities.ndim != 1 or probabilities.shape[0] == 0:
            raise ValueError("need a non-empty 1-D probability vector")
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        n = probabilities.shape[0]
        scaled = probabilities * (n / total)
        self.n = n
        self.prob = np.ones(n, dtype=np.float64)  # repro: noqa[RPR001] -- alias acceptance thresholds, needs full precision
        self.alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            self.prob[lo] = scaled[lo]
            self.alias[lo] = hi
            scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
            (small if scaled[hi] < 1.0 else large).append(hi)
        # Leftovers are 1.0 up to rounding; keep their self-alias.

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Sample ``size`` (int or shape tuple) indices."""
        columns = rng.integers(0, self.n, size=size)
        accept = rng.random(size=size) < self.prob[columns]
        return np.where(accept, columns, self.alias[columns])


class SkipGram:
    """SGNS embedding trainer over an integer vocabulary.

    Parameters
    ----------
    vocab_size:
        Number of distinct tokens (graph nodes).
    dim:
        Embedding dimensionality.
    negatives:
        Negative samples per positive pair.
    """

    def __init__(self, vocab_size: int, dim: int = 32, negatives: int = 5,
                 seed: int = 0):
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self.dim = dim
        self.negatives = negatives
        self._rng = np.random.default_rng(seed)
        dtype = get_default_dtype()
        scale = 1.0 / dim
        self.in_vectors = self._rng.uniform(
            -scale, scale, (vocab_size, dim)).astype(dtype, copy=False)
        self.out_vectors = np.zeros((vocab_size, dim), dtype=dtype)

    def _noise_distribution(self, counts: np.ndarray) -> np.ndarray:
        weights = counts.astype(np.float64) ** 0.75  # repro: noqa[RPR001] -- noise probabilities, needs full precision
        total = weights.sum()
        if total == 0:
            return np.full(self.vocab_size, 1.0 / self.vocab_size,
                           dtype=np.float64)  # repro: noqa[RPR001] -- noise probabilities, needs full precision
        return weights / total

    @staticmethod
    def pairs_from_matrix(matrix: np.ndarray, lengths: np.ndarray,
                          window: int = 3) -> np.ndarray:
        """(center, context) pairs from a padded walk matrix.

        ``matrix`` is ``(n_walks, walk_length)`` with ``-1`` padding
        after each walk's end (as produced by
        :func:`~repro.embeddings.walks.generate_walk_matrix`).  Pair
        order matches the historical Python loop exactly: walk-major,
        then center position, then context position ascending.
        """
        if matrix.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        n_walks, walk_length = matrix.shape
        offsets = [d for d in range(-window, window + 1) if d != 0]
        contexts = np.full((n_walks, walk_length, len(offsets)), -1,
                           dtype=np.int64)
        for slot, offset in enumerate(offsets):
            if offset < 0:
                contexts[:, -offset:, slot] = matrix[:, :offset]
            elif offset < walk_length:
                contexts[:, :walk_length - offset, slot] = matrix[:, offset:]
        centers = np.broadcast_to(matrix[:, :, None], contexts.shape)
        valid = (centers >= 0) & (contexts >= 0)
        pairs = np.empty((int(valid.sum()), 2), dtype=np.int64)
        pairs[:, 0] = centers[valid]
        pairs[:, 1] = contexts[valid]
        return pairs

    @staticmethod
    def pairs_from_walks(walks: list[list[int]], window: int = 3) -> np.ndarray:
        """Extract (center, context) pairs from ragged walk sentences."""
        if not walks:
            return np.empty((0, 2), dtype=np.int64)
        lengths = np.fromiter((len(walk) for walk in walks),
                              count=len(walks), dtype=np.int64)
        matrix = np.full((len(walks), int(lengths.max())), -1,
                         dtype=np.int64)
        for row, walk in enumerate(walks):
            matrix[row, :len(walk)] = walk
        return SkipGram.pairs_from_matrix(matrix, lengths, window=window)

    def train(self, pairs: np.ndarray, epochs: int = 3, lr: float = 0.05,
              batch_size: int = 512) -> "SkipGram":
        """Run SGNS updates over the (center, context) pairs.

        The learning rate decays linearly to 10% of its initial value
        over the epochs, as in word2vec.
        """
        if pairs.size == 0:
            return self
        counts = np.bincount(pairs[:, 1], minlength=self.vocab_size)
        sampler = AliasSampler(self._noise_distribution(counts))
        n_pairs = pairs.shape[0]
        steps_per_epoch = (n_pairs + batch_size - 1) // batch_size
        total_steps = max(1, epochs * steps_per_epoch)
        step = 0
        for _ in range(epochs):
            order = self._rng.permutation(n_pairs)
            for start in range(0, n_pairs, batch_size):
                batch = pairs[order[start:start + batch_size]]
                rate = lr * max(0.1, 1.0 - step / total_steps)
                _update_batch(self.in_vectors, self.out_vectors, batch,
                              sampler, self.negatives, rate, self._rng)
                step += 1
        return self

    def vectors(self) -> np.ndarray:
        """Final embeddings (input vectors, the word2vec convention)."""
        return self.in_vectors


def _scatter_mean(matrix: np.ndarray, rows: np.ndarray,
                  grads: np.ndarray, lr: float) -> None:
    """``matrix[row] -= lr * mean(grads at row)`` for every touched row.

    Equivalent to the historical full-matrix ``np.add.at`` scatter plus
    per-row count division, but runs over the batch's unique rows only:
    one flat ``np.bincount`` over compact (row, column) bins, so the
    cost scales with the batch — not with the vocabulary.
    """
    unique, inverse = np.unique(rows, return_inverse=True)
    n_unique, dim = unique.shape[0], grads.shape[1]
    bins = inverse[:, None] * dim + np.arange(dim)
    accumulated = np.bincount(bins.ravel(), weights=grads.ravel(),
                              minlength=n_unique * dim) \
        .reshape(n_unique, dim)
    counts = np.bincount(inverse, minlength=n_unique)
    matrix[unique] -= (lr * accumulated / counts[:, None]).astype(
        matrix.dtype, copy=False)


def _update_batch(in_vectors: np.ndarray, out_vectors: np.ndarray,
                  batch: np.ndarray, sampler: AliasSampler,
                  negatives: int, lr: float,
                  rng: np.random.Generator) -> None:
    centers, contexts = batch[:, 0], batch[:, 1]
    b = centers.shape[0]
    negative_ids = sampler.draw(rng, (b, negatives))
    v = in_vectors[centers]                            # (b, d)
    u_pos = out_vectors[contexts]                      # (b, d)
    u_neg = out_vectors[negative_ids]                  # (b, k, d)

    score_pos = _sigmoid(np.einsum("bd,bd->b", v, u_pos))       # (b,)
    score_neg = _sigmoid(np.einsum("bd,bkd->bk", v, u_neg))     # (b, k)

    grad_pos = (score_pos - 1.0)[:, None]              # (b, 1)
    grad_neg = score_neg[:, :, None]                   # (b, k, 1)

    grad_v = grad_pos * u_pos + (grad_neg * u_neg).sum(axis=1)
    grad_u_pos = grad_pos * v
    grad_u_neg = grad_neg * v[:, None, :]

    # Average the accumulated gradient per embedding row; otherwise a
    # small vocabulary receives hundreds of summed per-pair updates in
    # one step and the embeddings diverge.
    dim = in_vectors.shape[1]
    _scatter_mean(in_vectors, centers, grad_v, lr)
    _scatter_mean(out_vectors, contexts, grad_u_pos, lr)
    _scatter_mean(out_vectors, negative_ids.reshape(-1),
                  grad_u_neg.reshape(-1, dim), lr)

