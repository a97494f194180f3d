"""Deterministic minibatch schedules for sampled training.

The iterator's contract is strict bit-reproducibility: for a given
seed, the sequence of batches — which task, which sample rows, and the
per-batch sampling seed — is identical across runs and across machines
(every seed derives from one ``SeedSequence`` tree via
:func:`repro.parallel.spawn_seeds`).

Batch *contents* are fixed once at construction: each task's samples
are permuted once with the schedule's partition seed and cut into
contiguous chunks.  Epochs reshuffle only the *order* in which chunks
are visited.  The contents must stay fixed because the schedule's bits
depend on them: which rows share a batch decides every gradient step,
so re-cutting chunks per epoch would change every fit.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ..parallel import spawn_seeds

__all__ = ["Minibatch", "MinibatchIterator", "contiguous_batches"]


class Minibatch(NamedTuple):
    """One scheduled batch: a task, its sample rows, a sampling seed."""

    #: Index of the imputation task (column) this batch trains.
    task: int
    #: Sorted positions into the task's sample arrays.
    rows: np.ndarray
    #: Seed sequence for this batch's neighbor sampling; tied to the
    #: chunk (not the visit order), so fanout draws are per-batch
    #: independent yet fully determined by the schedule seed.
    seed: np.random.SeedSequence


def contiguous_batches(n: int, batch_size: int) -> Iterator[np.ndarray]:
    """Yield ``[0, n)`` as contiguous index chunks (eval/fill batching)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, int(n), int(batch_size)):
        yield np.arange(start, min(start + int(batch_size), int(n)),
                        dtype=np.int64)


class MinibatchIterator:
    """Deterministic epoch-by-epoch batch schedule over per-task samples.

    Parameters
    ----------
    task_sizes:
        Number of training samples per imputation task (one entry per
        column, in task order).
    batch_size:
        Maximum samples per batch; the last chunk of a task may be
        smaller.
    seed:
        Integer (or ``SeedSequence``) rooting the schedule.  Spawned
        children: one partition seed (fixed chunk contents), then one
        seed per epoch in epoch order.
    """

    def __init__(self, task_sizes: Sequence[int], batch_size: int,
                 seed) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.task_sizes = [int(n) for n in task_sizes]
        if any(n < 0 for n in self.task_sizes):
            raise ValueError("task sizes must be non-negative")
        self.batch_size = int(batch_size)
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(int(seed))
        (partition_seq,) = self._root.spawn(1)
        partition_rng = np.random.default_rng(partition_seq)
        #: Fixed ``(task, rows)`` chunks; index = chunk id for seeding.
        self._chunks: list[tuple[int, np.ndarray]] = []
        for task, size in enumerate(self.task_sizes):
            permutation = partition_rng.permutation(size)
            for start in range(0, size, self.batch_size):
                rows = np.sort(permutation[start:start + self.batch_size])
                self._chunks.append((task, rows.astype(np.int64)))
        self._epoch_seeds: list[np.random.SeedSequence] = []

    @property
    def n_batches(self) -> int:
        """Batches per epoch (constant across epochs)."""
        return len(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)

    def _epoch_seed(self, epoch: int) -> np.random.SeedSequence:
        # Sequential spawn keeps random access deterministic: epoch e
        # always gets the root's child e+1 (child 0 is the partition).
        while len(self._epoch_seeds) <= epoch:
            self._epoch_seeds.extend(self._root.spawn(1))
        return self._epoch_seeds[epoch]

    def epoch(self, epoch: int) -> list[Minibatch]:
        """The ordered batch list for ``epoch`` (0-based).

        Chunk order is shuffled per epoch; each chunk's sampling seed
        is indexed by chunk id, so the same chunk draws the same
        neighborhoods in a given epoch no matter where the shuffle
        placed it.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        epoch_rng = np.random.default_rng(self._epoch_seed(epoch))
        order = epoch_rng.permutation(len(self._chunks))
        batch_seeds = spawn_seeds(epoch_rng, len(self._chunks))
        return [Minibatch(self._chunks[chunk][0], self._chunks[chunk][1],
                          batch_seeds[chunk])
                for chunk in order]
