"""The seed tree: deterministic per-shard seeds for one-process work.

Everything in :mod:`repro` runs in one process, and no package may
start processes or process pools (lint rule RPR004).  What remains
here is the determinism contract that work split into shards relies
on: callers fix a shard plan that depends only on the *problem* and
draw one spawned :class:`numpy.random.SeedSequence` per shard with
:func:`spawn_seeds`, so the result depends on the shard plan alone
(:mod:`repro.sampling.minibatch` and :mod:`repro.embeddings.walks`
build their schedules this way).
"""

import numpy as np

__all__ = ["spawn_seeds"]


def spawn_seeds(rng: np.random.Generator, n: int) -> list:
    """``n`` independent child seed sequences spawned from ``rng``.

    One per *shard* (not per worker): the sequence of children depends
    only on the generator's state, so any worker count replays the
    same per-shard randomness.
    """
    return list(rng.bit_generator.seed_seq.spawn(n))
