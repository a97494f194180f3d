"""Deterministic process-pool primitives: a seeded :class:`ShardPool`
over shared-memory numpy arrays with a serial fallback at ``workers=1``.

Nothing in :mod:`repro` starts a pool today; the EmbDI pre-compute and
training run in one process.  Alongside :mod:`repro.serve` (which owns
threads only), this is the sanctioned home for process primitives
(lint rule RPR004): any other package that parallelizes does so by
*describing shards* and handing them to :class:`ShardPool`, never by
spawning processes or threads itself.
"""

from .pool import (BENCH_CORES_ENV, SharedArrays, ShardPool, attach_shared,
                   pool_context, schedulable_cores, spawn_seeds)

__all__ = [
    "BENCH_CORES_ENV",
    "SharedArrays",
    "ShardPool",
    "attach_shared",
    "pool_context",
    "schedulable_cores",
    "spawn_seeds",
]
