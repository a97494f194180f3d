"""Deterministic parallel execution: a seeded process-pool map over
shared-memory numpy arrays with a serial fallback at ``workers=1``.

Alongside :mod:`repro.serve` (which owns threads only), this is the
sanctioned home for process primitives (lint rule RPR004): every other
package parallelizes by *describing shards* and handing them to
:func:`parallel_map`, never by spawning processes or threads itself.
"""

from .pool import (BENCH_CORES_ENV, WORKERS_ENV, SharedArrays, ShardPool,
                   attach_shared, parallel_map, pool_context,
                   resolve_workers, schedulable_cores, spawn_seeds)

__all__ = [
    "WORKERS_ENV",
    "BENCH_CORES_ENV",
    "SharedArrays",
    "ShardPool",
    "attach_shared",
    "parallel_map",
    "pool_context",
    "resolve_workers",
    "schedulable_cores",
    "spawn_seeds",
]
