"""Deterministic seeded process-pool map over shared-memory arrays.

The embedding pre-compute (random walks + SGNS) is embarrassingly
parallel *by shard*, but naive ``multiprocessing`` would pickle the
whole graph into every worker and make results depend on the worker
count.  This module fixes both:

* **shared-memory arrays** — read-only numpy inputs (CSR graphs, walk
  corpora, pair lists) are packed once into POSIX shared memory
  (:class:`SharedArrays`); workers attach zero-copy views by name.
* **deterministic sharding** — callers split work into a shard plan
  that depends only on the *problem* (never on the worker count) and
  draw one spawned :class:`numpy.random.SeedSequence` per shard, so
  ``workers=1`` and ``workers=N`` produce bit-identical results and
  :func:`parallel_map` merely changes how shards are scheduled.
* **serial fallback** — ``workers=1`` (the default) runs every shard
  in-process with no pool, no pickling, and no shared-memory setup;
  the parallel path is pure scheduling on top of the same shard code.

The worker count resolves explicit argument -> ``REPRO_WORKERS`` ->
``1``; the CLI's ``--workers`` flag sets the environment variable so
every embedding layer underneath picks it up.
"""

from __future__ import annotations

import multiprocessing
import os
from queue import Empty

import numpy as np

__all__ = ["WORKERS_ENV", "BENCH_CORES_ENV", "resolve_workers",
           "schedulable_cores", "spawn_seeds", "SharedArrays",
           "attach_shared", "parallel_map", "pool_context",
           "ShardPool"]

#: Environment variable providing the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable overriding the detected core count for
#: core-aware benchmark gating (CI sets it from ``nproc`` so manifests
#: record what the runner actually had).
BENCH_CORES_ENV = "REPRO_BENCH_CORES"


def schedulable_cores() -> int:
    """CPU cores the OS will actually schedule this process on.

    ``REPRO_BENCH_CORES`` overrides detection (benchmark gates use it
    to decide whether a scaling target is measurable or must fall back
    to a don't-regress floor); otherwise the scheduling affinity mask
    is authoritative — containers routinely expose fewer schedulable
    cores than ``os.cpu_count`` reports.
    """
    raw = os.environ.get(BENCH_CORES_ENV, "").strip()
    if raw:
        try:
            cores = int(raw)
        except ValueError:
            raise ValueError(f"{BENCH_CORES_ENV}={raw!r} is not an integer")
        if cores < 1:
            raise ValueError(f"{BENCH_CORES_ENV} must be >= 1, got {cores}")
        return cores
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value -> ``REPRO_WORKERS`` -> 1.

    Values below 1 (or an unparseable environment variable) raise
    ``ValueError`` — silently degrading to serial would hide typos.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer")
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def spawn_seeds(rng: np.random.Generator, n: int) -> list:
    """``n`` independent child seed sequences spawned from ``rng``.

    One per *shard* (not per worker): the sequence of children depends
    only on the generator's state, so any worker count replays the
    same per-shard randomness.
    """
    return list(rng.bit_generator.seed_seq.spawn(n))


class SharedArrays:
    """Read-only numpy arrays packed into named shared-memory blocks.

    Built by the parent before the pool starts; workers attach by name
    with :func:`attach_shared` and get zero-copy views.  The parent
    owns the lifetime: call :meth:`close` (idempotent) once the pool
    has joined.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        from multiprocessing import shared_memory
        self._blocks: list = []
        self._specs: dict[str, tuple[str, tuple[int, ...], str]] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            block = shared_memory.SharedMemory(create=True,
                                               size=max(1, array.nbytes))
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=block.buf)
            view[...] = array
            self._blocks.append(block)
            self._specs[name] = (block.name, array.shape, array.dtype.str)

    def specs(self) -> dict[str, tuple[str, tuple[int, ...], str]]:
        """Picklable ``{name: (shm_name, shape, dtype)}`` attachment map."""
        return dict(self._specs)

    def close(self) -> None:
        """Release and unlink every block (idempotent)."""
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:
                pass


def attach_shared(specs: dict, untrack: bool = False) -> dict[str, np.ndarray]:
    """Attach worker-side views onto a :class:`SharedArrays` pack.

    The attached blocks live for the worker's lifetime (the pool joins
    before the parent unlinks).  On CPython < 3.13 attaching registers
    the segment with a resource tracker; pass ``untrack=True`` under
    the *spawn* start method, where the worker gets its own tracker
    that would otherwise unlink the parent's memory at worker exit.
    Forked workers share the parent's tracker and must leave the
    registration alone (the parent's unlink clears it exactly once).
    """
    from multiprocessing import shared_memory
    views: dict[str, np.ndarray] = {}
    for name, (shm_name, shape, dtype) in specs.items():
        block = shared_memory.SharedMemory(name=shm_name)
        if untrack:
            try:
                from multiprocessing import resource_tracker
                resource_tracker.unregister(block._name, "shared_memory")
            except Exception:
                pass  # best effort: tracker layouts differ across versions
        _ATTACHED_BLOCKS.append(block)
        views[name] = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                 buffer=block.buf)
    return views


# Shared-memory blocks a worker process attached (kept alive with it).
_ATTACHED_BLOCKS: list = []


def pool_context():
    """The multiprocessing context this module schedules workers on.

    Prefers ``fork`` (zero-cost worker startup, shared-memory names are
    inherited) and falls back to ``spawn`` where fork is unavailable.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def parallel_map(fn, tasks, *, workers: int | None = None,
                 shared: dict[str, np.ndarray] | None = None) -> list:
    """Map ``fn(task, shared)`` over ``tasks``, preserving task order.

    ``fn`` must be a module-level function (workers import it by
    qualified name under the spawn start method).  ``shared`` arrays
    are passed by reference serially and through shared memory in the
    pool; workers must treat them as read-only.  Results are returned
    in task order regardless of completion order, so callers get the
    same output for every worker count.
    """
    from ..telemetry import counter, gauge

    tasks = list(tasks)
    workers = resolve_workers(workers)
    counter("parallel.map.calls").inc()
    counter("parallel.map.tasks").inc(len(tasks))
    effective = min(workers, len(tasks)) if tasks else 1
    gauge("parallel.map.workers").set(effective)
    if effective <= 1:
        arrays = shared or {}
        return [fn(task, arrays) for task in tasks]

    counter("parallel.map.pooled_calls").inc()
    with ShardPool(_map_task, workers=effective, shared=shared,
                   init_fn=_map_state, payload=fn) as pool:
        return pool.run(tasks)


def _map_state(views, fn):
    """:func:`parallel_map` on a :class:`ShardPool`: a worker's state
    is the mapped function itself."""
    return fn


def _map_task(task, views, fn):
    """:func:`parallel_map` on a :class:`ShardPool`: one task is one
    ``fn(task, shared)`` call."""
    return fn(task, views)


class _ShardTaskError:
    """Picklable failure marker a shard worker returns instead of dying."""

    __slots__ = ("index", "message")

    def __init__(self, index: int, message: str):
        self.index = index
        self.message = message


def _shard_worker_main(fn, init_fn, payload, specs, untrack,
                       task_queue, result_queue) -> None:
    """Long-lived shard-worker loop: init once, then drain tasks.

    Task failures are reported as :class:`_ShardTaskError` results (the
    worker keeps serving, so the parent can drain the queue and shut
    the pool down cleanly); only an init failure kills the process.
    """
    views = attach_shared(specs, untrack=untrack)
    state = init_fn(views, payload) if init_fn is not None else None
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, task = item
        try:
            result_queue.put((index, fn(task, views, state)))
        except Exception as error:
            result_queue.put((index, _ShardTaskError(
                index, f"{type(error).__name__}: {error}")))


class ShardPool:
    """Long-lived deterministic workers with per-worker persistent state.

    :func:`parallel_map` builds a pool (and re-packs shared memory) per
    call, which is the right shape for one-shot shard plans but wasteful
    for *epoch loops* that dispatch the same kind of work dozens of
    times against the same read-only arrays.  A ``ShardPool`` starts its
    workers once: each attaches the shared pack, runs
    ``init_fn(views, payload)`` to build per-worker state (a model, a
    sampler), and then serves ``fn(task, views, state)``
    calls until :meth:`close`.

    Determinism contract: results are returned **in task order** no
    matter which worker ran which task or in what order they finished,
    so — as with :func:`parallel_map` — callers that shard work
    independently of the worker count get bit-identical output for
    every count.  At ``workers=1`` everything runs in-process (no pool,
    no pickling) through the same ``init_fn``/``fn`` code path.

    A worker that dies mid-run (OOM kill, hard crash) is detected by
    liveness polling while the parent waits on the result queue;
    :meth:`run` then raises instead of hanging.  Ordinary task
    exceptions do not kill workers — they surface as a ``RuntimeError``
    after the batch drains.
    """

    #: Seconds between liveness polls while waiting on results.
    POLL_SECONDS = 1.0

    def __init__(self, fn, *, workers: int | None = None,
                 shared: dict[str, np.ndarray] | None = None,
                 init_fn=None, payload=None):
        self.workers = resolve_workers(workers)
        self._fn = fn
        self._init_fn = init_fn
        self._payload = payload
        self._arrays = dict(shared or {})
        self._state = None
        self._state_ready = False
        self._pack: SharedArrays | None = None
        self._processes: list = []
        self._tasks = None
        self._results = None
        self._closed = False
        if self.workers > 1:
            context = pool_context()
            untrack = context.get_start_method() != "fork"
            self._pack = SharedArrays(self._arrays)
            self._tasks = context.Queue()
            self._results = context.Queue()
            for position in range(self.workers):
                process = context.Process(
                    target=_shard_worker_main,
                    args=(fn, init_fn, payload, self._pack.specs(),
                          untrack, self._tasks, self._results),
                    name=f"repro-shard-{position}", daemon=True)
                process.start()
                self._processes.append(process)

    def run(self, tasks) -> list:
        """Run ``fn`` over ``tasks``; results come back in task order."""
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        tasks = list(tasks)
        if self.workers <= 1:
            if not self._state_ready:
                self._state = self._init_fn(self._arrays, self._payload) \
                    if self._init_fn is not None else None
                self._state_ready = True
            return [self._fn(task, self._arrays, self._state)
                    for task in tasks]
        for index, task in enumerate(tasks):
            self._tasks.put((index, task))
        results: list = [None] * len(tasks)
        failures: list[_ShardTaskError] = []
        received = 0
        while received < len(tasks):
            try:
                index, outcome = self._results.get(
                    timeout=self.POLL_SECONDS)
            except Empty:
                dead = [process.name for process in self._processes
                        if not process.is_alive()]
                if dead:
                    raise RuntimeError(
                        f"shard worker(s) died mid-run: {', '.join(dead)}")
                continue
            received += 1
            if isinstance(outcome, _ShardTaskError):
                failures.append(outcome)
            else:
                results[index] = outcome
        if failures:
            first = min(failures, key=lambda failure: failure.index)
            raise RuntimeError(f"shard task {first.index} failed: "
                               f"{first.message}")
        return results

    def close(self) -> None:
        """Stop the workers and release the shared pack (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            try:
                self._tasks.put(None)
            except Exception:
                break  # queue already broken; terminate below
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        if self._pack is not None:
            self._pack.close()
            self._pack = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
