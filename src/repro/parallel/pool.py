"""Deterministic seeded process pool over shared-memory arrays.

Everything in :mod:`repro` runs in one process today; this module keeps
the pool primitives a batch-preparation pipeline would build on:

* **shared-memory arrays** — read-only numpy inputs (CSR graphs, index
  arrays) are packed once into POSIX shared memory
  (:class:`SharedArrays`); workers attach zero-copy views by name.
* **deterministic sharding** — callers split work into a shard plan
  that depends only on the *problem* (never on the worker count) and
  draw one spawned :class:`numpy.random.SeedSequence` per shard, so
  ``workers=1`` and ``workers=N`` produce bit-identical results and
  :class:`ShardPool` merely changes how shards are scheduled.
* **serial fallback** — ``workers=1`` (the default) runs every shard
  in-process with no pool, no pickling, and no shared-memory setup;
  the parallel path is pure scheduling on top of the same shard code.
"""

from __future__ import annotations

import multiprocessing
import os
from queue import Empty

import numpy as np

__all__ = ["BENCH_CORES_ENV", "schedulable_cores", "spawn_seeds",
           "SharedArrays", "attach_shared", "pool_context", "ShardPool"]

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

    A ``ShardPool`` starts its workers once, for *epoch loops* that
    dispatch the same kind of work dozens of times against the same
    read-only arrays: each worker attaches the shared pack, runs
    ``init_fn(views, payload)`` to build per-worker state (a model, a
    sampler), and then serves ``fn(task, views, state)``
    calls until :meth:`close`.

    Determinism contract: results are returned **in task order** no
    matter which worker ran which task or in what order they finished,
    so callers that shard work independently of the worker count get
    bit-identical output for every count.  At ``workers=1`` everything
    runs in-process (no pool, no pickling) through the same
    ``init_fn``/``fn`` code path.

    A worker that dies mid-run (OOM kill, hard crash) is detected by
    liveness polling while the parent waits on the result queue;
    :meth:`run` then raises instead of hanging.  Ordinary task
    exceptions do not kill workers — they surface as a ``RuntimeError``
    after the batch drains.
    """

    #: Seconds between liveness polls while waiting on results.
    POLL_SECONDS = 1.0

    def __init__(self, fn, *, workers: int = 1,
                 shared: dict[str, np.ndarray] | None = None,
                 init_fn=None, payload=None):
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
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
