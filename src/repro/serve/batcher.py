"""Request micro-batching: coalesce concurrent single-item requests.

Online imputation requests usually arrive one row at a time, but the
engine's cost is dominated by per-call overhead (schema checks, table
assembly, task-head dispatch) that amortizes almost perfectly across a
batch.  The :class:`MicroBatcher` sits between the HTTP handlers and
the engine: callers block in :meth:`submit` while a single worker
thread drains the queue.  The policy is *flush when idle*: the worker
takes the first item plus whatever else is already queued, up to
``max_batch_size``, and processes the batch at once.  Requests that
arrive while a batch computes queue up and form the next batch, so
batches grow with load and a lone request never waits for batch-mates.

Failure isolation: when a batched call raises, the batch degrades to
singleton calls so one poison request cannot fail its neighbours; the
per-item exception is re-raised in the submitting thread only.

Lock order: ``_state_lock`` guards exactly the pair (stop flag, queue
put) so that :meth:`submit`'s check-then-enqueue and :meth:`stop`'s
set-then-sentinel are each atomic — without it a submit racing a stop
could enqueue *after* the shutdown drain, leaving the caller blocked
forever with no worker alive.  The lock is never held while waiting
for a result, joining the worker, or calling ``process_batch``, so it
cannot deadlock against the worker thread; the queue's internal lock
nests strictly inside it.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Sequence

from ..telemetry import Tracer

__all__ = ["MicroBatcher", "BatcherStopped"]


class BatcherStopped(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`stop`."""


class _Pending:
    """One submitted item and its slot for the result/exception."""

    __slots__ = ("item", "event", "result", "error")

    def __init__(self, item):
        self.item = item
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None

    def resolve(self, result) -> None:
        self.result = result
        self.event.set()

    def reject(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class MicroBatcher:
    """Coalesce blocking single-item submissions into batched calls.

    Parameters
    ----------
    process_batch:
        ``list of items -> list of results`` (same length, same order).
        Runs on the worker thread only, so it need not be thread-safe.
    max_batch_size:
        Largest batch handed to ``process_batch``.
    """

    def __init__(self, process_batch: Callable[[list], Sequence],
                 max_batch_size: int = 32):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.process_batch = process_batch
        self.max_batch_size = max_batch_size
        #: Optional ``callable(batch_size)`` invoked per flushed batch
        #: (wired to :meth:`ServingMetrics.record_batch` by the server).
        self.on_batch: Callable[[int], None] | None = None
        #: Optional tracer recording one ``flush`` span per drained
        #: batch (wired to the server's tracer when serving over HTTP).
        self.tracer: Tracer | None = None
        self._queue: queue.Queue[_Pending | None] = queue.Queue()
        self._stopped = threading.Event()
        # Makes submit's flag-check+put and stop's set+sentinel atomic
        # with respect to each other (see the module docstring).
        self._state_lock = threading.Lock()
        self._worker = threading.Thread(target=self._run,
                                        name="repro-microbatcher",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, item, timeout: float | None = None):
        """Block until ``item`` was processed; return its result.

        Re-raises the per-item exception from ``process_batch``.  A
        ``timeout`` (seconds) bounds the wait; on expiry ``TimeoutError``
        is raised (the item may still be processed later).
        """
        pending = _Pending(item)
        with self._state_lock:
            if self._stopped.is_set():
                raise BatcherStopped("the micro-batcher has been stopped")
            self._queue.put(pending)
        if not pending.event.wait(timeout):
            raise TimeoutError(f"no result within {timeout}s")
        if pending.error is not None:
            raise pending.error
        return pending.result

    def submit_many(self, items: list, timeout: float | None = None) -> list:
        """Enqueue ``items`` together, then wait for all results in order.

        Unlike looping over :meth:`submit`, every item enters the queue
        before the first wait, so an n-item request rides at most
        ``ceil(n / max_batch_size)`` engine batches instead of n
        sequential batch cycles.  ``timeout`` bounds the *total* wait;
        the first per-item exception (in item order) is re-raised.
        """
        pendings = [_Pending(item) for item in items]
        with self._state_lock:
            if self._stopped.is_set():
                raise BatcherStopped("the micro-batcher has been stopped")
            for pending in pendings:
                self._queue.put(pending)
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for pending in pendings:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if not pending.event.wait(remaining):
                raise TimeoutError(f"no result within {timeout}s")
            if pending.error is not None:
                raise pending.error
        return [pending.result for pending in pendings]

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` pending items still complete.

        Idempotent: concurrent and repeated calls are safe; only the
        first one enqueues the shutdown sentinel.
        """
        with self._state_lock:
            if self._stopped.is_set():
                already_stopped = True
            else:
                already_stopped = False
                self._stopped.set()
                # Sentinel wakes the worker even when the queue is
                # empty.  Enqueued under the lock so no submit can
                # slip an item in behind it unprocessed.
                self._queue.put(None)
        if already_stopped:
            # A concurrent stop() won the race; let it finish the join
            # and drain rather than racing it on the queue.
            self._worker.join(timeout=10.0)
            return
        self._worker.join(timeout=10.0)
        if not drain:
            return
        # Reject anything the worker left behind after shutdown.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is not None:
                pending.reject(BatcherStopped("stopped before processing"))

    # ------------------------------------------------------------------
    def _collect(self) -> list[_Pending] | None:
        """Block for the first item, then take what is already queued."""
        first = self._queue.get()
        if first is None:
            return None
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt is None:
                # Shutdown sentinel: process what we have, then let the
                # main loop observe the stop flag.
                self._queue.put(None)
                break
            batch.append(nxt)
        return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                if self._stopped.is_set():
                    return
                continue
            self._process(batch)
            if self._stopped.is_set() and self._queue.empty():
                return

    def _process(self, batch: list[_Pending]) -> None:
        if self.on_batch is not None:
            try:
                self.on_batch(len(batch))
            except Exception:
                pass  # metrics must never take down the worker
        if self.tracer is not None:
            with self.tracer.span("batcher.flush", items=len(batch)):
                self._process_batch(batch)
        else:
            self._process_batch(batch)

    def _process_batch(self, batch: list[_Pending]) -> None:
        try:
            results = self.process_batch([pending.item
                                          for pending in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"process_batch returned {len(results)} results for "
                    f"{len(batch)} items")
        except Exception as error:
            if len(batch) == 1:
                batch[0].reject(error)
                return
            # Graceful degradation: one bad item must not fail the rest.
            for pending in batch:
                try:
                    result = self.process_batch([pending.item])
                    if len(result) != 1:
                        raise RuntimeError("process_batch returned "
                                           f"{len(result)} results for 1 "
                                           "item")
                    pending.resolve(result[0])
                except Exception as single_error:
                    pending.reject(single_error)
            return
        for pending, result in zip(batch, results):
            pending.resolve(result)
