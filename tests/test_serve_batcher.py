"""Concurrency tests for the request micro-batcher."""

import threading
import time

import pytest

from repro.serve import BatcherStopped, MicroBatcher


def doubler(items):
    return [item * 2 for item in items]


class TestHammer:
    def test_no_dropped_or_duplicated_responses(self):
        """≥8 threads submit concurrently; every submission gets exactly
        its own answer and the processed multiset matches the submitted
        one (nothing dropped, nothing duplicated)."""
        n_threads, per_thread = 8, 50
        processed = []
        process_lock = threading.Lock()

        def process(items):
            with process_lock:
                processed.extend(items)
            return [item * 2 for item in items]

        batcher = MicroBatcher(process, max_batch_size=16)
        results: dict[int, int] = {}
        results_lock = threading.Lock()
        errors = []

        def client(thread_index):
            try:
                for position in range(per_thread):
                    token = thread_index * per_thread + position
                    answer = batcher.submit(token, timeout=30.0)
                    with results_lock:
                        results[token] = answer
            except BaseException as error:  # pragma: no cover - surfaced
                errors.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batcher.stop()

        assert not errors
        expected = set(range(n_threads * per_thread))
        assert set(results) == expected  # nothing dropped
        assert all(results[token] == token * 2 for token in expected)
        assert sorted(processed) == sorted(expected)  # nothing duplicated

    def test_batches_actually_coalesce(self):
        sizes = []
        release = threading.Event()

        def slow_process(items):
            release.wait(5.0)
            return doubler(items)

        batcher = MicroBatcher(slow_process, max_batch_size=8)
        batcher.on_batch = sizes.append
        threads = [threading.Thread(target=batcher.submit, args=(index,),
                                    kwargs={"timeout": 30.0})
                   for index in range(9)]
        for thread in threads:
            thread.start()
        # First item is picked up immediately (possibly alone); once the
        # worker blocks in slow_process the other 8 queue up and must
        # flush together when released.
        time.sleep(0.1)
        release.set()
        for thread in threads:
            thread.join()
        batcher.stop()
        assert sum(sizes) == 9
        assert max(sizes) > 1  # coalescing happened
        assert all(size <= 8 for size in sizes)


class TestPolicy:
    def test_flushes_at_max_batch_size(self):
        sizes = []
        gate = threading.Event()

        def process(items):
            gate.wait(5.0)
            return doubler(items)

        batcher = MicroBatcher(process, max_batch_size=4)
        batcher.on_batch = sizes.append
        threads = [threading.Thread(target=batcher.submit, args=(index,),
                                    kwargs={"timeout": 30.0})
                   for index in range(9)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        gate.set()
        for thread in threads:
            thread.join()
        batcher.stop()
        # The items queued behind the gate flush in size-bounded
        # batches of at most 4.
        assert sum(sizes) == 9
        assert all(size <= 4 for size in sizes)

    def test_lone_item_is_answered_without_waiting_for_batch_mates(self):
        sizes = []
        batcher = MicroBatcher(doubler, max_batch_size=1000)
        batcher.on_batch = sizes.append
        # Flush when idle: nothing else is queued, so the item is its
        # own batch at once, however large a batch may grow.
        for value in range(5):
            assert batcher.submit(value, timeout=30.0) == 2 * value
        batcher.stop()
        assert sizes == [1] * 5

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(doubler, max_batch_size=0)


class TestFailureIsolation:
    def test_poison_item_fails_alone(self):
        def process(items):
            if any(item == "poison" for item in items):
                raise ValueError("poisoned batch")
            return [item.upper() for item in items]

        gate = threading.Event()

        def gated_process(items):
            gate.wait(5.0)
            return process(items)

        batcher = MicroBatcher(gated_process, max_batch_size=8)
        outcomes: dict[str, object] = {}
        lock = threading.Lock()

        def client(item):
            try:
                value = batcher.submit(item, timeout=30.0)
            except Exception as error:
                value = error
            with lock:
                outcomes[item] = value

        threads = [threading.Thread(target=client, args=(item,))
                   for item in ["a", "b", "poison", "c"]]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        gate.set()
        for thread in threads:
            thread.join()
        batcher.stop()
        assert outcomes["a"] == "A"
        assert outcomes["b"] == "B"
        assert outcomes["c"] == "C"
        assert isinstance(outcomes["poison"], ValueError)

    def test_wrong_result_length_is_an_error(self):
        batcher = MicroBatcher(lambda items: [], max_batch_size=4)
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit("x", timeout=30.0)
        batcher.stop()

    def test_submit_timeout(self):
        def stall(items):
            time.sleep(0.5)
            return doubler(items)

        batcher = MicroBatcher(stall, max_batch_size=4)
        with pytest.raises(TimeoutError):
            batcher.submit(1, timeout=0.05)
        batcher.stop()


class TestLifecycle:
    def test_submit_after_stop_raises(self):
        batcher = MicroBatcher(doubler)
        batcher.stop()
        with pytest.raises(BatcherStopped):
            batcher.submit(1)

    def test_stop_is_idempotent(self):
        batcher = MicroBatcher(doubler)
        batcher.stop()
        batcher.stop()


class TestShutdownRace:
    """Regression tests for the submit/stop missed-notify window.

    ``submit`` used to check the stop flag and then enqueue without
    holding a lock; a ``stop`` completing in between (flag, sentinel,
    join, drain) left the late item enqueued with no worker alive and
    nothing to reject it — the submitter blocked until its timeout.
    The state lock makes the pair atomic: every submit now either
    completes, raises :class:`BatcherStopped`, or is rejected by the
    drain.  Nothing may hang.
    """

    def test_submits_racing_stop_never_hang(self):
        for _ in range(20):
            batcher = MicroBatcher(doubler, max_batch_size=4)
            outcomes = []
            lock = threading.Lock()
            start = threading.Barrier(5)

            def client(value, batcher=batcher, outcomes=outcomes,
                       lock=lock, start=start):
                start.wait(5.0)
                try:
                    outcome = batcher.submit(value, timeout=5.0)
                except (BatcherStopped, TimeoutError) as error:
                    outcome = error
                with lock:
                    outcomes.append(outcome)

            def stopper(batcher=batcher, start=start):
                start.wait(5.0)
                batcher.stop()

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(4)]
            threads.append(threading.Thread(target=stopper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == 4
            # The fix's contract: a result or a BatcherStopped, never a
            # timed-out submission stranded in a dead queue.
            assert not any(isinstance(outcome, TimeoutError)
                           for outcome in outcomes)

    def test_concurrent_stops_are_safe(self):
        batcher = MicroBatcher(doubler)
        assert batcher.submit(3, timeout=5.0) == 6
        threads = [threading.Thread(target=batcher.stop) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        with pytest.raises(BatcherStopped):
            batcher.submit(1)

    def test_stop_drains_and_rejects_leftovers(self):
        release = threading.Event()

        def slow(items):
            release.wait(5.0)
            return doubler(items)

        batcher = MicroBatcher(slow, max_batch_size=1)
        outcomes = []
        lock = threading.Lock()

        def client(value):
            try:
                outcome = batcher.submit(value, timeout=10.0)
            except BatcherStopped as error:
                outcome = error
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)   # let the worker block inside slow()
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        time.sleep(0.05)
        release.set()
        stopper.join(timeout=10.0)
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 6
        # Every submission resolved: processed before the sentinel, or
        # rejected by the shutdown drain — none stranded.
        for outcome in outcomes:
            assert isinstance(outcome, (int, BatcherStopped))
