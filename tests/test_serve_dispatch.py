"""Failure-path and parity tests for the multi-process serving tier.

Covers the dispatch layer's contract directly (queue-full shedding,
worker crash -> respawn + clean rejection, graceful drain, workers=1
parity vs the in-process engine) and the HTTP mapping of those
failures (429 + Retry-After, readiness vs liveness) through a stub
dispatcher so the status-code paths are deterministic.
"""

import json
import os
import signal
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from http_keepalive import keepalive_round_trips, record_transport, \
    split_reply
from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import Table
from repro.serve import (
    Dispatcher,
    DispatcherStopped,
    ImputationServer,
    InferenceEngine,
    QueueFull,
    WorkerCrashed,
)
from repro.serve.dispatch import _Pending


def structured_table(n_rows=50, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["paris", "rome", "berlin"]
    country_of = {"paris": "france", "rome": "italy", "berlin": "germany"}
    population_of = {"paris": 2.1, "rome": 2.8, "berlin": 3.6}
    chosen = [cities[index] for index in rng.integers(0, 3, n_rows)]
    return Table({
        "city": chosen,
        "country": [country_of[city] for city in chosen],
        "population": [population_of[city] + rng.normal(0, 0.05)
                       for city in chosen],
    })


def dirty_records(n_rows=24, seed=7):
    """Fresh serving traffic: one missing cell per record, cycling."""
    table = structured_table(n_rows=n_rows, seed=seed)
    columns = table.column_names
    records = []
    for index in range(table.n_rows):
        record = dict(table.row(index))
        record[columns[index % len(columns)]] = None
        records.append(record)
    return records


@pytest.fixture(scope="module")
def engine():
    corruption = inject_mcar(structured_table(), 0.15,
                             np.random.default_rng(1))
    imputer = GrimpImputer(GrimpConfig(feature_dim=8, gnn_dim=10,
                                       merge_dim=12, epochs=6, patience=6,
                                       lr=1e-2, seed=0))
    imputer.impute(corruption.dirty)
    instance = InferenceEngine(imputer)
    instance.pin()
    return instance


@pytest.fixture()
def dispatcher_factory(engine):
    """Build dispatchers that are always stopped at test exit."""
    built = []

    def build(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("max_delay_ms", 1.0)
        instance = Dispatcher(engine, **kwargs)
        built.append(instance)
        assert instance.wait_ready(timeout=120.0)
        return instance

    yield build
    for instance in built:
        instance.stop(drain=False, timeout=10.0)


@pytest.mark.serve_smoke
class TestDispatchRoundTrip:
    def test_submit_round_trip_and_stats(self, dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1)
        records = dirty_records(n_rows=12)
        imputed = dispatcher.submit(records, timeout=60.0)
        assert len(imputed) == len(records)
        assert all(value is not None for row in imputed
                   for value in row.values())
        stats = dispatcher.stats()
        assert stats["workers"] == 1
        assert stats["ready_workers"] == 1
        assert stats["queue_depth"] == 0
        worker = stats["per_worker"][0]
        assert worker["dispatched"] == 1
        assert worker["completed"] == 1
        assert worker["outstanding"] == 0
        assert worker["batches"] >= 1
        assert worker["batched_rows"] == len(records)

    def test_workers1_per_row_parity(self, engine, dispatcher_factory):
        # The acceptance bar: a workers=1 tier answers byte-identically
        # to the in-process engine.  Compare per-row (equal batch
        # partitions): the engine itself is batch-partition sensitive
        # at the last float ulp (BLAS reduction order), so parity is
        # defined over identical partitions, and per-row sequential
        # submission pins both sides to batches of one.
        dispatcher = dispatcher_factory(workers=1)
        records = dirty_records(n_rows=18)
        for record in records:
            reference = engine.impute_records([record])
            dispatched = dispatcher.submit([record], timeout=60.0)
            assert dispatched == reference

    def test_concurrent_submits_spread_over_workers(self,
                                                    dispatcher_factory):
        dispatcher = dispatcher_factory(workers=2, max_queue_depth=32)
        records = dirty_records(n_rows=16)
        outcomes = [None] * len(records)

        def client(index):
            outcomes[index] = dispatcher.submit([records[index]],
                                                timeout=60.0)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(records))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome is not None and len(outcome) == 1
                   for outcome in outcomes)
        stats = dispatcher.stats()
        completed = sum(entry["completed"]
                        for entry in stats["per_worker"])
        assert completed == len(records)

    def test_client_error_propagates_as_value_error(self,
                                                    dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1)
        with pytest.raises(ValueError, match="unknown column"):
            dispatcher.submit([{"altitude": 12}], timeout=60.0)
        # The worker survives a client error and keeps serving.
        result = dispatcher.submit(dirty_records(n_rows=1), timeout=60.0)
        assert len(result) == 1


class TestAdmissionControl:
    def test_queue_full_sheds_load(self, dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1, max_queue_depth=2)
        # Fill the in-flight table synthetically so the rejection is
        # deterministic (no timing races against a fast worker).
        with dispatcher._lock:
            dispatcher._inflight[-1] = _Pending(0)
            dispatcher._inflight[-2] = _Pending(0)
        try:
            with pytest.raises(QueueFull) as caught:
                dispatcher.submit(dirty_records(n_rows=1), timeout=5.0)
            assert caught.value.retry_after == 1.0
            assert dispatcher.stats()["rejected_queue_full"] == 1
        finally:
            with dispatcher._lock:
                dispatcher._inflight.pop(-1, None)
                dispatcher._inflight.pop(-2, None)
        # Once the table drains, admission resumes.
        result = dispatcher.submit(dirty_records(n_rows=1), timeout=60.0)
        assert len(result) == 1

    def test_rejects_bad_configuration(self, engine):
        with pytest.raises(ValueError, match="workers"):
            Dispatcher(engine, workers=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            Dispatcher(engine, workers=1, max_queue_depth=0)

    def test_submit_after_stop_raises(self, dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1)
        dispatcher.stop(drain=True, timeout=30.0)
        with pytest.raises(DispatcherStopped):
            dispatcher.submit(dirty_records(n_rows=1), timeout=5.0)
        dispatcher.stop()  # idempotent


@pytest.mark.serve_smoke
class TestCrashRecovery:
    def test_crash_rejects_inflight_and_respawns(self, dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1)
        pid = dispatcher.stats()["per_worker"][0]["pid"]
        # Freeze the worker so the request is deterministically in
        # flight, then kill it: the supervisor must reject the request
        # promptly (never leave it hanging) and respawn the worker.
        os.kill(pid, signal.SIGSTOP)
        outcome = {}

        def client():
            try:
                outcome["result"] = dispatcher.submit(
                    dirty_records(n_rows=4), timeout=60.0)
            except BaseException as error:
                outcome["error"] = error

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 10.0
        while dispatcher.queue_depth == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert dispatcher.queue_depth == 1
        os.kill(pid, signal.SIGKILL)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), WorkerCrashed)

        # The replacement worker warms against the same shared pack and
        # serves new traffic.
        assert dispatcher.wait_ready(timeout=120.0)
        stats = dispatcher.stats()
        assert stats["restarts"] == 1
        assert stats["crashed_requests"] == 1
        assert stats["per_worker"][0]["pid"] != pid
        result = dispatcher.submit(dirty_records(n_rows=2), timeout=60.0)
        assert len(result) == 2

    def test_crash_without_respawn_stays_down(self, dispatcher_factory):
        dispatcher = dispatcher_factory(workers=1, respawn=False)
        pid = dispatcher.stats()["per_worker"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while dispatcher.ready_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert dispatcher.ready_count == 0
        with pytest.raises(TimeoutError):
            dispatcher.submit(dirty_records(n_rows=1), timeout=0.5)


@pytest.mark.serve_smoke
class TestGracefulDrain:
    def test_drain_completes_every_accepted_request(self,
                                                    dispatcher_factory):
        dispatcher = dispatcher_factory(workers=2, max_queue_depth=32)
        records = dirty_records(n_rows=4)
        n_clients = 8
        outcomes = [None] * n_clients
        admitted = threading.Barrier(n_clients + 1)

        def client(index):
            admitted.wait(timeout=30.0)
            try:
                outcomes[index] = ("ok", dispatcher.submit(records,
                                                           timeout=60.0))
            except BaseException as error:
                outcomes[index] = ("error", error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        admitted.wait(timeout=30.0)
        time.sleep(0.3)  # let every submit through admission
        dispatcher.stop(drain=True, timeout=60.0)
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(outcome is not None for outcome in outcomes)
        for kind, value in outcomes:
            # Every request admitted before the drain must complete;
            # a client that raced stop() into admission gets the clean
            # stopped error, never a hang or a lost request.
            if kind == "ok":
                assert len(value) == len(records)
            else:
                assert isinstance(value, DispatcherStopped)
        completed = [value for kind, value in outcomes if kind == "ok"]
        assert completed, "drain should complete in-flight requests"
        assert dispatcher.stats()["queue_depth"] == 0


# ----------------------------------------------------------------------
# HTTP mapping of the failure paths, via a stub dispatcher so status
# codes are deterministic (no timing races against real workers).
# ----------------------------------------------------------------------
class _StubDispatcher:
    n_workers = 2

    def __init__(self, error=None):
        self.error = error
        self.ready_count = 0
        self.all_ready = False

    def submit(self, rows, timeout=None):
        if self.error is not None:
            raise self.error
        return rows

    def stats(self):
        return {"workers": self.n_workers,
                "ready_workers": self.ready_count}

    def stop(self, drain=True, timeout=30.0):
        pass


@pytest.fixture()
def stub_server(engine):
    instance = ImputationServer(engine, port=0, max_batch_size=8,
                                max_delay_ms=1.0)
    instance.start()
    instance.dispatcher = _StubDispatcher()
    yield instance
    instance.stop()


def http_get(server, path):
    try:
        with urllib.request.urlopen(server.url + path,
                                    timeout=10) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def http_post(server, path, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestHttpFailureMapping:
    def test_queue_full_maps_to_429_retry_after(self, stub_server):
        stub_server.dispatcher.error = QueueFull(64)
        status, headers, payload = http_post(
            stub_server, "/impute", {"row": {"city": "paris"}})
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert payload["retry_after_seconds"] == 1.0
        assert "queue is full" in payload["error"]
        assert stub_server.metrics.snapshot()["rejected"] == 1

    def test_worker_crash_maps_to_503(self, stub_server):
        stub_server.dispatcher.error = WorkerCrashed("worker 0 died")
        status, headers, payload = http_post(
            stub_server, "/impute", {"row": {"city": "paris"}})
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "died" in payload["error"]

    def test_timeout_maps_to_503(self, stub_server):
        stub_server.dispatcher.error = TimeoutError()
        status, _, payload = http_post(
            stub_server, "/impute", {"row": {"city": "paris"}})
        assert status == 503
        assert "timed out" in payload["error"]

    def test_readiness_503_while_workers_warm(self, stub_server):
        status, headers, payload = http_get(stub_server, "/healthz")
        assert status == 503
        assert payload["status"] == "warming"
        assert payload["workers"] == 2
        assert payload["workers_ready"] == 0
        assert headers["Retry-After"] == "1"

    def test_liveness_200_while_workers_warm(self, stub_server):
        status, _, payload = http_get(stub_server, "/healthz?live=1")
        assert status == 200
        assert payload["status"] == "alive"

    def test_readiness_200_once_all_workers_warm(self, stub_server):
        stub_server.dispatcher.all_ready = True
        stub_server.dispatcher.ready_count = 2
        status, _, payload = http_get(stub_server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers_ready"] == 2


class TestDispatchedKeepAliveTransport:
    """The dispatched tier shares the HTTP handler and its transport."""

    ROW = {"row": {"city": "paris", "country": None, "population": 2.1}}

    def test_back_to_back_requests_do_not_stall(self, stub_server):
        trips = keepalive_round_trips(stub_server, self.ROW, 20)
        for _, status, reply in trips:
            assert status == 200
            assert reply["row"] == self.ROW["row"]
        median_ms = statistics.median(
            seconds for seconds, _, _ in trips) * 1e3
        assert median_ms < 20.0

    def test_each_reply_is_one_write_on_a_nodelay_socket(
            self, stub_server, monkeypatch):
        connections = record_transport(stub_server, monkeypatch)
        keepalive_round_trips(stub_server, self.ROW, 5)
        stub_server.dispatcher.error = QueueFull(64)
        keepalive_round_trips(stub_server, self.ROW, 1)
        assert [entry["nodelay"] != 0 for entry in connections] == \
            [True, True]
        replies = [split_reply(write) for entry in connections
                   for write in entry["writes"]]
        assert [status_line for status_line, _, _ in replies] == \
            ["HTTP/1.1 200 OK"] * 5 + ["HTTP/1.1 429 Too Many Requests"]
        for _, headers, body in replies:
            assert int(headers["Content-Length"]) == len(body)
        assert replies[-1][1]["Retry-After"] == "1"


@pytest.mark.serve_smoke
class TestMultiProcessServerEndToEnd:
    @pytest.fixture(scope="class")
    def mp_server(self, engine):
        instance = ImputationServer(engine, port=0, workers=2,
                                    max_batch_size=8, max_delay_ms=1.0,
                                    max_queue_depth=16)
        assert instance.wait_ready(timeout=120.0)
        instance.start()
        yield instance
        instance.stop()

    def test_healthz_reports_worker_readiness(self, mp_server):
        status, _, payload = http_get(mp_server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["workers_ready"] == 2

    def test_impute_round_trip(self, mp_server):
        status, _, payload = http_post(mp_server, "/impute", {
            "row": {"city": "paris", "country": None, "population": 2.1}})
        assert status == 200
        assert payload["row"]["country"] == "france"

    def test_metrics_expose_dispatch_section(self, mp_server):
        http_post(mp_server, "/impute", {
            "rows": dirty_records(n_rows=6)})
        status, _, payload = http_get(mp_server, "/metrics")
        assert status == 200
        dispatch = payload["dispatch"]
        assert dispatch["workers"] == 2
        assert dispatch["ready_workers"] == 2
        assert dispatch["max_queue_depth"] == 16
        assert len(dispatch["per_worker"]) == 2
        completed = sum(entry["completed"]
                        for entry in dispatch["per_worker"])
        assert completed >= 1
        # Worker batches feed the same ServingMetrics the bench reads.
        assert payload["batches"] >= 1
        # Dispatch spans nest under the HTTP request span.
        spans = payload["telemetry"]["spans"]
        assert spans["http.impute/dispatch.submit"]["count"] >= 1

    def test_client_error_is_400(self, mp_server):
        status, _, payload = http_post(mp_server, "/impute",
                                       {"row": {"altitude": 12}})
        assert status == 400
        assert "unknown column" in payload["error"]
