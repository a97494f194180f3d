"""End-to-end tests for the HTTP imputation server and live metrics."""

import http.client
import json
import socket
import statistics
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from http_keepalive import keepalive_round_trips, record_transport, \
    split_reply
from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import Table
from repro.serve import ImputationServer, InferenceEngine, \
    LatencyHistogram, ServingMetrics, percentile
from repro.serve.server import MAX_BODY_BYTES


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


@pytest.fixture(scope="module")
def imputer():
    corruption = inject_mcar(structured_table(), 0.15,
                             np.random.default_rng(1))
    instance = GrimpImputer(GrimpConfig(feature_dim=8, gnn_dim=10,
                                        merge_dim=12, epochs=6, patience=6,
                                        lr=1e-2, seed=0))
    instance.impute(corruption.dirty)
    return instance


@pytest.fixture(scope="module")
def server(imputer):
    instance = ImputationServer(InferenceEngine(imputer), port=0,
                                max_batch_size=16)
    instance.start()
    yield instance
    instance.stop()


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path,
                                    timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(server, path, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["pinned"] is True
        assert payload["columns"] == ["city", "country", "population"]
        assert payload["uptime_seconds"] >= 0

    def test_healthz_liveness(self, server):
        status, payload = get(server, "/healthz?live=1")
        assert status == 200
        assert payload["status"] == "alive"

    def test_impute_single_row(self, server):
        status, payload = post(server, "/impute", {
            "row": {"city": "paris", "country": None, "population": 2.1}})
        assert status == 200
        assert payload["row"]["country"] == "france"
        assert payload["latency_ms"] >= 0

    def test_impute_rows_preserves_order_and_observed_cells(self, server):
        rows = [
            {"city": "rome", "country": None, "population": None},
            {"city": None, "country": "germany", "population": 3.6},
        ]
        status, payload = post(server, "/impute", {"rows": rows})
        assert status == 200
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["city"] == "rome"
        assert payload["rows"][0]["country"] == "italy"
        assert payload["rows"][1]["country"] == "germany"
        assert all(value is not None for row in payload["rows"]
                   for value in row.values())

    def test_metrics_reflect_traffic(self, server):
        post(server, "/impute",
             {"row": {"city": "berlin", "country": None,
                      "population": None}})
        status, payload = get(server, "/metrics")
        assert status == 200
        assert payload["requests"] >= 1
        assert payload["rows_imputed"] >= 1
        assert payload["latency_ms"]["p50"] >= 0
        assert payload["engine"]["pinned"] is True
        assert payload["batching"] == {"max_batch_size": 16}
        assert payload["batches"] >= 1

    def test_metrics_expose_telemetry_section(self, server):
        post(server, "/impute",
             {"row": {"city": "berlin", "country": None,
                      "population": None}})
        _, payload = get(server, "/metrics")
        telemetry = payload["telemetry"]
        # HTTP request and batcher-flush spans on the server tracer.
        assert telemetry["spans"]["http.impute"]["count"] >= 1
        assert telemetry["spans"]["batcher.flush"]["count"] >= 1
        # Engine pin/batch spans surface under the engine stats.
        phases = payload["engine"]["phases"]
        assert phases["pin"]["count"] == 1
        assert phases["batch"]["count"] >= 1
        # Plan-cache dispatch counters from the global registry: serving
        # runs entirely on precompiled operators, so hits grow while the
        # legacy path stays untouched by this server's traffic.
        assert telemetry["counters"]["plan.dispatch.planned"] >= 1
        assert "tensor_ops" in telemetry

    def test_unknown_path_404(self, server):
        status, payload = get(server, "/nope")
        assert status == 404
        assert "unknown path" in payload["error"]

    def test_malformed_body_400(self, server):
        status, payload = post(server, "/impute", {"not-rows": []})
        assert status == 400
        assert "error" in payload

    def test_unknown_column_400(self, server):
        status, payload = post(server, "/impute",
                               {"row": {"altitude": 12}})
        assert status == 400
        assert "unknown column" in payload["error"]

    def test_empty_rows_400(self, server):
        status, payload = post(server, "/impute", {"rows": []})
        assert status == 400

    def test_non_finite_number_400(self, server):
        status, payload = post(server, "/impute",
                               {"row": {"city": "paris", "country": None,
                                        "population": "nan"}})
        assert status == 400
        assert "row 0, column 'population'" in payload["error"]

    @pytest.mark.parametrize("cell,expected", [
        ({"city": ["paris"]}, "column 'city': ['paris'] is not a "
                              "categorical value"),
        ({"population": True}, "column 'population': True is not "
                               "numerical"),
    ], ids=["array-in-categorical", "bool-in-numerical"])
    def test_malformed_cell_400(self, server, cell, expected):
        row = {"city": "paris", "country": None, "population": None}
        status, payload = post(server, "/impute", {"row": {**row, **cell}})
        assert status == 400
        assert f"row 0, {expected}" in payload["error"]


class TestConcurrentClients:
    def test_parallel_requests_all_answered(self, server):
        n_clients = 8
        outcomes = [None] * n_clients

        def client(index):
            outcomes[index] = post(server, "/impute", {
                "row": {"city": "paris", "country": None,
                        "population": None}})

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome is not None for outcome in outcomes)
        for status, payload in outcomes:
            assert status == 200
            assert payload["row"]["country"] == "france"
            assert payload["row"]["population"] is not None


PARIS_ROW = {"row": {"city": "paris", "country": None, "population": 2.1}}


class TestUnavailable:
    """Requests the server accepts but cannot answer get a 503."""

    def test_timeout_maps_to_503(self, imputer):
        release = threading.Event()

        def stall(records):
            release.wait(10.0)
            return records

        instance = ImputationServer(InferenceEngine(imputer), port=0,
                                    request_timeout=0.2)
        instance.batcher.process_batch = stall
        instance.start()
        try:
            status, payload = post(instance, "/impute", PARIS_ROW)
        finally:
            release.set()
            instance.stop()
        assert status == 503
        assert "timed out" in payload["error"]

    def test_request_after_stop_maps_to_503(self, imputer):
        instance = ImputationServer(InferenceEngine(imputer),
                                    port=0).start()
        body = json.dumps(PARIS_ROW)
        connection = http.client.HTTPConnection(instance.host,
                                                instance.port, timeout=30)
        try:
            connection.request("POST", "/impute", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            instance.stop()
            # The keep-alive connection outlives the listener: its next
            # request reaches a stopped batcher and must still be
            # answered, not dropped.
            connection.request("POST", "/impute", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert response.getheader("Connection") == "close"
            assert "stopped" in json.loads(response.read())["error"]
        finally:
            connection.close()


class TestKeepAliveTransport:
    """One reused connection, as a production client keeps it."""

    def test_back_to_back_requests_do_not_stall(self, server):
        trips = keepalive_round_trips(server, PARIS_ROW, 20)
        for _, status, reply in trips:
            assert status == 200
            assert reply["row"]["country"] == "france"
        # A reply split across writes waits ~40 ms for the client's
        # delayed ACK on every request after the first.
        median_ms = statistics.median(
            seconds for seconds, _, _ in trips) * 1e3
        assert median_ms < 20.0

    def test_each_reply_is_one_write_on_a_nodelay_socket(
            self, server, monkeypatch):
        connections = record_transport(server, monkeypatch)
        trips = keepalive_round_trips(server, PARIS_ROW, 5)
        assert len(connections) == 1
        assert connections[0]["nodelay"] != 0
        writes = connections[0]["writes"]
        assert len(writes) == len(trips)
        for write in writes:
            status_line, headers, body = split_reply(write)
            assert status_line == "HTTP/1.1 200 OK"
            assert int(headers["Content-Length"]) == len(body)
            assert json.loads(body)["row"]["country"] == "france"

    def test_expect_100_continue_is_answered_before_the_body(
            self, server):
        body = json.dumps(PARIS_ROW).encode("utf-8")
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as client:
            client.sendall(b"POST /impute HTTP/1.1\r\nHost: test\r\n"
                           b"Expect: 100-continue\r\nContent-Length: "
                           + str(len(body)).encode() + b"\r\n\r\n")
            # Without the interim reply the client would hold its body.
            assert client.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            client.sendall(body)
            status_line, _, reply = split_reply(client.recv(65536))
        assert status_line == "HTTP/1.1 200 OK"
        assert json.loads(reply)["row"]["country"] == "france"

    @pytest.mark.parametrize("path, declared, status, message", [
        ("/impute", str(MAX_BODY_BYTES + 1), 400, "request body over"),
        ("/impute", "-5", 400, "empty request body"),
        ("/impute", "twelve", 400, "Content-Length 'twelve' is not an "
                                   "integer"),
        ("/nope", None, 404, "unknown path"),
    ])
    def test_unread_body_closes_the_connection(self, server, path,
                                               declared, status, message):
        body = json.dumps(PARIS_ROW).encode("utf-8")
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length",
                                 declared or str(len(body)))
            connection.endheaders(body)
            response = connection.getresponse()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            assert message in json.loads(response.read())["error"]
            # The unread body must not be parsed as the next request:
            # the client reconnects and gets its own answer.
            connection.request("POST", "/impute", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["row"]["country"] == \
                "france"
        finally:
            connection.close()


class TestServingMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == 51.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_snapshot_counts(self):
        metrics = ServingMetrics()
        for latency in (0.01, 0.02, 0.03):
            metrics.record_request(latency, n_rows=2)
        metrics.record_request(0.5, ok=False)
        metrics.record_batch(3)
        metrics.record_batch(3)
        metrics.record_batch(1)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 4
        assert snapshot["errors"] == 1
        assert snapshot["rows_imputed"] == 6
        assert snapshot["latency_ms"]["count"] == 3
        assert snapshot["latency_ms"]["mean"] == pytest.approx(20.0)
        assert snapshot["batch_size_histogram"] == {"1": 1, "3": 2}
        assert snapshot["mean_batch_size"] == pytest.approx(7 / 3)

    def test_histogram_memory_is_constant(self):
        metrics = ServingMetrics()
        for index in range(10_000):
            metrics.record_request(float(index % 7) * 1e-3)
        snapshot = metrics.snapshot()["latency_ms"]
        assert snapshot["count"] == 10_000
        # Fixed buckets: the histogram never grows with traffic.
        assert len(snapshot["histogram"]["buckets_ms"]) <= 40


class TestLatencyHistogram:
    def test_quantiles_are_bucket_upper_bounds(self):
        histogram = LatencyHistogram(bounds=(0.001, 0.01, 0.1, 1.0))
        for _ in range(98):
            histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(0.5)
        assert histogram.quantile(50) == 0.01
        assert histogram.quantile(99) == 0.1
        assert histogram.quantile(100) == 1.0
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(
            (98 * 0.005 + 0.05 + 0.5) / 100)

    def test_overflow_reports_observed_max(self):
        histogram = LatencyHistogram(bounds=(0.001, 0.01))
        histogram.observe(5.0)
        assert histogram.quantile(99) == 5.0
        assert histogram.snapshot()["buckets_ms"]["+Inf"] == 1

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(99) == 0.0
        assert histogram.mean == 0.0

    def test_merge(self):
        left = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        right = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        for _ in range(10):
            left.observe(0.0005)
        for _ in range(10):
            right.observe(0.05)
        left.merge(right)
        assert left.count == 20
        assert left.quantile(50) == 0.001
        assert left.quantile(99) == 0.1
        with pytest.raises(ValueError):
            left.merge(LatencyHistogram(bounds=(0.5,)))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(0.1, 0.01))
