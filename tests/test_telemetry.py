"""Tests for the telemetry subsystem: tracer, registry, events, manifest.

Covers the ISSUE-3 acceptance surface: span nesting and exception
safety, exact aggregation under bounded retention, the JSONL
round-trip rendering identically to the live tracer, plan-cache
counter correctness, and run-manifest schema validation.
"""

import json
import threading

import numpy as np
import pytest
from scipy import sparse

from repro.gnn.plan import MessagePassingPlan, PlannedOperator
from repro.gnn.sparse import _PLAN_HITS, sparse_matmul
from repro.telemetry import (
    MANIFEST_SCHEMA,
    NO_OP_SPAN,
    TENSOR_OPS,
    Tracer,
    build_manifest,
    counter,
    current_tracer,
    detail_span,
    enabled,
    gauge,
    get_registry,
    load_manifest,
    read_events,
    render_tree,
    replay,
    set_enabled,
    validate_manifest,
    write_jsonl,
    write_manifest,
)
from repro.tensor import Tensor


@pytest.fixture
def telemetry_off():
    """Ensure detailed telemetry is off before and after a test."""
    previous = enabled()
    set_enabled(False)
    yield
    set_enabled(previous)


@pytest.fixture
def telemetry_on():
    previous = enabled()
    set_enabled(True)
    yield
    set_enabled(previous)


class TestSpanNesting:
    def test_paths_join_the_ancestry(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("train"):
                with tracer.span("epoch"):
                    pass
        paths = [span.path for span in tracer.spans()]
        assert paths == ["fit/train/epoch", "fit/train", "fit"]

    def test_siblings_share_the_parent_prefix(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            with tracer.span("forward"):
                pass
            with tracer.span("backward"):
                pass
        aggregate = tracer.aggregate()
        assert "epoch/forward" in aggregate
        assert "epoch/backward" in aggregate

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValueError, match="must not contain"):
            Tracer().span("a/b")

    def test_attrs_set_and_add(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=3) as span:
            span.set(loss=0.5)
            span.add("steps")
            span.add("steps")
        recorded = tracer.spans()[0]
        assert recorded.attrs == {"epoch": 3, "loss": 0.5, "steps": 2}

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait(timeout=5)
                with tracer.span("inner"):
                    pass

        threads = [threading.Thread(target=work, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        paths = {span.path for span in tracer.spans()}
        assert paths == {"a", "b", "a/inner", "b/inner"}


class TestExceptionSafety:
    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("explodes"):
                raise RuntimeError("boom")
        span = tracer.spans()[0]
        assert span.status == "error"
        assert span.error == "RuntimeError"
        assert tracer.aggregate()["explodes"]["errors"] == 1
        assert not tracer.has_open_spans()

    def test_error_in_child_unwinds_the_whole_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fit"):
                with tracer.span("train"):
                    raise ValueError("nope")
        assert not tracer.has_open_spans()
        assert tracer.aggregate()["fit"]["errors"] == 1

    def test_out_of_order_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            tracer._exit(outer)


class TestAggregation:
    def test_exact_under_eviction(self):
        tracer = Tracer(max_spans=3)
        for _ in range(10):
            with tracer.span("work"):
                pass
        assert len(tracer.spans()) == 3
        assert tracer.dropped == 7
        assert tracer.aggregate()["work"]["count"] == 10

    def test_aggregate_only_mode(self):
        tracer = Tracer(max_spans=0)
        for _ in range(5):
            with tracer.span("request"):
                pass
        assert tracer.spans() == []
        assert tracer.aggregate()["request"]["count"] == 5

    def test_clear_resets(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.clear()
        assert tracer.aggregate() == {}
        assert tracer.spans() == []


class TestActivation:
    def test_detail_span_requires_enabled_and_active(self, telemetry_off):
        tracer = Tracer()
        assert detail_span("x") is NO_OP_SPAN
        with tracer.activate():
            assert detail_span("x") is NO_OP_SPAN   # enabled() is False
        set_enabled(True)
        assert detail_span("x") is NO_OP_SPAN       # no active tracer
        with tracer.activate():
            with detail_span("x"):
                pass
        assert tracer.aggregate()["x"]["count"] == 1

    def test_activation_restores_previous(self):
        first, second = Tracer(), Tracer()
        with first.activate():
            with second.activate():
                assert current_tracer() is second
            assert current_tracer() is first
        assert current_tracer() is None


class TestJsonlRoundTrip:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("train"):
                for epoch in range(2):
                    with tracer.span("epoch", epoch=epoch) as span:
                        span.set(loss=1.0 / (epoch + 1))
        return tracer

    def test_replay_renders_identically(self, tmp_path):
        tracer = self._traced()
        live = render_tree(tracer.spans())
        path = write_jsonl(tracer, tmp_path / "trace.jsonl",
                           run={"kind": "test"},
                           counters={"registry": {}})
        replayed = render_tree(replay(read_events(path)))
        assert replayed == live

    def test_header_and_counters_lines(self, tmp_path):
        tracer = self._traced()
        path = write_jsonl(tracer, tmp_path / "trace.jsonl",
                           run={"kind": "test"},
                           counters={"c": 1})
        events = read_events(path)
        assert events[0]["type"] == "run"
        assert events[0]["run"] == {"kind": "test"}
        assert events[-1] == {"type": "counters", "counters": {"c": 1}}

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "run", "schema": "other/9"})
                        + "\n")
        with pytest.raises(ValueError, match="not a repro.trace-events"):
            read_events(path)

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_events(path)

    def test_replay_requires_span_fields(self):
        with pytest.raises(ValueError, match="missing 'duration'"):
            replay([{"type": "span", "id": 1, "name": "x", "path": "x",
                     "status": "ok"}])


class TestManifest:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("fit"):
            pass
        manifest = build_manifest({"kind": "test"}, tracer=tracer,
                                  metrics={"speedup": 2.0})
        path = write_manifest(manifest, tmp_path / "manifest.json")
        loaded = load_manifest(path)
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["metrics"] == {"speedup": 2.0}
        assert "fit" in loaded["spans"]

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            build_manifest({"kind": "test"}, metrics={"bad": "fast"})

    def test_boolean_metric_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            build_manifest({"kind": "test"}, metrics={"bad": True})

    def test_unknown_schema_rejected(self):
        manifest = build_manifest({"kind": "test"})
        manifest["schema"] = "repro.run-manifest/999"
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            validate_manifest(manifest)

    def test_missing_field_rejected(self):
        manifest = build_manifest({"kind": "test"})
        del manifest["counters"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_manifest(manifest)


class TestRegistry:
    def test_counter_and_gauge(self):
        c = counter("test.registry.hits", "test counter")
        base = c.value
        c.inc()
        c.inc(2)
        assert c.value == base + 3
        g = gauge("test.registry.depth", "test gauge")
        g.set(7)
        snapshot = get_registry().snapshot()
        assert snapshot["test.registry.hits"] == base + 3
        assert snapshot["test.registry.depth"] == 7

    def test_negative_increment_rejected(self):
        c = counter("test.registry.neg", "test counter")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_returns_same_instance(self):
        assert counter("test.registry.same", "a") is \
            counter("test.registry.same", "b")

    def test_type_conflict_rejected(self):
        counter("test.registry.conflict", "a counter")
        with pytest.raises(TypeError):
            gauge("test.registry.conflict", "now a gauge")


class TestPlanCacheCounters:
    def _matrix(self):
        rng = np.random.default_rng(0)
        return sparse.random(8, 8, density=0.4, random_state=rng,
                             format="coo")

    def test_planned_dispatch_counts_hits(self):
        plan = MessagePassingPlan({"c": self._matrix().tocsr()})
        x = Tensor(np.ones((8, 3)))
        before = _PLAN_HITS.value
        sparse_matmul(plan["c"], x)
        sparse_matmul(plan["c"], x)
        assert _PLAN_HITS.value == before + 2

    def test_registry_mirrors_conversion_counts(self):
        snapshot_before = get_registry().snapshot()
        PlannedOperator.compile(self._matrix(),   # coo -> csr conversion
                                build_backward=False)
        snapshot_after = get_registry().snapshot()
        assert snapshot_after["plan.conversions.tocsr"] == \
            snapshot_before["plan.conversions.tocsr"] + 1


class TestTensorOpCounters:
    def test_disabled_records_nothing(self, telemetry_off):
        before = TENSOR_OPS.snapshot()["total_ops"]
        (Tensor(np.ones(4)) + Tensor(np.ones(4))).sum()
        assert TENSOR_OPS.snapshot()["total_ops"] == before

    def test_enabled_records_ops_and_bytes(self, telemetry_on):
        TENSOR_OPS.reset()
        (Tensor(np.ones(4)) + Tensor(np.ones(4))).sum()
        snapshot = TENSOR_OPS.snapshot()
        assert snapshot["ops"].get("add") == 1
        assert snapshot["total_ops"] >= 2
        assert snapshot["total_bytes"] > 0
        TENSOR_OPS.reset()

    def test_set_enabled_wires_the_tensor_counters(self, telemetry_off):
        assert TENSOR_OPS.enabled is False
        set_enabled(True)
        assert TENSOR_OPS.enabled is True
