"""Per-rule fixtures for the ``repro.analysis`` lint engine.

Every rule gets a true-positive snippet (must be flagged) and a
false-positive snippet (must stay silent), plus scope and suppression
behavior; the final test lints the real ``src/repro`` tree and demands
a clean baseline — which is what the CI lint step gates on.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    module_of,
    render_text,
    report_json,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings):
    return sorted({finding.rule for finding in findings})


class TestEngine:
    def test_all_rules_registered(self):
        assert sorted(all_rules()) == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR009", "RPR010"]

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError, match="RPR999"):
            get_rule("RPR999")

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", module="repro.tensor.x")
        assert codes(findings) == ["RPR000"]
        assert findings[0].severity == "error"

    def test_module_of_anchors_at_repro(self):
        assert module_of("src/repro/tensor/tensor.py") == \
            "repro.tensor.tensor"
        assert module_of("src/repro/nn/__init__.py") == "repro.nn"
        assert module_of("scripts/helper.py") == "helper"

    def test_rule_selection(self):
        source = "import threading\nx = np.float64(1.0)\n"
        both = lint_source(source, module="repro.tensor.x")
        assert codes(both) == ["RPR001", "RPR004"]
        only = lint_source(source, module="repro.tensor.x",
                           rules=["RPR004"])
        assert codes(only) == ["RPR004"]

    def test_render_and_report(self):
        findings = lint_source("x = np.float64(1.0)\n",
                               module="repro.tensor.x", path="x.py")
        text = render_text(findings)
        assert "x.py:1:" in text and "RPR001" in text
        assert "1 error(s), 0 warning(s)" in text
        report = report_json(findings, paths=["x.py"])
        assert report["schema"] == "repro.lint-report/2"
        assert report["counts"] == {"error": 1, "warning": 0}
        assert report["findings"][0]["rule"] == "RPR001"

    def test_clean_render(self):
        assert render_text([]) == "clean: no lint findings"

    def test_lint_paths_missing_entry_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([REPO_ROOT / "no_such_tree"])


class TestSuppressions:
    def test_named_noqa_silences_only_that_rule(self):
        source = ("import threading  # repro: noqa[RPR004] -- sanctioned\n"
                  "x = np.float64(1.0)\n")
        findings = lint_source(source, module="repro.tensor.x")
        assert codes(findings) == ["RPR001"]

    def test_bare_noqa_silences_all_rules(self):
        source = "x = np.zeros(3)  # repro: noqa\n"
        findings = lint_source(source, module="repro.tensor.x")
        assert findings == []

    def test_noqa_for_other_rule_does_not_silence(self):
        source = "x = np.float64(1.0)  # repro: noqa[RPR004]\n"
        findings = lint_source(source, module="repro.tensor.x")
        assert codes(findings) == ["RPR001"]

    def test_reason_clause_is_accepted(self):
        source = ("x = np.float64(1.0)"
                  "  # repro: noqa[RPR001] -- dtype registry itself\n")
        findings = lint_source(source, module="repro.tensor.x")
        assert findings == []


class TestFloat64Drift:
    def test_flags_float64_attribute(self):
        findings = lint_source("x = np.float64(3.0)\n",
                               module="repro.gnn.plan")
        assert codes(findings) == ["RPR001"]

    def test_flags_dtype_string_literal(self):
        findings = lint_source("a = np.asarray(v, dtype='float64')\n",
                               module="repro.nn.layers")
        assert codes(findings) == ["RPR001"]

    def test_flags_dtypeless_allocators(self):
        for allocator in ("zeros", "ones", "empty"):
            findings = lint_source(f"a = np.{allocator}((2, 3))\n",
                                   module="repro.tensor.tensor")
            assert codes(findings) == ["RPR001"], allocator
        findings = lint_source("a = rng.standard_normal((2, 3))\n",
                               module="repro.nn.init")
        assert codes(findings) == ["RPR001"]

    def test_explicit_dtype_passes(self):
        source = ("a = np.zeros((2, 3), dtype=get_default_dtype())\n"
                  "b = rng.standard_normal(4, dtype=np.float32)\n")
        assert lint_source(source, module="repro.tensor.tensor") == []

    def test_out_of_scope_module_passes(self):
        source = "x = np.float64(3.0)\n"
        assert lint_source(source, module="repro.serve.engine") == []
        assert lint_source(source, module="repro.datasets") == []

    def test_embedding_and_parallel_packages_in_scope(self):
        # The embedding pre-compute and worker pool feed the hot path,
        # so dtype discipline applies there too.
        source = "x = np.float64(3.0)\n"
        for module in ("repro.embeddings.sgns", "repro.embeddings.walks",
                       "repro.parallel.pool"):
            findings = lint_source(source, module=module)
            assert codes(findings) == ["RPR001"], module


class TestGradDropped:
    def test_flags_wrapping_data(self):
        findings = lint_source("y = Tensor(x.data)\n",
                               module="repro.core.model")
        assert codes(findings) == ["RPR002"]

    def test_flags_ensure_and_numpy(self):
        assert codes(lint_source("y = Tensor.ensure(x.data)\n",
                                 module="repro.serve.engine")) == ["RPR002"]
        assert codes(lint_source("y = Tensor(x.numpy())\n",
                                 module="repro.serve.engine")) == ["RPR002"]

    def test_plain_construction_passes(self):
        source = ("y = Tensor(array, requires_grad=True)\n"
                  "z = Tensor.ensure(values)\n"
                  "w = x.detach()\n")
        assert lint_source(source, module="repro.core.model") == []


class TestUngatedTelemetry:
    def test_flags_raw_span(self):
        findings = lint_source("with tracer.span('op'):\n    pass\n",
                               module="repro.tensor.tensor")
        assert codes(findings) == ["RPR003"]

    def test_flags_unguarded_record(self):
        findings = lint_source("_OPS.record(op)\n",
                               module="repro.tensor.tensor")
        assert codes(findings) == ["RPR003"]

    def test_guarded_record_passes(self):
        source = ("if _OPS.enabled:\n"
                  "    _OPS.record(op)\n")
        assert lint_source(source, module="repro.tensor.tensor") == []

    def test_detail_span_passes(self):
        source = "with detail_span('layer'):\n    pass\n"
        assert lint_source(source, module="repro.nn.layers") == []

    def test_counters_inc_passes(self):
        # Always-on registry counters are the repo's deliberate pattern
        # (tests assert them with telemetry disabled).
        assert lint_source("_HITS.inc()\n",
                           module="repro.gnn.sparse") == []

    def test_span_outside_hot_path_passes(self):
        source = "with tracer.span('flush'):\n    pass\n"
        assert lint_source(source, module="repro.serve.batcher") == []


class TestRawThreading:
    def test_flags_threading_import(self):
        for statement in ("import threading",
                          "import queue",
                          "from concurrent.futures import ThreadPoolExecutor",
                          "import multiprocessing as mp"):
            findings = lint_source(statement + "\n",
                                   module="repro.graph.builder")
            assert codes(findings) == ["RPR004"], statement

    def test_serve_package_is_exempt(self):
        source = "import threading\nimport queue\n"
        assert lint_source(source, module="repro.serve.batcher") == []

    def test_parallel_package_is_exempt(self):
        # repro.parallel is the second sanctioned concurrency home
        # (process pools + shared memory for the embedding pre-compute).
        source = ("import multiprocessing\n"
                  "from multiprocessing import shared_memory\n")
        assert lint_source(source, module="repro.parallel.pool") == []

    def test_multiprocessing_still_flagged_elsewhere(self):
        findings = lint_source("import multiprocessing\n",
                               module="repro.embeddings.walks")
        assert codes(findings) == ["RPR004"]

    def test_no_serve_module_owns_process_primitives(self):
        # The serving layer is threads-only: no module of repro.serve,
        # whatever its name, may own process primitives.
        source = ("import multiprocessing\n"
                  "import threading\n"
                  "import queue\n")
        for module in ("repro.serve.server", "repro.serve.dispatch",
                       "repro.serve.workers"):
            assert codes(lint_source(source, module=module)) == \
                ["RPR004"], module

    def test_process_primitives_flagged_in_threaded_serve_modules(self):
        # Inside repro.serve, threads are sanctioned but the process
        # side belongs to repro.parallel: an ad-hoc process tier in
        # e.g. the batcher would dodge the supervision and
        # shared-memory lifetime audit.
        for statement in ("import multiprocessing",
                          "from multiprocessing import shared_memory",
                          "from concurrent.futures import "
                          "ProcessPoolExecutor"):
            findings = lint_source(statement + "\n",
                                   module="repro.serve.batcher")
            assert codes(findings) == ["RPR004"], statement
        # ... while thread primitives there stay clean.
        assert lint_source("import threading\nimport queue\n",
                           module="repro.serve.batcher") == []

    def test_training_modules_are_not_exempt(self):
        # Sampled training has one serial path: the trainer and its
        # step own no concurrency primitives, threads or processes.
        for module in ("repro.core.step", "repro.core.trainer"):
            for statement in ("import multiprocessing", "import queue",
                              "import threading"):
                findings = lint_source(statement + "\n", module=module)
                assert codes(findings) == ["RPR004"], (module, statement)

    def test_distributed_exemption_does_not_leak(self):
        # The exemptions are packages, not words: training code outside
        # repro.parallel still may not grow a pool.
        for module in ("repro.core.trainer", "repro.tensor.tensor",
                       "repro.sampling.minibatch"):
            findings = lint_source("import multiprocessing\n",
                                   module=module)
            assert codes(findings) == ["RPR004"], module

    def test_sampling_package_stays_in_scope(self):
        # repro.sampling describes deterministic schedules and hands
        # seeds around via repro.parallel.spawn_seeds — it must not
        # quietly grow its own pool or thread tier.
        findings = lint_source("import multiprocessing\n",
                               module="repro.sampling.minibatch")
        assert codes(findings) == ["RPR004"]
        assert lint_source("from ..parallel import spawn_seeds\n",
                           module="repro.sampling.minibatch") == []

    def test_unrelated_import_passes(self):
        assert lint_source("import itertools\n",
                           module="repro.graph.builder") == []


class TestNondeterminism:
    def test_flags_unseeded_default_rng(self):
        findings = lint_source("rng = np.random.default_rng()\n",
                               module="repro.core.model")
        assert codes(findings) == ["RPR005"]
        assert findings[0].severity == "warning"

    def test_seeded_default_rng_passes(self):
        assert lint_source("rng = np.random.default_rng(seed)\n",
                           module="repro.core.model") == []

    def test_flags_legacy_global_rng(self):
        findings = lint_source("x = np.random.randn(3)\n",
                               module="repro.graph.walk")
        assert codes(findings) == ["RPR005"]

    def test_flags_wall_clock(self):
        assert codes(lint_source("t = time.time()\n",
                                 module="repro.core.model")) == ["RPR005"]
        assert codes(lint_source("d = datetime.now()\n",
                                 module="repro.core.model")) == ["RPR005"]

    def test_out_of_scope_module_passes(self):
        source = "rng = np.random.default_rng()\nt = time.time()\n"
        assert lint_source(source, module="repro.telemetry.tracer") == []
        assert lint_source(source, module="repro.serve.server") == []

    def test_sampling_flags_bare_global_rng(self):
        findings = lint_source("cols = np.random.choice(nodes, k)\n",
                               module="repro.sampling.sampler")
        assert codes(findings) == ["RPR005"]

    def test_sampling_flags_unseeded_default_rng(self):
        assert codes(lint_source("rng = np.random.default_rng()\n",
                                 module="repro.sampling.minibatch")) == \
            ["RPR005"]

    def test_sampling_spawned_seed_rng_passes(self):
        source = ("seeds = spawn_seeds(rng, n)\n"
                  "child = np.random.default_rng(seeds[0])\n")
        assert lint_source(source, module="repro.sampling.minibatch") == []

    def test_distributed_flags_unseeded_rng(self):
        # Each batch's sampling draw is part of the training result: an
        # unseeded draw in the step would break the bit-identical
        # sampled fit, so RPR005 covers the module that runs it.
        assert codes(lint_source("rng = np.random.default_rng()\n",
                                 module="repro.core.step")) == \
            ["RPR005"]
        assert lint_source("rng = np.random.default_rng(seed)\n",
                           module="repro.core.step") == []


class TestBareExcept:
    def test_flags_bare_except(self):
        source = ("try:\n    run()\n"
                  "except:\n    pass\n")
        findings = lint_source(source, module="repro.datasets")
        assert codes(findings) == ["RPR006"]

    def test_flags_base_exception_without_reraise(self):
        source = ("try:\n    run()\n"
                  "except BaseException:\n    log()\n")
        assert codes(lint_source(source,
                                 module="repro.datasets")) == ["RPR006"]

    def test_base_exception_with_reraise_passes(self):
        source = ("try:\n    run()\n"
                  "except BaseException:\n    cleanup()\n    raise\n")
        assert lint_source(source, module="repro.datasets") == []

    def test_hot_path_swallowed_exception_flagged(self):
        source = ("try:\n    run()\n"
                  "except Exception:\n    pass\n")
        assert codes(lint_source(source,
                                 module="repro.tensor.tensor")) == ["RPR006"]
        # The same swallow outside the hot path is tolerated (metrics
        # callbacks etc. suppress deliberately).
        assert lint_source(source, module="repro.serve.batcher") == []

    def test_narrow_handler_passes(self):
        source = ("try:\n    run()\n"
                  "except ValueError:\n    pass\n")
        assert lint_source(source, module="repro.tensor.tensor") == []


class TestSuppressionEdgeCases:
    def test_multi_code_noqa_silences_each_listed_rule(self):
        source = ("import threading\n"
                  "x = np.float64(1.0)"
                  "  # repro: noqa[RPR001,RPR004] -- registry line\n")
        findings = lint_source(source, module="repro.tensor.x")
        assert codes(findings) == ["RPR004"]  # only line 2 is covered
        one_line = ("x = np.float64(threading.Lock())"
                    "  # repro: noqa[RPR001,RPR004]\n")
        assert lint_source(one_line, module="repro.tensor.x") == []

    def test_unknown_code_in_noqa_warns_instead_of_accepting(self):
        source = ("x = np.float64(1.0)"
                  "  # repro: noqa[RPR001,RPRXYZ] -- typo'd code\n")
        findings = lint_source(source, module="repro.tensor.x")
        # RPR001 is suppressed, but the unknown code surfaces as an
        # RPR000 warning rather than silently doing nothing.
        assert codes(findings) == ["RPR000"]
        assert findings[0].severity == "warning"
        assert "RPRXYZ" in findings[0].message

    def test_noqa_on_any_line_of_multiline_statement_covers_it(self):
        source = ("x = np.float64(\n"
                  "    3.0)  # repro: noqa[RPR001] -- spans the call\n")
        assert lint_source(source, module="repro.tensor.x") == []
        # ... but an adjacent statement is not covered.
        source = ("x = np.float64(\n"
                  "    3.0)  # repro: noqa[RPR001]\n"
                  "y = np.float64(4.0)\n")
        findings = lint_source(source, module="repro.tensor.x")
        assert [finding.line for finding in findings] == [3]

    def test_noqa_on_decorator_covers_the_def_header(self):
        source = ("@register  # repro: noqa[RPR001] -- dtype registry\n"
                  "def convert(dtype=np.float64):\n"
                  "    return dtype\n")
        assert lint_source(source, module="repro.tensor.x") == []

    def test_noqa_inside_function_body_does_not_leak_to_siblings(self):
        source = ("def f():\n"
                  "    a = np.float64(1.0)  # repro: noqa[RPR001]\n"
                  "    b = np.float64(2.0)\n")
        findings = lint_source(source, module="repro.tensor.x")
        assert [finding.line for finding in findings] == [3]

    def test_finding_order_is_byte_stable(self):
        source = ("import threading\n"
                  "x = np.float64(np.zeros(3))\n"
                  "rng = np.random.default_rng()\n")
        rendered = {render_text(lint_source(source,
                                            module="repro.tensor.x"))
                    for _ in range(5)}
        assert len(rendered) == 1
        ordered = lint_source(source, module="repro.tensor.x")
        assert [(f.path, f.line, f.column, f.rule, f.message)
                for f in ordered] == \
            sorted((f.path, f.line, f.column, f.rule, f.message)
                   for f in ordered)


class TestRepoBaseline:
    def test_src_repro_lints_clean(self):
        """The committed tree must stay lint-clean — this is the same
        invariant the blocking CI step enforces."""
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], render_text(findings)
