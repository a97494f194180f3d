"""Unit tests for the interprocedural analyzer passes.

Pass 1 (:mod:`repro.analysis.summaries`) is tested on synthetic
sources; pass 2 (:mod:`repro.analysis.callgraph` +
:mod:`repro.analysis.taint`) on small multi-module projects; and the
final class runs both passes over the real ``src/repro`` tree and pins
the facts the clean lint baseline rests on: the package runs in one
process, so it registers no worker entry and no parameter carries a
shared-memory view.
"""

from pathlib import Path

from repro.analysis.callgraph import link
from repro.analysis.engine import module_of
from repro.analysis.summaries import (
    MODULE_BODY,
    ModuleSummary,
    summarize_source,
)
from repro.analysis.taint import propagate

REPO_ROOT = Path(__file__).resolve().parent.parent


def summarize(source, module="repro.core.x"):
    return summarize_source(source, module,
                            module.replace(".", "/") + ".py")


def build(sources):
    summaries = [summarize_source(source, module_of(path), path)
                 for path, source in sources.items()]
    project = link(summaries)
    return project, propagate(project)


class TestSummaries:
    def test_import_table_absolute_and_aliased(self):
        summary = summarize(
            "import numpy as np\n"
            "import threading\n"
            "from repro.parallel import attach_shared as attach\n")
        assert summary.imports["np"] == "numpy"
        assert summary.imports["threading"] == "threading"
        assert summary.imports["attach"] == "repro.parallel.attach_shared"

    def test_relative_imports_resolve_against_package(self):
        summary = summarize("from ..parallel import spawn_seeds\n"
                            "from . import frozen\n",
                            module="repro.sampling.minibatch")
        assert summary.imports["spawn_seeds"] == \
            "repro.parallel.spawn_seeds"
        assert summary.imports["frozen"] == "repro.sampling.frozen"

    def test_functions_and_methods_summarized(self):
        summary = summarize(
            "def free(a, b):\n    return a\n"
            "class Thing:\n"
            "    def method(self, x):\n        return x\n")
        assert set(summary.functions) == {MODULE_BODY, "free",
                                          "Thing.method"}
        assert summary.functions["free"].params == ["a", "b"]
        assert summary.functions["Thing.method"].params == ["self", "x"]
        assert summary.classes == ["Thing"]

    def test_shared_source_tags_flow_through_aliases(self):
        summary = summarize(
            "from repro.parallel import attach_shared\n"
            "def worker(specs):\n"
            "    views = attach_shared(specs)\n"
            "    x = views['a']\n"
            "    x[0] = 1.0\n")
        writes = summary.functions["worker"].shared_writes
        assert len(writes) == 1
        line, _col, detail, tags = writes[0]
        assert detail == "item assignment"
        assert "shared" in tags

    def test_copy_strips_shared_but_keeps_seed(self):
        summary = summarize(
            "from repro.parallel import attach_shared\n"
            "def worker(specs):\n"
            "    views = attach_shared(specs)\n"
            "    mine = views['a'].copy()\n"
            "    mine[0] = 1.0\n")
        assert summary.functions["worker"].shared_writes == []

    def test_mutator_methods_and_out_kwarg_recorded(self):
        summary = summarize(
            "import numpy as np\n"
            "from repro.parallel import attach_shared\n"
            "def worker(specs):\n"
            "    views = attach_shared(specs)\n"
            "    views['a'].fill(0)\n"
            "    np.add(x, y, out=views['b'])\n")
        details = [entry[2] for entry
                   in summary.functions["worker"].shared_writes]
        assert ".fill() on a shared view" in details
        assert "out= into a shared view" in details

    def test_rng_calls_record_seed_tags(self):
        summary = summarize(
            "import numpy as np\n"
            "def make(payload, seed):\n"
            "    a = np.random.default_rng(payload)\n"
            "    b = np.random.default_rng(seed)\n"
            "    c = np.random.default_rng(7)\n")
        calls = summary.functions["make"].rng_calls
        assert len(calls) == 3
        by_line = {line: tags for line, _c, _api, tags in calls}
        assert by_line[3] == ["param:payload"]
        assert "seeded" in by_line[4]
        assert by_line[5] == ["const"]

    def test_statement_spans_cover_multiline_and_decorated(self):
        summary = summarize(
            "value = call(\n"
            "    1,\n"
            "    2,\n"
            ")\n"
            "@decorator\n"
            "def fn():\n"
            "    pass\n")
        assert (1, 4) in summary.statement_spans
        # Decorated def: span starts at the decorator line.
        assert any(start == 5 for start, _end in summary.statement_spans)

    def test_round_trips_through_json(self):
        summary = summarize(
            "from repro.parallel import attach_shared, SharedArrays\n"
            "def worker(specs):\n"
            "    views = attach_shared(specs)\n"
            "    views['a'][0] = 1\n"
            "    pack = SharedArrays({})\n",
        )
        restored = ModuleSummary.from_json(summary.to_json())
        assert restored.to_json() == summary.to_json()
        assert restored.functions["worker"].shared_writes == \
            summary.functions["worker"].shared_writes


class TestCallGraph:
    def test_worker_entry_detection_and_shared_param(self):
        project, taint = build({
            "repro/embeddings/a.py":
                "from repro.parallel import ShardPool\n"
                "from repro.embeddings.b import shard_fn, init_fn\n"
                "def run(shared):\n"
                "    pool = ShardPool(shard_fn, workers=2,"
                " shared=shared, init_fn=init_fn)\n"
                "    pool.close()\n",
            "repro/embeddings/b.py":
                "def shard_fn(task, views):\n"
                "    return task\n"
                "def init_fn(views, payload):\n"
                "    return None\n",
        })
        entries = project.worker_entries
        assert set(entries) == {"repro.embeddings.b.shard_fn",
                                "repro.embeddings.b.init_fn"}
        assert entries["repro.embeddings.b.shard_fn"].shared_param == 1
        assert entries["repro.embeddings.b.init_fn"].shared_param == 0
        assert taint.shared_params["repro.embeddings.b.shard_fn"] == \
            {"views"}
        assert taint.shared_params["repro.embeddings.b.init_fn"] == \
            {"views"}

    def test_fork_reachability_is_transitive(self):
        project, _ = build({
            "repro/core/a.py":
                "from repro.parallel import parallel_map\n"
                "from repro.core.b import entry\n"
                "def run(tasks):\n"
                "    return parallel_map(entry, tasks, shared={})\n",
            "repro/core/b.py":
                "from repro.core.c import deep\n"
                "def entry(task, views):\n"
                "    return deep(task)\n",
            "repro/core/c.py":
                "def deep(task):\n"
                "    return task\n"
                "def unreachable():\n"
                "    return None\n",
        })
        assert "repro.core.b.entry" in project.fork_reachable
        assert "repro.core.c.deep" in project.fork_reachable
        assert "repro.core.c.unreachable" not in project.fork_reachable

    def test_alias_resolution_follows_reexports(self):
        project, _ = build({
            "repro/parallel/__init__.py":
                "from .pool import parallel_map\n",
            "repro/parallel/pool.py":
                "def parallel_map(fn, tasks, shared=None):\n"
                "    return []\n",
            "repro/core/a.py":
                "from repro.parallel import parallel_map\n"
                "def entry(task, views):\n"
                "    return task\n"
                "def run(tasks):\n"
                "    return parallel_map(entry, tasks)\n",
        })
        # The registrar was imported through the package __init__
        # re-export; the entry must still be detected.
        assert "repro.core.a.entry" in project.worker_entries

    def test_shared_taint_crosses_call_boundary(self):
        project, taint = build({
            "repro/core/a.py":
                "from repro.parallel import parallel_map\n"
                "from repro.core.b import sink\n"
                "def entry(task, views):\n"
                "    sink(views)\n"
                "def run(tasks):\n"
                "    parallel_map(entry, tasks, shared={})\n",
            "repro/core/b.py":
                "def sink(data):\n"
                "    data['x'][0] = 1\n",
        })
        assert taint.shared_params.get("repro.core.b.sink") == {"data"}

    def test_seed_taint_flows_through_returns(self):
        project, taint = build({
            "repro/core/a.py":
                "from repro.parallel import spawn_seeds\n"
                "def derive(rng, n):\n"
                "    return spawn_seeds(rng, n)\n",
        })
        assert "repro.core.a.derive" in taint.returns_seeded


class TestRealRepo:
    """The analyzer's view of the actual codebase: these are the facts
    the clean lint baseline rests on, pinned so a refactor that blinds
    the analyzer (renamed registrar, moved entry) fails loudly instead
    of silently passing everything."""

    def _project(self):
        files = sorted(p for p in (REPO_ROOT / "src" / "repro")
                       .rglob("*.py") if "__pycache__" not in p.parts)
        summaries = [summarize_source(p.read_text(encoding="utf-8"),
                                      module_of(p), str(p))
                     for p in files]
        project = link(summaries)
        return project, propagate(project)

    def test_src_registers_no_worker_entry(self):
        # Fits, the EmbDI pre-compute and serving run in one process:
        # nothing in src/ hands a function to a process registrar.
        project, _ = self._project()
        assert project.worker_entries == {}

    def test_shared_views_params_resolved(self):
        # No function in src/ takes a shared-view pack as a parameter.
        # TestCallGraph's fixtures still exercise parameter resolution.
        _, taint = self._project()
        assert taint.shared_params == {}

    def test_serve_is_not_fork_reachable(self):
        # The serving tier runs in one process: none of its functions
        # (whose threads and locks RPR007 would flag) may be reachable
        # from a worker entry point.
        project, _ = self._project()
        forked = {qualname for qualname in project.fork_reachable
                  if qualname.startswith("repro.serve.")}
        assert forked == set()
