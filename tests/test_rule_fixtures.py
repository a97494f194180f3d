"""Declarative true/false-positive fixtures for every lint rule.

One table, ``FIXTURES``, drives the whole file: each registered rule
must prove at least one *true positive* (the rule fires) and one
*false positive* (the sanctioned pattern stays silent).  The sync
tests at the bottom hold the registry, this table, the docs catalog,
and the README to the same rule list — adding a rule without fixtures
or docs fails CI, exactly like ``test_ci_gate.py`` holds the workflow
and Makefile together.

A fixture is either ``(module, source)`` — linted as one file — or a
``{path: source}`` dict linted as a multi-file project through
:func:`repro.analysis.lint_sources` (the interprocedural rules need
taint to cross module boundaries).
"""

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_source, lint_sources

REPO_ROOT = Path(__file__).resolve().parent.parent

FIXTURES = {
    "RPR001": {
        "true": [
            ("repro.tensor.x", "x = np.float64(3.0)\n"),
            ("repro.nn.x", "a = np.zeros((2, 3))\n"),
        ],
        "false": [
            ("repro.tensor.x",
             "a = np.zeros((2, 3), dtype=get_default_dtype())\n"),
            ("repro.serve.x", "x = np.float64(3.0)\n"),  # out of scope
        ],
    },
    "RPR002": {
        "true": [
            ("repro.core.x", "y = Tensor(x.data)\n"),
            ("repro.core.x", "y = Tensor.ensure(x.data)\n"),
        ],
        "false": [
            ("repro.core.x", "y = Tensor(array, requires_grad=True)\n"),
            ("repro.core.x", "w = x.detach()\n"),
        ],
    },
    "RPR003": {
        "true": [
            ("repro.tensor.x", "with tracer.span('op'):\n    pass\n"),
            ("repro.gnn.x", "_OPS.record(op)\n"),
        ],
        "false": [
            ("repro.tensor.x",
             "if _OPS.enabled:\n    _OPS.record(op)\n"),
            ("repro.nn.x", "with detail_span('layer'):\n    pass\n"),
        ],
    },
    "RPR004": {
        "true": [
            ("repro.graph.x", "import threading\n"),
            ("repro.sampling.x", "import multiprocessing\n"),
        ],
        "false": [
            ("repro.serve.batcher", "import threading\n"),
            ("repro.serve.server", "import queue\n"),
        ],
    },
    "RPR005": {
        "true": [
            ("repro.core.x", "rng = np.random.default_rng()\n"),
            ("repro.sampling.x", "x = np.random.randn(3)\n"),
        ],
        "false": [
            ("repro.core.x", "rng = np.random.default_rng(seed)\n"),
            ("repro.telemetry.x", "t = time.time()\n"),  # out of scope
        ],
    },
    "RPR006": {
        "true": [
            ("repro.datasets", "try:\n    run()\nexcept:\n    pass\n"),
        ],
        "false": [
            ("repro.datasets",
             "try:\n    run()\nexcept ValueError:\n    pass\n"),
        ],
    },
    "RPR007": {
        # Thread primitives created in code that runs inside a forked
        # worker (reachable from a worker entry point).
        "true": [
            ("repro.gnn.x",
             "import threading\n"
             "from repro.parallel import parallel_map\n"
             "def shard_fn(task, views):\n"
             "    lock = threading.Lock()\n"
             "    return task\n"
             "def run(tasks):\n"
             "    return parallel_map(shard_fn, tasks, shared={})\n"),
            # The serving layer is threads-only and owns no forked code.
            ("repro.serve.x",
             "import multiprocessing\n"
             "import threading\n"
             "def worker_main(spec):\n"
             "    lock = threading.Lock()\n"
             "    return spec\n"
             "def launch(spec):\n"
             "    return multiprocessing.Process(target=worker_main,\n"
             "                                   args=(spec,))\n"),
            # Reachability crosses module boundaries.
            {"repro/embeddings/a.py":
                "from repro.parallel import ShardPool\n"
                "from repro.embeddings.b import shard_fn\n"
                "def run(shared):\n"
                "    pool = ShardPool(shard_fn, workers=2,"
                " shared=shared)\n"
                "    pool.close()\n",
             "repro/embeddings/b.py":
                "import threading\n"
                "from repro.embeddings.c import helper\n"
                "def shard_fn(task, views):\n"
                "    return helper(task)\n",
             "repro/embeddings/c.py":
                "import threading\n"
                "def helper(task):\n"
                "    event = threading.Event()\n"
                "    return task\n"},
        ],
        "false": [
            # Sanctioned owner: the pool substrate may create threads in
            # the code its forked workers run.
            ("repro.parallel.x",
             "import multiprocessing\n"
             "import threading\n"
             "def worker_main(spec):\n"
             "    lock = threading.Lock()\n"
             "    return spec\n"
             "def launch(spec):\n"
             "    return multiprocessing.Process(target=worker_main,\n"
             "                                   args=(spec,))\n"),
            # Not reachable from any worker entry -> parent-side code.
            ("repro.gnn.x",
             "import threading\n"
             "def parent_side():\n"
             "    return threading.Lock()\n"),
        ],
    },
    "RPR008": {
        # Writes into arrays that alias a shared-memory segment.
        "true": [
            ("repro.core.x",
             "from repro.parallel import attach_shared\n"
             "def worker(specs):\n"
             "    views = attach_shared(specs)\n"
             "    views['x'][0] = 1.0\n"),
            # The shared views parameter of a registered worker,
            # mutated two calls deep in another module.
            {"repro/embeddings/a.py":
                "from repro.parallel import parallel_map\n"
                "from repro.embeddings.b import mutate\n"
                "def shard(task, views):\n"
                "    mutate(views)\n"
                "def run(tasks):\n"
                "    parallel_map(shard, tasks, shared={})\n",
             "repro/embeddings/b.py":
                "def mutate(views):\n"
                "    views['x'][:] = 0\n"},
        ],
        "false": [
            # Materializing first is the sanctioned pattern.
            ("repro.core.x",
             "from repro.parallel import attach_shared\n"
             "def worker(specs):\n"
             "    views = attach_shared(specs)\n"
             "    mine = views['x'].copy()\n"
             "    mine[0] = 1.0\n"),
            ("repro.core.x",
             "import numpy as np\n"
             "from repro.parallel import attach_shared\n"
             "def worker(specs):\n"
             "    views = attach_shared(specs)\n"
             "    fresh = np.array(views['x'])\n"
             "    fresh.sort()\n"),
        ],
    },
    "RPR009": {
        # Seeded RNG whose seed has no provenance from the seed tree.
        "true": [
            ("repro.sampling.x",
             "import os\n"
             "import numpy as np\n"
             "def make():\n"
             "    return np.random.default_rng(os.getpid())\n"),
            ("repro.core.x",
             "import numpy as np\n"
             "def make(payload):\n"
             "    return np.random.default_rng(payload)\n"),
        ],
        "false": [
            # spawn_seeds children are the sanctioned derivation.
            ("repro.sampling.x",
             "import numpy as np\n"
             "from repro.parallel import spawn_seeds\n"
             "def make(rng):\n"
             "    children = spawn_seeds(rng, 4)\n"
             "    return [np.random.default_rng(child)"
             " for child in children]\n"),
            # An explicit constant seed is a config seed.
            ("repro.sampling.x",
             "import numpy as np\n"
             "rng = np.random.default_rng(1234)\n"),
            # A seed-named parameter is visibly threaded provenance.
            ("repro.core.x",
             "import numpy as np\n"
             "def make(seed):\n"
             "    return np.random.default_rng(seed)\n"),
        ],
    },
}


def lint_fixture(fixture, rules=None):
    if isinstance(fixture, dict):
        return lint_sources(fixture, rules=rules)
    module, source = fixture
    return lint_source(source, module=module,
                       path=module.replace(".", "/") + ".py",
                       rules=rules)


def fixture_cases(kind):
    for code, table in sorted(FIXTURES.items()):
        for index, fixture in enumerate(table[kind]):
            yield pytest.param(code, fixture, id=f"{code}-{kind}{index}")


class TestTruePositives:
    @pytest.mark.parametrize("code,fixture", fixture_cases("true"))
    def test_rule_fires(self, code, fixture):
        findings = lint_fixture(fixture)
        assert code in {finding.rule for finding in findings}, \
            f"{code} did not fire on its true-positive fixture"

    @pytest.mark.parametrize("code,fixture", fixture_cases("true"))
    def test_rule_fires_in_isolation(self, code, fixture):
        """The finding must come from the rule itself, not a neighbor
        (running only this rule still flags the fixture)."""
        findings = lint_fixture(fixture, rules=[code])
        assert {finding.rule for finding in findings} == {code}


class TestFalsePositives:
    @pytest.mark.parametrize("code,fixture", fixture_cases("false"))
    def test_rule_stays_silent(self, code, fixture):
        findings = lint_fixture(fixture, rules=[code])
        assert findings == [], \
            f"{code} false-positive fixture was flagged: {findings}"


class TestRuleSync:
    """Registry, fixture table, docs catalog, and README stay in step."""

    def test_every_rule_has_fixtures(self):
        registered = sorted(all_rules())
        assert sorted(FIXTURES) == registered
        for code, table in FIXTURES.items():
            assert table["true"], f"{code} has no true-positive fixture"
            assert table["false"], f"{code} has no false-positive fixture"

    def test_every_rule_documented_in_catalog(self):
        catalog = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for code in all_rules():
            assert f"**{code}" in catalog, \
                f"{code} missing from docs/static-analysis.md catalog"

    def test_every_rule_listed_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for code in all_rules():
            assert code in readme, f"{code} missing from README.md"

    def test_rules_carry_rationale_and_title(self):
        for code, rule in all_rules().items():
            assert rule.title, f"{code} has no title"
            assert rule.rationale, f"{code} has no rationale"
            assert rule.severity in ("error", "warning")
