"""Static analysis and runtime sanitizing for the reproduction.

Three engines, all dependency-free (see ``docs/static-analysis.md``):

* the **lint engine** (:mod:`~repro.analysis.engine`,
  :mod:`~repro.analysis.rules`) — rules ``RPR001``–``RPR009`` for
  project invariants no generic linter knows (float32 hot path, gated
  telemetry, serve-only threads and one process, seeded model code),
  with per-line ``repro: noqa`` suppressions and JSON reports, plus
  the interprocedural passes (:mod:`~repro.analysis.summaries`,
  :mod:`~repro.analysis.callgraph`, :mod:`~repro.analysis.taint`)
  behind rules ``RPR007``–``RPR009`` (fork safety, shared-memory write
  safety, RNG provenance) and the incremental lint cache
  (:mod:`~repro.analysis.cache`);
* the **graph checker** (:mod:`~repro.analysis.graphcheck`) — abstract
  shape/dtype interpretation over message-passing plans, module trees,
  and checkpoint manifests, without running a forward pass;
* the **anomaly sanitizer** (:mod:`~repro.analysis.anomaly`) — an
  opt-in runtime mode (``REPRO_ANOMALY=1`` or
  :class:`~repro.analysis.anomaly.detect_anomalies`) that attributes
  the first NaN/Inf of a run to the op and telemetry span path that
  produced it.

Everything is wired into the ``repro lint`` CLI, ``make lint``, and a
blocking CI step.

NOTE: this package is imported by :mod:`repro.tensor` (the sanitizer
hook), so its module-level imports must stay standard-library + numpy
and must not import other ``repro`` packages eagerly.
"""

from .anomaly import (
    ANOMALY_ENV,
    AnomalyError,
    check_array,
    detect_anomalies,
)
from .anomaly import enabled as anomaly_enabled
from .anomaly import set_enabled as set_anomaly_enabled
from .cache import CACHE_ENV as LINT_CACHE_ENV
from .cache import LintCache
from .engine import (
    LINT_SCHEMA,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
    module_of,
    render_github,
    render_text,
    report_json,
    write_report,
)
from .graphcheck import (
    PlanProblem,
    check_checkpoint,
    check_module,
    check_operators,
    check_plan,
)

__all__ = [
    "ANOMALY_ENV",
    "AnomalyError",
    "Finding",
    "LINT_CACHE_ENV",
    "LINT_SCHEMA",
    "LintCache",
    "PlanProblem",
    "ProjectRule",
    "Rule",
    "all_rules",
    "anomaly_enabled",
    "check_array",
    "check_checkpoint",
    "check_module",
    "check_operators",
    "check_plan",
    "detect_anomalies",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "module_of",
    "render_github",
    "render_text",
    "report_json",
    "set_anomaly_enabled",
    "write_report",
]
