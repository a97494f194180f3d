"""The built-in ``RPR`` lint rules.

Each rule encodes one invariant this reproduction depends on; the full
catalog with rationale and suppression examples is in
``docs/static-analysis.md``.  Scopes:

* *hot-path* (``repro.tensor``, ``repro.gnn``, ``repro.nn``) — code
  that runs inside the epoch loop;
* *model* (hot-path plus ``repro.graph``, ``repro.core``) — code whose
  outputs must be reproducible under a fixed seed;
* *everywhere* — all linted modules.
"""

from __future__ import annotations

import ast

from .engine import (
    DTYPE_PACKAGES,
    HOT_PACKAGES,
    MODEL_PACKAGES,
    SERVE_PACKAGE,
    Finding,
    LintContext,
    ProjectRule,
    Rule,
    in_package,
    register,
)

__all__ = ["Float64Drift", "GradDropped", "UngatedTelemetry",
           "RawThreading", "Nondeterminism", "BareExcept",
           "ForkUnsafeThreading", "SharedWriteSafety", "RngProvenance"]

_NUMPY_NAMES = ("np", "numpy")

#: numpy allocators whose default dtype is float64; hot-path calls must
#: request a dtype explicitly so float32 training stays float32.
_FLOAT64_ALLOCATORS = ("zeros", "ones", "empty", "full")


def _is_numpy(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in _NUMPY_NAMES


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(keyword.arg == name for keyword in call.keywords)


@register
class Float64Drift(Rule):
    """RPR001 — float64 literals/allocations on the training hot path."""

    code = "RPR001"
    title = "float64 drift in hot-path modules"
    severity = "error"
    rationale = (
        "PR 1 made float32 the training default with NEP-50-safe scalar "
        "handling; a single float64 tensor silently promotes every "
        "downstream op and doubles the epoch cost.  Hot-path modules "
        "must not hard-code np.float64, pass dtype='float64', or call "
        "numpy allocators (np.zeros/ones/empty/full, "
        "rng.standard_normal) without an explicit dtype — those default "
        "to float64 regardless of the engine's default dtype.  The "
        "scope includes repro.embeddings and repro.parallel: the "
        "pre-compute's arrays feed straight into training, so drift "
        "there promotes the whole feature matrix.")

    def applies_to(self, module: str) -> bool:
        return in_package(module, DTYPE_PACKAGES)

    def check(self, context: LintContext) -> list[Finding]:
        findings = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64" \
                    and _is_numpy(node.value):
                findings.append(self.finding(
                    context, node,
                    "np.float64 on the hot path; use the engine default "
                    "dtype (repro.tensor.get_default_dtype) or take a "
                    "dtype parameter"))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(context, node))
            elif isinstance(node, ast.keyword) and node.arg == "dtype" \
                    and isinstance(node.value, ast.Constant) \
                    and node.value.value == "float64":
                findings.append(self.finding(
                    context, node.value,
                    "dtype='float64' literal on the hot path; thread the "
                    "configured dtype through instead"))
        return findings

    def _check_call(self, context: LintContext,
                    call: ast.Call) -> list[Finding]:
        func = call.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _FLOAT64_ALLOCATORS \
                and _is_numpy(func.value) \
                and not _has_keyword(call, "dtype"):
            return [self.finding(
                context, call,
                f"np.{func.attr}(...) without dtype allocates float64; "
                f"pass dtype= (e.g. the engine default dtype)")]
        if isinstance(func, ast.Attribute) \
                and func.attr == "standard_normal" \
                and not _has_keyword(call, "dtype"):
            return [self.finding(
                context, call,
                "standard_normal(...) without dtype samples float64; "
                "pass dtype= explicitly")]
        return []


@register
class GradDropped(Rule):
    """RPR002 — tensor-op call sites that sever autograd silently."""

    code = "RPR002"
    title = "requires_grad dropped by rewrapping tensor data"
    severity = "error"
    rationale = (
        "Tensor(x.data) (or Tensor.ensure(x.data) / Tensor(x.numpy())) "
        "builds a fresh leaf around another tensor's storage: gradients "
        "stop flowing, with no error — training just quietly fails to "
        "learn through that path.  Pass the tensor itself, or make the "
        "cut explicit with .detach().")

    def check(self, context: LintContext) -> list[Finding]:
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            wraps = (isinstance(func, ast.Name) and func.id == "Tensor") \
                or (isinstance(func, ast.Attribute)
                    and func.attr == "ensure"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "Tensor")
            if not wraps:
                continue
            argument = node.args[0]
            if isinstance(argument, ast.Attribute) \
                    and argument.attr == "data":
                findings.append(self.finding(
                    context, node,
                    "wrapping another tensor's .data severs "
                    "requires_grad propagation; pass the tensor or use "
                    ".detach() to make the cut explicit"))
            elif isinstance(argument, ast.Call) \
                    and isinstance(argument.func, ast.Attribute) \
                    and argument.func.attr == "numpy":
                findings.append(self.finding(
                    context, node,
                    "Tensor(x.numpy()) severs requires_grad propagation; "
                    "pass the tensor or use .detach()"))
        return findings


@register
class UngatedTelemetry(Rule):
    """RPR003 — telemetry on the hot path not behind the enabled flag."""

    code = "RPR003"
    title = "ungated telemetry in hot-path modules"
    severity = "error"
    rationale = (
        "PR 3's telemetry is free when disabled *only* because hot-path "
        "instrumentation goes through the gated entry points: "
        "detail_span() (self-gated) for spans and an explicit "
        "`if <counters>.enabled:` guard around per-op record() calls.  "
        "A raw span()/tracer.span() or an unguarded record() in "
        "repro.tensor/gnn/nn pays allocation and locking on every op "
        "of every epoch even with telemetry off.")

    def applies_to(self, module: str) -> bool:
        return in_package(module, HOT_PACKAGES)

    def check(self, context: LintContext) -> list[Finding]:
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name == "span":
                findings.append(self.finding(
                    context, node,
                    "raw span() on the hot path; use detail_span(), "
                    "which compiles to a no-op when telemetry is "
                    "disabled"))
            elif name == "record" and not self._gated(context, node):
                findings.append(self.finding(
                    context, node,
                    "per-op record() not gated behind the counters' "
                    ".enabled flag; wrap it in `if <counters>.enabled:`"))
        return findings

    @staticmethod
    def _gated(context: LintContext, node: ast.Call) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, ast.If):
                for part in ast.walk(ancestor.test):
                    if (isinstance(part, ast.Attribute)
                            and part.attr == "enabled") \
                            or (isinstance(part, ast.Name)
                                and part.id == "enabled"):
                        return True
        return False


@register
class RawThreading(Rule):
    """RPR004 — thread primitives outside repro.serve; process
    primitives anywhere."""

    code = "RPR004"
    title = "threads outside repro.serve, or processes in any package"
    severity = "error"
    rationale = (
        "GRIMP is one multi-task fit, and this reproduction fits, "
        "pre-computes EmbDI and serves in one process.  repro.serve "
        "owns the thread side, where its invariants can be audited "
        "(engine lock -> batcher state lock; never hold a lock across "
        "a blocking wait).  No package owns a process side: "
        "multiprocessing and concurrent.futures are flagged in every "
        "package, repro.serve and repro.parallel included.  "
        "Determinism needs no workers: repro.sampling and "
        "repro.embeddings draw one child seed per fixed shard from "
        "repro.parallel.spawn_seeds, so their output depends only on "
        "the shard plan.  Telemetry's internal locks are the "
        "sanctioned thread exception, suppressed with a reason.")

    _MODULES = ("threading", "_thread", "queue", "multiprocessing",
                "concurrent.futures", "concurrent")
    _PROCESS_MODULES = ("multiprocessing", "concurrent.futures",
                        "concurrent")

    def check(self, context: LintContext) -> list[Finding]:
        in_serve = in_package(context.module, SERVE_PACKAGE)
        findings = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else []
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if name not in self._MODULES \
                        and root not in self._MODULES:
                    continue
                if name in self._PROCESS_MODULES \
                        or root in self._PROCESS_MODULES:
                    findings.append(self.finding(
                        context, node,
                        f"import of {name!r}: repro runs in one "
                        f"process, so no package may start processes "
                        f"or process pools"))
                elif not in_serve:
                    findings.append(self.finding(
                        context, node,
                        f"import of {name!r} outside repro.serve; keep "
                        f"thread concurrency in the serving layer (or "
                        f"suppress with a reason if this module owns a "
                        f"sanctioned lock)"))
        return findings


@register
class Nondeterminism(Rule):
    """RPR005 — unseeded RNG / wall-clock logic in model and graph code."""

    code = "RPR005"
    title = "nondeterminism in model/graph code"
    severity = "warning"
    rationale = (
        "Self-supervised training failures surface as silently worse "
        "imputation accuracy; without bit-reproducible runs they cannot "
        "be bisected.  Model and graph code must take an explicit "
        "np.random.Generator (or derive one from the config seed) and "
        "must not branch on wall-clock time.  repro.sampling is held "
        "to the same bar: neighbor draws and batch schedules come from "
        "SeedSequence children (spawn_seeds), so a seeded default_rng "
        "is fine while bare np.random.* calls are flagged.  Documented "
        "seedable fallbacks carry a noqa with the reason.")

    _LEGACY_RANDOM = ("seed", "rand", "randn", "random", "choice",
                      "shuffle", "permutation", "randint", "normal",
                      "uniform")

    def applies_to(self, module: str) -> bool:
        return in_package(module, MODEL_PACKAGES)

    def check(self, context: LintContext) -> list[Finding]:
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "default_rng" and not node.args \
                    and not node.keywords:
                findings.append(self.finding(
                    context, node,
                    "default_rng() without a seed is nondeterministic; "
                    "accept an rng/seed from the caller"))
            elif func.attr in self._LEGACY_RANDOM \
                    and isinstance(func.value, ast.Attribute) \
                    and func.value.attr == "random" \
                    and _is_numpy(func.value.value):
                findings.append(self.finding(
                    context, node,
                    f"np.random.{func.attr} uses the unseeded global "
                    f"RNG; use an explicit np.random.Generator"))
            elif func.attr == "time" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "time":
                findings.append(self.finding(
                    context, node,
                    "time.time() in model/graph code makes runs "
                    "time-dependent; thread timestamps in from the "
                    "caller (telemetry owns timing)"))
            elif func.attr in ("now", "utcnow") \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in ("datetime", "date"):
                findings.append(self.finding(
                    context, node,
                    f"{func.value.id}.{func.attr}() in model/graph code "
                    f"makes runs time-dependent"))
        return findings


@register
class BareExcept(Rule):
    """RPR006 — bare ``except:`` (and hot-path error swallowing)."""

    code = "RPR006"
    title = "bare except swallows autograd errors"
    severity = "error"
    rationale = (
        "A bare except: (or except BaseException without re-raise) "
        "catches KeyboardInterrupt, SystemExit and — critically — the "
        "RuntimeErrors the autograd engine raises for malformed "
        "backward graphs, turning hard failures into silently bad "
        "models.  On the hot path even `except Exception: pass` is "
        "banned: numerical errors there must propagate (or go through "
        "the anomaly sanitizer).")

    def check(self, context: LintContext) -> list[Finding]:
        findings = []
        hot = in_package(context.module, HOT_PACKAGES)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    context, node,
                    "bare except: swallows KeyboardInterrupt and "
                    "autograd errors; catch Exception or narrower"))
            elif isinstance(node.type, ast.Name) \
                    and node.type.id == "BaseException" \
                    and not any(isinstance(part, ast.Raise)
                                for part in ast.walk(node)):
                findings.append(self.finding(
                    context, node,
                    "except BaseException without re-raise; re-raise or "
                    "catch Exception"))
            elif hot and isinstance(node.type, ast.Name) \
                    and node.type.id in ("Exception", "BaseException") \
                    and all(isinstance(part, ast.Pass)
                            for part in node.body):
                findings.append(self.finding(
                    context, node,
                    "swallowing Exception on the hot path hides "
                    "autograd/numerical failures; handle or re-raise"))
        return findings


#: Packages whose functions may own thread primitives even when they
#: run inside forked workers: the pool substrate itself.  Telemetry's
#: internal locks are initialized lazily and are fork-safe by
#: construction (re-created per process).
_FORK_SANCTIONED = ("repro.parallel", "repro.telemetry")


@register
class ForkUnsafeThreading(ProjectRule):
    """RPR007 — thread primitives in code that runs inside forked
    workers, outside the sanctioned owners."""

    code = "RPR007"
    title = "thread primitives in fork-reachable code"
    severity = "error"
    rationale = (
        "The pool substrate forks workers; a lock or thread created in "
        "code reachable from a worker entry point (a function handed "
        "to parallel_map/ShardPool/Process) either duplicates held "
        "state across the fork or spawns threads the supervisor cannot "
        "see.  Only the audited owners — repro.parallel and "
        "repro.telemetry's fork-safe lazy locks — may do this; shard "
        "functions and model code must stay thread-free so a worker "
        "crash is always attributable to the shard, not to an "
        "interleaving.")

    def check_project(self, project, taint) -> list[Finding]:
        findings = []
        for qualname in sorted(project.fork_reachable):
            module = project.defined_in(qualname)
            if module is None or in_package(module, _FORK_SANCTIONED):
                continue
            summary = project.modules[module]
            function = project.function_summary(qualname)
            if function is None:
                continue
            for factory, line, col in function.thread_creates:
                findings.append(self.finding_at(
                    summary.path, line, col,
                    f"threading.{factory} created in {qualname}, which "
                    f"runs inside a forked worker (reachable from a "
                    f"worker entry point); thread primitives in fork-"
                    f"reachable code belong to repro.parallel only"))
        return findings


@register
class SharedWriteSafety(ProjectRule):
    """RPR008 — writes into shared-memory views without a copy."""

    code = "RPR008"
    title = "write into a shared-memory view without an intervening copy"
    severity = "error"
    rationale = (
        "Views from attach_shared / an .arrays() pack / a worker's "
        "views parameter alias one shared segment across every "
        "process; an item assignment, augmented assignment, out=, or "
        "in-place method (.fill/.sort) on one is a cross-process race "
        "that corrupts other workers' reads silently.  The sanctioned "
        "pattern is materializing first — .copy(), np.array(...), "
        "np.ascontiguousarray(...) — which this rule tracks through "
        "assignments and call boundaries; writes to the copy are "
        "clean.")

    def check_project(self, project, taint) -> list[Finding]:
        findings = []
        for module in sorted(project.modules):
            summary = project.modules[module]
            for local in sorted(summary.functions):
                function = summary.functions[local]
                qualname = f"{module}.{local}"
                for line, col, detail, tags in function.shared_writes:
                    if not taint.is_shared(qualname, tags):
                        continue
                    findings.append(self.finding_at(
                        summary.path, line, col,
                        f"{detail} targets an array that flows from a "
                        f"shared-memory source (in {qualname}); write "
                        f"to a .copy() or allocate a private output "
                        f"array"))
        return findings


@register
class RngProvenance(ProjectRule):
    """RPR009 — RNG constructions whose seed has no provenance."""

    code = "RPR009"
    title = "RNG seed without provenance from the seed tree"
    severity = "warning"
    rationale = (
        "RPR005 catches the *unseeded* default_rng(); this rule checks "
        "the seeded ones.  In model/sampling scope every "
        "Generator must derive from the config seed — a spawn_seeds "
        "child, a SeedSequence spawn, or an explicitly threaded seed "
        "value — or a fixed config seed stops reproducing the same "
        "sampled schedule bit for bit.  A seed that "
        "is a literal constant, flows from a seed-like parameter or "
        "call (seed/rng/seq in the name), or comes through spawn_seeds "
        "is sanctioned; an arbitrary expression (time, pids, array "
        "contents) is flagged.")

    def check_project(self, project, taint) -> list[Finding]:
        findings = []
        for module in sorted(project.modules):
            if not in_package(module, MODEL_PACKAGES):
                continue
            summary = project.modules[module]
            for local in sorted(summary.functions):
                function = summary.functions[local]
                qualname = f"{module}.{local}"
                for line, col, api, tags in function.rng_calls:
                    if taint.is_seeded(qualname, tags):
                        continue
                    findings.append(self.finding_at(
                        summary.path, line, col,
                        f"{api}(...) in {qualname} takes a seed with no "
                        f"visible provenance from spawn_seeds or the "
                        f"config seed; derive it from the seed tree so "
                        f"runs stay bisectable"))
        return findings
