"""A zero-dependency lint engine for project-specific invariants.

Generic linters cannot know that ``repro``'s hot path must stay
float32, that hot-path telemetry must be gated, or that raw threading
belongs in :mod:`repro.serve` only — this engine does.  It is a small
AST-walking framework:

* :class:`Rule` — one named check (``RPR0xx``) with a severity and a
  module *scope* (hot-path modules, model/graph modules, everything);
  concrete rules live in :mod:`repro.analysis.rules`.
* :class:`Finding` — one violation: rule, message, file, line.
* suppressions — a ``# repro: noqa[RPR001]`` comment silences the named
  rules on that line (``# repro: noqa`` silences all); an optional
  ``-- reason`` documents why, and the rule catalog in
  ``docs/static-analysis.md`` asks for one.
* output — human-readable text or a schema-versioned JSON report
  (uploaded as a CI artifact).

The engine needs nothing beyond the standard library, so it runs as the
first CI step before any test import happens.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "LintContext", "Rule", "ProjectRule", "register",
           "all_rules", "get_rule", "module_of", "lint_source",
           "lint_sources", "lint_file", "lint_paths", "render_text",
           "render_github", "report_json", "LINT_SCHEMA", "in_package",
           "HOT_PACKAGES", "MODEL_PACKAGES", "DTYPE_PACKAGES",
           "SERVE_PACKAGE", "CONCURRENCY_PACKAGES"]

#: Schema marker written into every JSON lint report.  ``/2`` added the
#: interprocedural rules (RPR007–RPR010) and the ``cache`` block.
LINT_SCHEMA = "repro.lint-report/2"

#: Packages forming the training hot path: every op here runs inside
#: the epoch loop, so float64 drift and ungated telemetry are bugs.
HOT_PACKAGES = ("repro.tensor", "repro.gnn", "repro.nn")

#: Model/graph code that must be deterministic under a fixed seed.
#: ``repro.sampling`` is in scope (RPR005): neighbor sampling and the
#: minibatch schedule must derive every draw from the config seed via
#: ``spawn_seeds`` — seeded ``default_rng`` is sanctioned, bare
#: ``np.random.*`` is not (sampled epochs are part of the training
#: result and must be bisectable).
MODEL_PACKAGES = HOT_PACKAGES + ("repro.graph", "repro.core",
                                 "repro.sampling")

#: Packages that must allocate in the engine default dtype (RPR001).
#: Wider than the epoch-loop hot path: the embedding pre-compute, the
#: parallel kernels, and the subgraph sampler feed their arrays
#: straight into training, so a float64 allocation there promotes the
#: whole feature matrix (sampling's float64 search keys carry a noqa).
DTYPE_PACKAGES = HOT_PACKAGES + ("repro.embeddings", "repro.parallel",
                                 "repro.sampling")

#: The one package allowed to use raw *thread* concurrency primitives.
SERVE_PACKAGE = "repro.serve"

#: Packages sanctioned to own concurrency primitives (RPR004):
#: ``repro.serve`` for threads, ``repro.parallel`` for process pools
#: and shared memory.  Everything else describes shards and delegates.
CONCURRENCY_PACKAGES = (SERVE_PACKAGE, "repro.parallel")

_NOQA = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
    r"(?:\s*--\s*(?P<reason>.*))?")


def in_package(module: str, packages: tuple[str, ...] | str) -> bool:
    """Whether dotted ``module`` lives in (or under) any of ``packages``."""
    if isinstance(packages, str):
        packages = (packages,)
    return any(module == package or module.startswith(package + ".")
               for package in packages)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    message: str
    path: str
    line: int
    column: int = 0
    severity: str = "error"

    def to_json(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line,
                "column": self.column, "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column + 1}: "
                f"{self.rule} [{self.severity}] {self.message}")


class LintContext:
    """Everything a rule needs to inspect one parsed file."""

    def __init__(self, tree: ast.AST, source: str, module: str, path: str):
        self.tree = tree
        self.source = source
        self.module = module
        self.path = path
        self._parents: dict[int, ast.AST] | None = None

    @property
    def parents(self) -> dict[int, ast.AST]:
        """``id(node) -> parent node`` map, built on first use."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST):
        """Yield the parent chain of ``node``, innermost first."""
        current = self.parents.get(id(node))
        while current is not None:
            yield current
            current = self.parents.get(id(current))


class Rule:
    """Base class for lint rules; subclasses register via :func:`register`.

    Attributes
    ----------
    code, title, severity:
        Identity and default severity (``"error"`` fails the lint gate,
        ``"warning"`` is reported but does not).
    rationale:
        One paragraph for the rule catalog — *why* the invariant matters
        to this codebase.
    """

    code = "RPR000"
    title = ""
    severity = "error"
    rationale = ""

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on ``module`` (dotted name)."""
        return True

    def check(self, context: LintContext) -> list[Finding]:
        """Return every violation in the file (suppressions are applied
        by the engine, not the rule)."""
        raise NotImplementedError

    def finding(self, context: LintContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding for ``node`` with this rule's identity."""
        return Finding(rule=self.code, message=message, path=context.path,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0),
                       severity=self.severity)


class ProjectRule(Rule):
    """Base class for interprocedural rules (``RPR007``–``RPR010``).

    A project rule runs once over the *linked* repository — the
    :class:`~repro.analysis.callgraph.Project` built from every file's
    summary plus the propagated
    :class:`~repro.analysis.taint.TaintState` — instead of once per
    file.  The engine applies each finding's suppressions against the
    file it landed in, exactly as for per-file rules.
    """

    #: Marks the rule for the batch engine; per-file passes skip it.
    project = True

    def check(self, context: LintContext) -> list[Finding]:
        return []

    def check_project(self, project, taint) -> list[Finding]:
        """Return every violation across the linked project."""
        raise NotImplementedError

    def finding_at(self, path: str, line: int, column: int,
                   message: str) -> Finding:
        return Finding(rule=self.code, message=message, path=path,
                       line=line, column=column, severity=self.severity)


_RULES: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule instance to the global registry."""
    rule = rule_class()
    if rule.code in _RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    _RULES[rule.code] = rule
    return rule_class


def all_rules() -> dict[str, Rule]:
    """The registered rules keyed by code (imports the built-ins)."""
    from . import rules as _builtin  # noqa: F401 -- registration side effect
    return dict(sorted(_RULES.items()))


def get_rule(code: str) -> Rule:
    """Look up one rule; raises ``KeyError`` with the known codes."""
    rules = all_rules()
    if code not in rules:
        raise KeyError(f"unknown lint rule {code!r}; known rules: "
                       f"{', '.join(rules)}")
    return rules[code]


def module_of(path) -> str:
    """Dotted module name of a source file, anchored at ``repro``.

    Files outside a ``repro`` package tree lint under their bare stem,
    which places them out of every scoped rule's packages (only the
    unscoped rules apply).
    """
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def suppressed_lines(source: str) -> dict[int, set[str] | None]:
    """Per-line noqa suppressions: ``None`` means "all rules"."""
    suppressions: dict[int, set[str] | None] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[number] = None
        else:
            suppressions[number] = {code.strip() for code in rules.split(",")
                                    if code.strip()}
    return suppressions


def _select(rules: list[str] | None) -> list[Rule]:
    if rules is None:
        return list(all_rules().values())
    return [get_rule(code) for code in rules]


def _covered(line: int, noqa_line: int, spans: list) -> bool:
    """Whether a noqa on ``noqa_line`` reaches a finding on ``line``:
    same line, or both inside one logical statement span (a multi-line
    call, a decorated ``def`` header, ...)."""
    if line == noqa_line:
        return True
    for start, end in spans:
        if start <= noqa_line <= end and start <= line <= end:
            return True
    return False


def _apply_suppressions(findings: list[Finding], suppressions: dict,
                        spans: list) -> list[Finding]:
    if not suppressions:
        return findings
    kept = []
    for finding in findings:
        suppressed = False
        for noqa_line, codes in suppressions.items():
            if not _covered(finding.line, noqa_line, spans):
                continue
            if codes is None or finding.rule in codes:
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)
    return kept


def _noqa_warnings(suppressions: dict, path: str,
                   known: set) -> list[Finding]:
    """Unknown rule codes inside a noqa warn instead of silently
    suppressing nothing (a typo'd code must not look like a fix)."""
    warnings = []
    for line, codes in sorted(suppressions.items()):
        if codes is None:
            continue
        for code in sorted(codes):
            if code not in known:
                warnings.append(Finding(
                    rule="RPR000", severity="warning", path=path,
                    line=line,
                    message=f"unknown rule code {code!r} in noqa "
                            f"suppression (known rules: "
                            f"{', '.join(sorted(known))})"))
    return warnings


def _analyze_file(source: str, module: str, path: str,
                  file_rules: list, known: set):
    """Parse + per-file rules + summary for one source.  Returns
    ``(findings, summary)``; a syntax error yields one RPR000 finding
    and an empty summary so batch linting never crashes."""
    from .summaries import ModuleSummary, summarize_tree

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        finding = Finding(rule="RPR000", severity="error", path=path,
                          line=error.lineno or 1,
                          column=(error.offset or 1) - 1,
                          message=f"syntax error: {error.msg}")
        return [finding], ModuleSummary(module=module, path=path)
    context = LintContext(tree, source, module, path)
    suppressions = suppressed_lines(source)
    summary = summarize_tree(tree, module, path,
                             suppressions=suppressions)
    findings: list[Finding] = []
    for rule in file_rules:
        if not rule.applies_to(module):
            continue
        findings.extend(rule.check(context))
    findings = _apply_suppressions(findings, suppressions,
                                   summary.statement_spans)
    findings.extend(_noqa_warnings(suppressions, path, known))
    return findings, summary


def _project_findings(summaries: list, project_rules: list
                      ) -> list[Finding]:
    """Link all summaries and run the interprocedural rules, applying
    each file's suppressions to the findings that land in it."""
    from .callgraph import link
    from .taint import propagate

    project = link(summaries)
    taint = propagate(project)
    raw: list[Finding] = []
    for rule in project_rules:
        raw.extend(rule.check_project(project, taint))
    by_path = {summary.path: summary for summary in summaries}
    findings = []
    for finding in raw:
        summary = by_path.get(finding.path)
        if summary is None:
            findings.append(finding)
            continue
        findings.extend(_apply_suppressions(
            [finding], summary.suppressions, summary.statement_spans))
    return findings


def _lint_batch(items: list, rules: list[str] | None = None, *,
                interprocedural: bool = True, cache=None,
                stats: dict | None = None) -> list[Finding]:
    """Lint ``(path, module, source)`` triples as one project.

    The shared implementation behind :func:`lint_source`,
    :func:`lint_sources`, and :func:`lint_paths`: per-file rules run on
    each file (through the incremental cache when one is given), then
    the project rules run once over the linked summaries.
    """
    from .cache import LintCache, lint_cache_key

    selected = _select(rules)
    file_rules = [rule for rule in selected
                  if not getattr(rule, "project", False)]
    project_rules = [rule for rule in selected
                     if getattr(rule, "project", False)]
    known = set(all_rules())
    ruleset = ",".join(f"{rule.code}:{rule.severity}"
                       for rule in selected)
    if cache is None:
        cache = LintCache(None)
    findings: list[Finding] = []
    summaries = []
    parsed = cached = 0
    for path, module, source in items:
        key = lint_cache_key(source, module, path, ruleset)
        hit = cache.load(key)
        if hit is not None:
            file_findings = [Finding(**doc) for doc in hit[0]]
            summary = hit[1]
            cached += 1
        else:
            file_findings, summary = _analyze_file(source, module, path,
                                                   file_rules, known)
            cache.store(key, [finding.to_json()
                              for finding in file_findings], summary)
            parsed += 1
        findings.extend(file_findings)
        summaries.append(summary)
    if interprocedural and project_rules:
        findings.extend(_project_findings(summaries, project_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule,
                                 f.message))
    if stats is not None:
        stats.update({"files": len(items), "parsed": parsed,
                      "cached": cached})
    return findings


def lint_source(source: str, module: str, path: str = "<string>",
                rules: list[str] | None = None, *,
                interprocedural: bool = True) -> list[Finding]:
    """Lint one source string as dotted ``module``; returns findings
    already filtered by ``# repro: noqa`` suppressions.  The
    interprocedural rules see a one-module project."""
    return _lint_batch([(path, module, source)], rules,
                       interprocedural=interprocedural)


def lint_sources(sources: dict, rules: list[str] | None = None, *,
                 interprocedural: bool = True) -> list[Finding]:
    """Lint a ``{path: source}`` mapping as one project — the in-memory
    entry point for multi-file interprocedural fixtures and tests."""
    items = [(str(path), module_of(path), source)
             for path, source in sources.items()]
    return _lint_batch(items, rules, interprocedural=interprocedural)


def lint_file(path, rules: list[str] | None = None) -> list[Finding]:
    """Lint one file from disk."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, module_of(path), path=str(path), rules=rules)


def lint_paths(paths, rules: list[str] | None = None, *,
               interprocedural: bool = True, cache=None,
               stats: dict | None = None) -> list[Finding]:
    """Lint files and directory trees (``*.py``, ``__pycache__``
    skipped) as one project.

    ``cache`` takes a :class:`~repro.analysis.cache.LintCache`;
    ``stats`` (a dict filled in place) reports ``files`` / ``parsed`` /
    ``cached`` counts so callers can verify warm runs skip re-parsing.
    """
    items = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files = sorted(candidate for candidate in entry.rglob("*.py")
                           if "__pycache__" not in candidate.parts)
        elif entry.is_file():
            files = [entry]
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for file in files:
            items.append((str(file), module_of(file),
                          file.read_text(encoding="utf-8")))
    return _lint_batch(items, rules, interprocedural=interprocedural,
                       cache=cache, stats=stats)


def render_text(findings: list[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = len(findings) - errors
    if findings:
        lines.append(f"{errors} error(s), {warnings} warning(s)")
    else:
        lines.append("clean: no lint findings")
    return "\n".join(lines)


def _annotation_escape(text: str) -> str:
    """GitHub workflow-command escaping for annotation messages."""
    return text.replace("%", "%25").replace("\r", "%0D") \
               .replace("\n", "%0A")


def render_github(findings: list[Finding]) -> str:
    """GitHub Actions workflow annotations (``::error file=...``), one
    per finding, so CI findings render inline on the PR diff."""
    lines = []
    for finding in findings:
        level = "error" if finding.severity == "error" else "warning"
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"col={finding.column + 1},title={finding.rule}::"
            f"{_annotation_escape(finding.message)}")
    errors = sum(1 for finding in findings if finding.severity == "error")
    lines.append(f"{errors} error(s), {len(findings) - errors} "
                 f"warning(s)")
    return "\n".join(lines)


def report_json(findings: list[Finding], paths: list | None = None,
                plan_problems: list | None = None,
                stats: dict | None = None) -> dict:
    """Schema-versioned JSON report (the CI artifact format)."""
    errors = sum(1 for finding in findings if finding.severity == "error")
    report = {
        "schema": LINT_SCHEMA,
        "python": sys.version.split()[0],
        "paths": [str(path) for path in paths or []],
        "rules": [{"code": rule.code, "title": rule.title,
                   "severity": rule.severity}
                  for rule in all_rules().values()],
        "findings": [finding.to_json() for finding in findings],
        "counts": {"error": errors,
                   "warning": len(findings) - errors},
    }
    if plan_problems is not None:
        report["plan_problems"] = [problem.to_json()
                                   for problem in plan_problems]
        report["counts"]["plan"] = len(plan_problems)
    if stats is not None:
        report["cache"] = dict(stats)
    return report


def write_report(report: dict, path) -> None:
    """Write a JSON report produced by :func:`report_json`."""
    Path(path).write_text(json.dumps(report, indent=1) + "\n")
