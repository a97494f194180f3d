"""Pass 1 of the interprocedural analyzer: per-module summaries.

The per-file rules in :mod:`repro.analysis.rules` see one AST at a
time, which is enough for syntactic invariants ("no ``np.float64`` on
the hot path") but blind to the properties the multi-process stack
actually depends on: a worker function in ``repro.embeddings`` that
scribbles on a shared-memory view is three call frames away from the
``parallel_map`` registration that made the view shared.  This module
compresses every file into a :class:`ModuleSummary` — imports, defined
functions, call sites, and *taint events* — that
:mod:`repro.analysis.callgraph` links into a whole-repo graph and
:mod:`repro.analysis.taint` propagates over to a fixpoint.

Summaries are deliberately flat, picklable-as-JSON records so the
incremental lint cache (:mod:`repro.analysis.cache`) can persist them:
a warm run re-links cached summaries without re-parsing a single
unchanged file.

Taint tags
----------
Expression values are abstracted to small sets of string tags:

* ``"shared"`` — the value is (or contains) a shared-memory view:
  the result of :func:`repro.parallel.attach_shared`, a
  ``FrozenGraph.arrays()``-style ``.arrays()`` call, or anything
  derived from one by aliasing (subscripts, tuple packing).
* ``"seeded"`` — the value derives from the deterministic seed tree:
  ``spawn_seeds``, ``SeedSequence``, ``.spawn()`` children, or a
  name/attribute that is visibly seed-like (``seed``, ``rng``,
  ``seq``).
* ``"const"`` — a literal constant (an explicitly written seed).
* ``"param:<name>"`` — the value flows from parameter ``<name>``;
  resolved against call sites by the taint fixpoint.
* ``"ret:<dotted>"`` — the value is the return of callee
  ``<dotted>``; resolved through the callee's own return tags.

Fresh-array operations (``.copy()``, ``np.array``, ``np.copy``,
``np.ascontiguousarray``, arithmetic) strip ``shared`` — writing to a
copied array is exactly the sanctioned pattern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CallSite", "FunctionSummary", "ModuleSummary",
           "summarize_source", "summarize_tree", "MODULE_BODY",
           "TAG_SHARED", "TAG_SEEDED", "TAG_CONST", "param_tag",
           "ret_tag", "seedish", "strip_shared"]

TAG_SHARED = "shared"
TAG_SEEDED = "seeded"
TAG_CONST = "const"

#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Callables whose *result* is a pack of shared-memory views.
_SHARED_SOURCES = ("attach_shared",)

#: Method names whose call result is a shared-array pack
#: (``FrozenGraph.arrays()`` and the ``SharedArrays.specs`` family).
_SHARED_METHODS = ("arrays",)

#: Callables whose result carries seed provenance.
_SEED_SOURCES = ("spawn_seeds", "SeedSequence", "spawn")

#: Callables that materialize a fresh array (strip the shared taint).
_COPY_CALLS = ("copy", "array", "ascontiguousarray", "copyto", "deepcopy",
               "tolist", "astype")

#: ndarray methods that mutate their receiver in place.
_MUTATOR_METHODS = ("fill", "sort", "put", "partition", "itemset",
                    "resize", "setfield")

#: ``threading`` factories whose call means "a thread-side primitive
#: now exists in this frame" (RPR007 raw material).
_THREAD_FACTORIES = ("Thread", "Lock", "RLock", "Condition", "Event",
                     "Semaphore", "BoundedSemaphore", "Barrier", "Timer")

#: Resource constructors whose instances own OS state that must be
#: released (RPR010 raw material), matched on the last dotted component.
_RESOURCE_KINDS = ("ShardPool", "SharedArrays", "SharedMemory", "Pool",
                   "Pipe", "Process")

#: Method calls that count as releasing a tracked resource.
_DISPOSE_METHODS = ("close", "terminate", "unlink", "shutdown", "stop",
                    "join", "release")


def seedish(name: str) -> bool:
    """Whether an identifier visibly names seed material."""
    lowered = name.lower()
    return any(token in lowered for token in ("seed", "rng", "seq"))


def param_tag(name: str) -> str:
    return f"param:{name}"


def strip_shared(tags: set) -> set:
    """Tag set after a fresh-array materialization: concrete ``shared``
    drops, and symbolic tags are wrapped in ``copy:`` so the fixpoint
    resolves their *seed* provenance but never their shared-ness
    (``x.copy()`` of a shared view is private; a seed's copy is still
    that seed)."""
    stripped = set()
    for tag in tags:
        if tag == TAG_SHARED:
            continue
        if tag.startswith("param:") or tag.startswith("ret:"):
            stripped.add(f"copy:{tag}")
        else:
            stripped.add(tag)
    return stripped


def ret_tag(dotted: str) -> str:
    return f"ret:{dotted}"


@dataclass
class CallSite:
    """One call expression, with the callee resolved as far as the
    module's import table allows and every argument abstracted to tags."""

    callee: str | None
    line: int
    col: int
    arg_tags: list[list[str]] = field(default_factory=list)
    kwarg_tags: dict[str, list[str]] = field(default_factory=dict)
    #: Function-valued arguments (worker registrations): position or
    #: keyword -> dotted name of the referenced function.
    fn_refs: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"callee": self.callee, "line": self.line, "col": self.col,
                "args": self.arg_tags, "kwargs": self.kwarg_tags,
                "fn_refs": self.fn_refs}

    @classmethod
    def from_json(cls, doc: dict) -> "CallSite":
        return cls(callee=doc["callee"], line=doc["line"], col=doc["col"],
                   arg_tags=[list(tags) for tags in doc["args"]],
                   kwarg_tags={key: list(tags)
                               for key, tags in doc["kwargs"].items()},
                   fn_refs=dict(doc["fn_refs"]))


@dataclass
class FunctionSummary:
    """Everything pass 2 needs to know about one function."""

    qualname: str
    line: int
    params: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: ``(factory, line, col)`` — thread/lock creations in this frame.
    thread_creates: list[tuple] = field(default_factory=list)
    #: ``(line, col, detail, tags)`` — writes whose target may alias a
    #: shared view (resolved by the taint fixpoint).
    shared_writes: list[tuple] = field(default_factory=list)
    #: ``(line, col, api, tags)`` — seeded-RNG constructions whose seed
    #: argument's provenance the fixpoint must resolve.
    rng_calls: list[tuple] = field(default_factory=list)
    #: ``(kind, line, col)`` — resources created here with no visible
    #: disposal, escape, or ``with`` management.
    leaked_resources: list[tuple] = field(default_factory=list)
    #: Tags of every returned expression, for ``ret:`` resolution.
    return_tags: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"qualname": self.qualname, "line": self.line,
                "params": self.params,
                "calls": [call.to_json() for call in self.calls],
                "thread_creates": [list(entry)
                                   for entry in self.thread_creates],
                "shared_writes": [list(entry)
                                  for entry in self.shared_writes],
                "rng_calls": [list(entry) for entry in self.rng_calls],
                "leaked_resources": [list(entry)
                                     for entry in self.leaked_resources],
                "return_tags": self.return_tags}

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionSummary":
        return cls(
            qualname=doc["qualname"], line=doc["line"],
            params=list(doc["params"]),
            calls=[CallSite.from_json(call) for call in doc["calls"]],
            thread_creates=[tuple(entry)
                            for entry in doc["thread_creates"]],
            shared_writes=[(entry[0], entry[1], entry[2], list(entry[3]))
                           for entry in doc["shared_writes"]],
            rng_calls=[(entry[0], entry[1], entry[2], list(entry[3]))
                       for entry in doc["rng_calls"]],
            leaked_resources=[tuple(entry)
                              for entry in doc["leaked_resources"]],
            return_tags=list(doc["return_tags"]))


@dataclass
class ModuleSummary:
    """One file's contribution to the whole-repo analysis."""

    module: str
    path: str
    #: local name -> dotted target, from import statements.
    imports: dict = field(default_factory=dict)
    #: qualname -> summary; ``<module>`` holds top-level code.
    functions: dict = field(default_factory=dict)
    #: Names of classes defined at module level (constructor linking).
    classes: list = field(default_factory=list)
    #: line -> None (all rules) or list of codes, from ``repro: noqa``.
    suppressions: dict = field(default_factory=dict)
    #: Inclusive ``(start, end)`` line spans of logical statements, so a
    #: noqa anywhere on a multi-line statement covers the whole span.
    statement_spans: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "module": self.module, "path": self.path,
            "imports": self.imports,
            "functions": {name: function.to_json()
                          for name, function in self.functions.items()},
            "classes": self.classes,
            "suppressions": {str(line): codes for line, codes
                             in self.suppressions.items()},
            "statement_spans": [list(span)
                                for span in self.statement_spans],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ModuleSummary":
        return cls(
            module=doc["module"], path=doc["path"],
            imports=dict(doc["imports"]),
            functions={name: FunctionSummary.from_json(function)
                       for name, function in doc["functions"].items()},
            classes=list(doc["classes"]),
            suppressions={int(line): (None if codes is None
                                      else list(codes))
                          for line, codes in doc["suppressions"].items()},
            statement_spans=[tuple(span)
                             for span in doc["statement_spans"]])


def _relative_base(module: str, level: int) -> str:
    """Package that a ``from . import x``-style import resolves against."""
    parts = module.split(".")
    if level >= len(parts):
        return ""
    return ".".join(parts[:len(parts) - level])


def _collect_imports(tree: ast.AST, module: str) -> dict:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, node.level)
                source = f"{base}.{node.module}" if node.module and base \
                    else (node.module or base)
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{source}.{alias.name}" if source \
                    else alias.name
    return imports


class _FunctionAnalyzer:
    """Single forward pass over one function body, tracking tag
    environments and recording the summary's taint events."""

    def __init__(self, module: str, imports: dict, local_defs: set,
                 owner_class: str | None, summary: FunctionSummary):
        self.module = module
        self.imports = imports
        self.local_defs = local_defs
        self.owner_class = owner_class
        self.summary = summary
        self.env: dict[str, set] = {name: {param_tag(name)}
                                    for name in summary.params}
        #: local resource name -> (kind, line, col); pruned on disposal
        #: or escape, flushed into ``leaked_resources`` at the end.
        self.resources: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> str | None:
        """Best-effort dotted name of an expression (calls excluded)."""
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.imports:
                return self.imports[name]
            if name in self.local_defs:
                return f"{self.module}.{name}"
            return name
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and self.owner_class:
                return f"{self.module}.{self.owner_class}.{node.attr}"
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # ------------------------------------------------------------------
    # Expression tagging
    # ------------------------------------------------------------------
    def tags_of(self, node: ast.AST) -> set:
        if isinstance(node, ast.Name):
            tags = set(self.env.get(node.id, ()))
            if seedish(node.id):
                tags.add(TAG_SEEDED)
            return tags
        if isinstance(node, ast.Constant):
            return {TAG_CONST} if isinstance(node.value, (int, str, bytes,
                                                          tuple)) \
                and not isinstance(node.value, bool) or node.value is None \
                else set()
        if isinstance(node, ast.Attribute):
            tags = self.tags_of(node.value)
            if seedish(node.attr):
                tags = tags | {TAG_SEEDED}
            return tags
        if isinstance(node, ast.Subscript):
            return self.tags_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_tags(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tags: set = set()
            for element in node.elts:
                tags |= self.tags_of(element)
            return tags
        if isinstance(node, ast.Dict):
            tags = set()
            for value in node.values:
                if value is not None:
                    tags |= self.tags_of(value)
            return tags
        if isinstance(node, ast.Starred):
            return self.tags_of(node.value)
        if isinstance(node, ast.IfExp):
            return self.tags_of(node.body) | self.tags_of(node.orelse)
        if isinstance(node, ast.BoolOp):
            tags = set()
            for value in node.values:
                tags |= self.tags_of(value)
            return tags
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            # Arithmetic on arrays allocates a fresh result: seed
            # provenance survives (seed + 1 is still seed-derived) but
            # shared-view identity does not.
            operands = [node.operand] if isinstance(node, ast.UnaryOp) \
                else [node.left, node.right]
            tags = set()
            for operand in operands:
                tags |= self.tags_of(operand)
            return strip_shared(tags)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_tags(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension_tags(node, [node.key, node.value])
        if isinstance(node, ast.NamedExpr):
            tags = self.tags_of(node.value)
            self.env[node.target.id] = set(tags)
            return tags
        if isinstance(node, ast.Await):
            return self.tags_of(node.value)
        return set()

    def _comprehension_tags(self, node, result_exprs) -> set:
        saved = {}
        for generator in node.generators:
            iter_tags = self.tags_of(generator.iter)
            for name in _target_names(generator.target):
                saved.setdefault(name, self.env.get(name))
                self.env[name] = set(iter_tags)
        tags: set = set()
        for expr in result_exprs:
            tags |= self.tags_of(expr)
        for name, previous in saved.items():
            if previous is None:
                self.env.pop(name, None)
            else:
                self.env[name] = previous
        return tags

    def _call_tags(self, node: ast.Call) -> set:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = func.id if isinstance(func, ast.Name) else attr
        if name in _SHARED_SOURCES or attr in _SHARED_METHODS:
            return {TAG_SHARED}
        if name in _SEED_SOURCES:
            return {TAG_SEEDED}
        if name is not None and seedish(name):
            return {TAG_SEEDED}
        if name in _COPY_CALLS:
            # A materialized copy is private by construction; seed
            # provenance rides through.
            inner: set = set()
            if isinstance(func, ast.Attribute):
                inner |= self.tags_of(func.value)
            for argument in node.args:
                inner |= self.tags_of(argument)
            return strip_shared(inner)
        if attr is not None and isinstance(func, ast.Attribute):
            # Unknown method: the result keeps the receiver's taints
            # (slicing helpers, ``.pop`` on a views dict, ...).
            receiver = self.tags_of(func.value)
            if receiver:
                return receiver
        dotted = self.resolve(func) if not isinstance(func, ast.Call) \
            else None
        if dotted is not None:
            return {ret_tag(dotted)}
        return set()

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def run(self, body: list) -> None:
        for statement in body:
            self.visit(statement)
        for name, (kind, line, col) in sorted(self.resources.items()):
            self.summary.leaked_resources.append((kind, line, col))

    def visit(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are summarized separately
        if isinstance(node, ast.Assign):
            self._visit_assign(node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign_single(node.target, node.value)
                self._scan_expression(node.value)
        elif isinstance(node, ast.AugAssign):
            self._visit_augassign(node)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._scan_expression(node.value)
                for tag in sorted(self.tags_of(node.value)):
                    if tag not in self.summary.return_tags:
                        self.summary.return_tags.append(tag)
                self._mark_escapes(node.value)
        elif isinstance(node, ast.Expr):
            self._scan_expression(node.value)
        elif isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
            for item in node.items:
                self._scan_expression(item.context_expr)
                self._dispose_named(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_single(item.optional_vars,
                                        item.context_expr,
                                        with_managed=True)
            for statement in node.body:
                self.visit(statement)
        elif isinstance(node, ast.For) or isinstance(node, ast.AsyncFor):
            self._scan_expression(node.iter)
            iter_tags = self.tags_of(node.iter)
            for name in _target_names(node.target):
                self.env[name] = set(iter_tags)
            for statement in node.body + node.orelse:
                self.visit(statement)
        elif isinstance(node, ast.While):
            self._scan_expression(node.test)
            for statement in node.body + node.orelse:
                self.visit(statement)
        elif isinstance(node, ast.If):
            self._scan_expression(node.test)
            for statement in node.body + node.orelse:
                self.visit(statement)
        elif isinstance(node, ast.Try):
            in_finally_before = getattr(self, "_in_finally", False)
            for statement in node.body + node.orelse:
                self.visit(statement)
            for handler in node.handlers:
                for statement in handler.body:
                    self.visit(statement)
            self._in_finally = True
            for statement in node.finalbody:
                self.visit(statement)
            self._in_finally = in_finally_before
        elif isinstance(node, (ast.Delete, ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_expression(child)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_expression(child)

    def _visit_assign(self, node: ast.Assign) -> None:
        self._scan_expression(node.value)
        for target in node.targets:
            self._check_write_target(target, node)
            self._assign_single(target, node.value)

    def _visit_augassign(self, node: ast.AugAssign) -> None:
        self._scan_expression(node.value)
        target = node.target
        if isinstance(target, ast.Subscript):
            tags = self.tags_of(target.value)
            self._record_write(node, "augmented item assignment", tags)
        elif isinstance(target, ast.Name):
            tags = self.tags_of(target)
            self._record_write(node, "augmented assignment", tags)
            self.env[target.id] = strip_shared(
                self.env.get(target.id, set())
                | self.tags_of(node.value))

    def _check_write_target(self, target: ast.AST, node: ast.stmt) -> None:
        if isinstance(target, ast.Subscript):
            tags = self.tags_of(target.value)
            self._record_write(node, "item assignment", tags)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_write_target(element, node)

    def _record_write(self, node: ast.stmt, detail: str, tags: set) -> None:
        relevant = {tag for tag in tags
                    if tag == TAG_SHARED or tag.startswith("param:")
                    or tag.startswith("ret:")}
        if relevant:
            self.summary.shared_writes.append(
                (node.lineno, node.col_offset, detail, sorted(relevant)))

    def _assign_single(self, target: ast.AST, value: ast.expr,
                       with_managed: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.tags_of(value)
            self.resources.pop(target.id, None)
            if not with_managed:
                kind = self._resource_kind(value)
                if kind is not None:
                    self.resources[target.id] = (
                        kind, value.lineno, value.col_offset)
        elif isinstance(target, (ast.Tuple, ast.List)):
            value_tags = self.tags_of(value)
            kind = self._resource_kind(value)
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = set(value_tags)
                    self.resources.pop(element.id, None)
                    if kind is not None and not with_managed:
                        self.resources[element.id] = (
                            kind, value.lineno, value.col_offset)
                elif isinstance(element, ast.Starred) \
                        and isinstance(element.value, ast.Name):
                    self.env[element.value.id] = set(value_tags)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Ownership escapes into an object (``self._pack = ...``):
            # lifecycle is that object's concern, not this frame's.
            self._mark_escapes(value)

    def _resource_kind(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = self.resolve(value.func)
        if dotted is None:
            return None
        last = dotted.rsplit(".", 1)[-1]
        return last if last in _RESOURCE_KINDS else None

    def _dispose_named(self, expr: ast.expr) -> None:
        """A ``with <name>`` (or disposal method) releases the resource."""
        if isinstance(expr, ast.Name):
            self.resources.pop(expr.id, None)
        elif isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and isinstance(expr.func.value, ast.Name):
            self.resources.pop(expr.func.value.id, None)

    def _mark_escapes(self, expr: ast.expr) -> None:
        """Names referenced by ``expr`` no longer belong to this frame."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                self.resources.pop(node.id, None)

    # ------------------------------------------------------------------
    # Expression scan: call sites + event extraction
    # ------------------------------------------------------------------
    def _scan_expression(self, expr: ast.expr) -> None:
        # Bind comprehension targets first so calls inside the body see
        # the iterable's taints (`default_rng(child) for child in
        # spawn_seeds(...)` must resolve `child` as seeded).
        for node in ast.walk(expr):
            if isinstance(node, (ast.ListComp, ast.SetComp,
                                 ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    iter_tags = self.tags_of(generator.iter)
                    for name in _target_names(generator.target):
                        self.env[name] = set(iter_tags) \
                            | self.env.get(name, set())
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._scan_call(node)

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        dotted = self.resolve(func) if not isinstance(func, ast.Call) \
            else None
        site = CallSite(callee=dotted, line=node.lineno,
                        col=node.col_offset)
        for position, argument in enumerate(node.args):
            site.arg_tags.append(sorted(self.tags_of(argument)))
            ref = self._function_reference(argument)
            if ref is not None:
                site.fn_refs[str(position)] = ref
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            site.kwarg_tags[keyword.arg] = sorted(
                self.tags_of(keyword.value))
            ref = self._function_reference(keyword.value)
            if ref is not None:
                site.fn_refs[keyword.arg] = ref
            if keyword.arg == "out":
                tags = self.tags_of(keyword.value)
                self._record_write(node, "out= into a shared view", tags)
        self.summary.calls.append(site)

        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = func.id if isinstance(func, ast.Name) else attr
        # Thread/lock factories (fork-safety raw material).
        if dotted is not None:
            parts = dotted.split(".")
            if parts[-1] in _THREAD_FACTORIES \
                    and (len(parts) == 1 or parts[0] in ("threading",
                                                         "_thread")):
                self.summary.thread_creates.append(
                    (parts[-1], node.lineno, node.col_offset))
        # In-place mutators on possibly-shared receivers.
        if attr in _MUTATOR_METHODS and isinstance(func, ast.Attribute):
            tags = self.tags_of(func.value)
            self._record_write(node, f".{attr}() on a shared view", tags)
        # Disposal calls release tracked resources.
        if attr in _DISPOSE_METHODS and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            self.resources.pop(func.value.id, None)
        # Seeded-RNG constructions with an explicit argument; the
        # zero-argument form is RPR005's per-file business.
        if name in ("default_rng", "RandomState") and node.args:
            tags: set = set()
            for argument in node.args:
                tags |= self.tags_of(argument)
            self.summary.rng_calls.append(
                (node.lineno, node.col_offset, name, sorted(tags)))
        # Arguments passed onward escape this frame's ownership.
        for argument in list(node.args) + \
                [keyword.value for keyword in node.keywords]:
            self._mark_escapes(argument)

    def _function_reference(self, node: ast.expr) -> str | None:
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.resolve(node)
            if dotted is not None and "." in dotted:
                return dotted
            if isinstance(node, ast.Name):
                return dotted
        return None


def _target_names(target: ast.AST):
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _statement_spans(tree: ast.AST) -> list:
    """Inclusive line spans of logical statements (decorators included),
    so a suppression anywhere on the statement covers all of it."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None) or []
        if decorators:
            start = min(decorator.lineno for decorator in decorators)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            # Compound statement: the span is its header (up to the
            # first body statement), not the whole block.
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None) or node.lineno
        if end > start or decorators:
            spans.append((start, end))
    spans.sort()
    return spans


def summarize_tree(tree: ast.AST, module: str, path: str,
                   suppressions: dict | None = None) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from an already-parsed AST."""
    imports = _collect_imports(tree, module)
    summary = ModuleSummary(module=module, path=path, imports=imports)
    if suppressions is not None:
        summary.suppressions = {
            line: (None if codes is None else sorted(codes))
            for line, codes in suppressions.items()}
    summary.statement_spans = _statement_spans(tree)

    local_defs = {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef, ast.ClassDef))}

    def add_function(node, qualname: str, owner_class: str | None):
        params = [argument.arg for argument in
                  list(node.args.posonlyargs) + list(node.args.args)
                  + list(node.args.kwonlyargs)]
        function = FunctionSummary(qualname=qualname, line=node.lineno,
                                   params=params)
        analyzer = _FunctionAnalyzer(module, imports, local_defs,
                                     owner_class, function)
        analyzer.run(node.body)
        summary.functions[qualname] = function

    toplevel = FunctionSummary(qualname=MODULE_BODY, line=1)
    top_analyzer = _FunctionAnalyzer(module, imports, local_defs, None,
                                     toplevel)
    top_analyzer.run([statement for statement in tree.body
                      if not isinstance(statement,
                                        (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))])
    summary.functions[MODULE_BODY] = toplevel

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            summary.classes.append(node.name)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    add_function(member, f"{node.name}.{member.name}",
                                 node.name)
    return summary


def summarize_source(source: str, module: str,
                     path: str = "<string>") -> ModuleSummary:
    """Parse and summarize one source string (raises ``SyntaxError``)."""
    tree = ast.parse(source, filename=path)
    return summarize_tree(tree, module, path)
