"""Pass 2 of the interprocedural analyzer: linking summaries.

Takes the :class:`~repro.analysis.summaries.ModuleSummary` set produced
by pass 1 and builds the whole-repo view: a symbol table that follows
package ``__init__`` re-exports, a call graph over dotted function
names, and the *worker-entry* set — functions handed to the process
pool registrars (``parallel_map``, ``ShardPool``,
``Process(target=...)``) whose bodies therefore execute in forked
children.  :mod:`repro.analysis.taint` runs its fixpoints over this
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .summaries import MODULE_BODY, ModuleSummary

__all__ = ["Project", "WorkerEntry", "link"]

#: Registrar -> {arg position or kwarg name: parameter index of the
#: registered function that receives the shared-view pack}.  ``None``
#: means the function runs in a child but receives no views directly
#: (fork-reachability only).
_WORKER_REGISTRARS = {
    "parallel_map": {"0": 1, "fn": 1},
    "ShardPool": {"0": 1, "fn": 1, "init_fn": 0},
    "Process": {"target": None},
}

#: How many times to follow ``a -> b`` import chains when resolving a
#: dotted name through package re-exports.
_MAX_ALIAS_HOPS = 8


@dataclass
class WorkerEntry:
    """One function registered to run inside a forked worker."""

    qualname: str  # fully dotted, e.g. repro.embeddings.walk_kernel.walk_shard
    #: Index of the parameter bound to the shared-view pack, if any.
    shared_param: int | None
    #: Where the registration happened (module, line) for diagnostics.
    registered_at: tuple = ("", 0)


@dataclass
class Project:
    """The linked whole-repo analysis state."""

    #: module dotted name -> summary.
    modules: dict = field(default_factory=dict)
    #: fully dotted function name -> (module, local qualname).
    functions: dict = field(default_factory=dict)
    #: alias dotted name -> canonical dotted name (import re-exports).
    aliases: dict = field(default_factory=dict)
    #: canonical entry qualname -> WorkerEntry.
    worker_entries: dict = field(default_factory=dict)
    #: canonical function qualname -> set of canonical callee qualnames.
    edges: dict = field(default_factory=dict)
    #: functions reachable (transitively) from any worker entry.
    fork_reachable: set = field(default_factory=set)

    # ------------------------------------------------------------------
    def resolve(self, dotted: str | None) -> str | None:
        """Canonicalize a dotted name through import/re-export aliases
        down to a defined function, class constructor, or itself."""
        if dotted is None:
            return None
        seen = set()
        current = dotted
        for _ in range(_MAX_ALIAS_HOPS):
            if current in seen:
                break
            seen.add(current)
            if current in self.functions:
                return current
            if current in self.aliases:
                current = self.aliases[current]
                continue
            # Try rewriting the longest importable prefix: resolving
            # ``pkg.Cls.method`` needs the ``pkg.Cls`` prefix chased
            # through the package re-export to ``pkg.module.Cls`` first.
            head, sep, tail = current.rpartition(".")
            if not sep:
                break
            resolved_head = self._resolve_prefix(head, seen)
            if resolved_head is None or resolved_head == head:
                break
            current = f"{resolved_head}.{tail}"
        # A class name resolves to its constructor when one exists.
        init = f"{current}.__init__"
        if init in self.functions:
            return init
        return current if current in self.functions else current

    def _resolve_prefix(self, head: str, seen: set) -> str | None:
        current = head
        for _ in range(_MAX_ALIAS_HOPS):
            if current in self.aliases and current not in seen:
                seen.add(current)
                current = self.aliases[current]
            else:
                break
        return current

    def function_summary(self, qualname: str):
        """The :class:`FunctionSummary` for a canonical name, or None."""
        entry = self.functions.get(qualname)
        if entry is None:
            return None
        module, local = entry
        return self.modules[module].functions.get(local)

    def defined_in(self, qualname: str) -> str | None:
        entry = self.functions.get(qualname)
        return entry[0] if entry else None


def _register_symbols(project: Project, summary: ModuleSummary) -> None:
    module = summary.module
    for local_name in summary.functions:
        if local_name == MODULE_BODY:
            project.functions[f"{module}.{MODULE_BODY}"] = (module,
                                                            MODULE_BODY)
        else:
            project.functions[f"{module}.{local_name}"] = (module,
                                                           local_name)
    for local, target in summary.imports.items():
        project.aliases[f"{module}.{local}"] = target


def _resolve_call_targets(project: Project) -> None:
    for module, summary in project.modules.items():
        for local_name, function in summary.functions.items():
            canonical = f"{module}.{local_name}"
            callees = project.edges.setdefault(canonical, set())
            for site in function.calls:
                target = project.resolve(site.callee)
                if target in project.functions:
                    callees.add(target)
                # Class call -> constructor edge.
                if target is not None:
                    init = f"{target}.__init__"
                    if init in project.functions:
                        callees.add(init)


def _detect_worker_entries(project: Project) -> None:
    for module, summary in project.modules.items():
        for local_name, function in summary.functions.items():
            for site in function.calls:
                target = project.resolve(site.callee)
                if target is None:
                    continue
                registrar = target.rsplit(".", 1)[-1]
                if registrar == "__init__":
                    registrar = target.rsplit(".", 2)[-2]
                spec = _WORKER_REGISTRARS.get(registrar)
                if spec is None:
                    continue
                for slot, shared_param in spec.items():
                    ref = site.fn_refs.get(slot)
                    if ref is None:
                        continue
                    entry_name = project.resolve(ref)
                    if entry_name not in project.functions:
                        continue
                    existing = project.worker_entries.get(entry_name)
                    if existing is not None and \
                            existing.shared_param is not None:
                        continue
                    project.worker_entries[entry_name] = WorkerEntry(
                        qualname=entry_name,
                        shared_param=shared_param,
                        registered_at=(module, site.line))


def _compute_fork_reachability(project: Project) -> None:
    frontier = list(project.worker_entries)
    reachable = set(frontier)
    while frontier:
        current = frontier.pop()
        for callee in project.edges.get(current, ()):
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    project.fork_reachable = reachable


def link(summaries: list[ModuleSummary]) -> Project:
    """Link per-module summaries into a :class:`Project`."""
    project = Project()
    for summary in summaries:
        project.modules[summary.module] = summary
    for summary in summaries:
        _register_symbols(project, summary)
    _resolve_call_targets(project)
    _detect_worker_entries(project)
    _compute_fork_reachability(project)
    return project
