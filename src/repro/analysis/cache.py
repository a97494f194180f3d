"""Incremental lint cache: skip re-parsing unchanged files.

Mirrors the embedding cache (:mod:`repro.embeddings.cache`): a
:func:`hashlib.blake2b` content key, a plain directory of artifacts,
atomic temp-file writes.  Lint is pure per file — findings depend only
on the source bytes, the file's lint identity (path + dotted module),
and the rule set — so the key hashes exactly those inputs plus a cache
format version.  Bumping :data:`CACHE_VERSION` (any time rule
*behavior* changes, not just the set of codes) invalidates every entry
at once.

Each entry stores both the per-file findings **and** the file's
:class:`~repro.analysis.summaries.ModuleSummary`, because the
interprocedural pass needs every module's summary even when only one
file changed: a warm run re-links cached summaries (cheap — no parsing)
and re-runs only the project rules over the linked graph.

The directory resolves explicit argument -> ``REPRO_LINT_CACHE`` ->
disabled, and a disabled cache is a no-op on both lookup and store.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .summaries import ModuleSummary

__all__ = ["CACHE_ENV", "CACHE_VERSION", "LintCache", "lint_cache_key",
           "resolve_cache_dir"]

#: Environment variable naming the cache directory (empty = disabled).
CACHE_ENV = "REPRO_LINT_CACHE"

#: Format/behavior version folded into every key.  Bump when a rule's
#: behavior, the summary format, or the entry layout changes.
CACHE_VERSION = "repro.lint-cache/2"


def resolve_cache_dir(cache_dir: str | os.PathLike | None = None
                      ) -> Path | None:
    """Resolve the cache directory: explicit -> env var -> ``None``."""
    if cache_dir is not None:
        return Path(cache_dir)
    raw = os.environ.get(CACHE_ENV, "").strip()
    return Path(raw) if raw else None


def lint_cache_key(source: str, module: str, path: str,
                   ruleset: str) -> str:
    """Content hash of everything one file's lint result depends on."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(CACHE_VERSION.encode())
    digest.update(b"\x1f")
    digest.update(module.encode())
    digest.update(b"\x1f")
    digest.update(path.encode())
    digest.update(b"\x1f")
    digest.update(ruleset.encode())
    digest.update(b"\x1f")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class LintCache:
    """One-JSON-file-per-source cache keyed by :func:`lint_cache_key`.

    A ``None`` directory disables the cache: :meth:`load` always misses
    and :meth:`store` is a no-op, so the engine never branches on
    whether caching is configured.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.directory = resolve_cache_dir(cache_dir)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def _path(self, key: str) -> Path:
        return self.directory / f"lint-{key}.json"

    def load(self, key: str) -> tuple[list[dict], ModuleSummary] | None:
        """Cached ``(finding dicts, summary)`` for ``key``, or ``None``."""
        if not self.enabled:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            findings = entry["findings"]
            summary = ModuleSummary.from_json(entry["summary"])
        except (ValueError, KeyError, TypeError):
            # A truncated or stale-format entry is a miss, not a crash.
            return None
        return findings, summary

    def store(self, key: str, findings: list[dict],
              summary: ModuleSummary) -> None:
        """Persist one file's lint result (no-op when disabled)."""
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        temporary = path.with_suffix(".tmp.json")
        entry = {"version": CACHE_VERSION, "findings": findings,
                 "summary": summary.to_json()}
        temporary.write_text(json.dumps(entry), encoding="utf-8")
        temporary.replace(path)
