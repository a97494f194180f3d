"""Nested span tracing with bounded retention and exact aggregation.

A :class:`Span` is one timed region of a run — entering a span inside
another builds a parent/child relation, and the chain of names up the
stack forms the span's *path* (``"fit/train/epoch/forward"``).  The
:class:`Tracer` owns the spans of one run:

* **per-thread nesting** — each thread gets its own span stack, so the
  HTTP server's connection threads and the micro-batcher's worker trace
  independently into the same tracer;
* **bounded retention** — finished spans are kept for tree rendering and
  JSONL export up to ``max_spans``; beyond that the oldest are dropped,
  but the per-path aggregation (total seconds, entry count, error
  count) is updated *incrementally on every span end*, so
  :meth:`Tracer.aggregate` stays exact under unbounded traffic
  (``max_spans=0`` gives a pure aggregate-only tracer for servers);
* **exception safety** — a span exited by an exception records
  ``status="error"`` plus the exception type and re-raises.

The *active tracer* is a per-thread slot: deep library code (GNN layers,
sparse dispatch) calls :func:`detail_span` which routes to whatever
tracer the caller activated — and compiles to a shared no-op when
telemetry is disabled, keeping the instrumented hot path free.
"""

from __future__ import annotations

import itertools
import os
import threading  # repro: noqa[RPR004] -- tracer state is thread-local by design; sanctioned lock owner
import time
from collections import deque

__all__ = ["Span", "Tracer", "current_tracer", "enabled", "set_enabled",
           "span", "detail_span", "NO_OP_SPAN"]

#: Environment variable that switches detailed telemetry on for a process.
TELEMETRY_ENV = "REPRO_TELEMETRY"

_ENABLED = os.environ.get(TELEMETRY_ENV, "") not in ("", "0", "false")

_ACTIVE = threading.local()


def enabled() -> bool:
    """Whether detailed instrumentation (layer/dispatch spans, tensor-op
    counters) is switched on for this process."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Toggle detailed instrumentation globally (also wired to the
    tensor-op counters by :mod:`repro.telemetry`)."""
    global _ENABLED
    _ENABLED = bool(flag)
    # Imported here to avoid a cycle at module-load time.
    from .registry import TENSOR_OPS
    TENSOR_OPS.enabled = _ENABLED


def current_tracer() -> "Tracer | None":
    """The tracer activated on this thread, if any."""
    return getattr(_ACTIVE, "tracer", None)


class Span:
    """One finished (or open) timed region.

    Attributes
    ----------
    name, path:
        The span's own name and its ``"/"``-joined ancestry.
    start, duration:
        Seconds relative to the tracer's epoch / wall seconds spent.
    attrs:
        Free-form JSON-able key/value payload (loss values, batch sizes,
        edge types, ...), set at creation or via :meth:`set`.
    status:
        ``"ok"``, or ``"error"`` when the region raised; ``error`` then
        holds the exception type name.
    """

    __slots__ = ("span_id", "parent_id", "name", "path", "start",
                 "duration", "attrs", "status", "error", "_tracer",
                 "_t0")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, name: str, path: str,
                 attrs: dict | None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.path = path
        self.attrs = attrs or {}
        self.start = 0.0
        self.duration = 0.0
        self.status = "ok"
        self.error: str | None = None
        self._tracer = tracer
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate a numeric attribute (a per-span counter)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.status = "error"
            self.error = exc_type.__name__
        self._tracer._exit(self)
        return False

    def to_event(self) -> dict:
        """JSON-ready event record for the JSONL log."""
        event = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            event["error"] = self.error
        if self.attrs:
            event["attrs"] = self.attrs
        return event

    def __repr__(self) -> str:
        return (f"Span({self.path!r}, duration={self.duration:.6f}, "
                f"status={self.status!r})")


class _NoOpSpan:
    """Shared do-nothing span for disabled instrumentation paths."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self

    def add(self, key, amount=1.0):
        pass


NO_OP_SPAN = _NoOpSpan()


class Tracer:
    """Collects spans for one run (or one long-lived service).

    Parameters
    ----------
    max_spans:
        How many finished spans to retain for tree rendering / JSONL
        export.  ``0`` keeps none (aggregate-only, constant memory —
        the serving configuration).  Aggregation is exact regardless.
    """

    DEFAULT_MAX_SPANS = 100_000

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self.max_spans = int(max_spans)
        self.created_unix = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._finished: deque[Span] = deque(maxlen=self.max_spans or 1)
        self._aggregate: dict[str, list] = {}   # path -> [seconds, count, errors]
        self._dropped = 0
        self._open = 0

    # ------------------------------------------------------------------
    # Span creation / bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def span(self, name: str, **attrs) -> Span:
        """Open a span under this thread's current nesting.

        Use as a context manager::

            with tracer.span("epoch", epoch=3) as span:
                ...
                span.set(loss=0.12)
        """
        if "/" in name:
            raise ValueError("span names must not contain '/'; nesting "
                             "builds compound paths")
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id: int | None = parent.span_id
            path = f"{parent.path}/{name}"
        else:
            parent_id = None
            path = name
        with self._lock:
            span_id = next(self._ids)
        return Span(self, span_id, parent_id, name, path, attrs)

    def _enter(self, span: Span) -> None:
        self._stack().append(span)
        with self._lock:
            self._open += 1
        span._t0 = time.perf_counter()
        span.start = span._t0 - self._t0

    def _exit(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.path!r} exited out of order")
        stack.pop()
        with self._lock:
            self._open -= 1
            entry = self._aggregate.get(span.path)
            if entry is None:
                self._aggregate[span.path] = [span.duration, 1,
                                              int(span.status == "error")]
            else:
                entry[0] += span.duration
                entry[1] += 1
                entry[2] += int(span.status == "error")
            if self.max_spans:
                if len(self._finished) == self._finished.maxlen:
                    self._dropped += 1
                self._finished.append(span)
            else:
                self._dropped += 1

    def record(self, name: str, seconds: float, count: int = 1,
               **attrs) -> None:
        """Fold externally timed work into this tracer's aggregation.

        For work measured in *another process* — a pool worker times
        its phases on its own tracer and the parent records the summed
        durations here — where a ``with tracer.span(...)`` block cannot
        wrap the work.  The entry nests under the current span stack
        (so recording inside ``fit/train/epoch`` yields
        ``fit/train/epoch/<name>``), adds ``seconds``/``count``
        to the exact per-path aggregate, and retains one finished span
        carrying ``attrs`` for tree rendering.
        """
        if "/" in name:
            raise ValueError("span names must not contain '/'; nesting "
                             "builds compound paths")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        stack = self._stack()
        if stack:
            parent_id: int | None = stack[-1].span_id
            path = f"{stack[-1].path}/{name}"
        else:
            parent_id = None
            path = name
        with self._lock:
            span_id = next(self._ids)
        span = Span(self, span_id, parent_id, name, path, attrs)
        span.start = time.perf_counter() - self._t0
        span.duration = float(seconds)
        with self._lock:
            entry = self._aggregate.get(path)
            if entry is None:
                self._aggregate[path] = [span.duration, int(count), 0]
            else:
                entry[0] += span.duration
                entry[1] += int(count)
            if self.max_spans:
                if len(self._finished) == self._finished.maxlen:
                    self._dropped += 1
                self._finished.append(span)
            else:
                self._dropped += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has_open_spans(self) -> bool:
        """Whether any thread currently has an unfinished span."""
        return self._open > 0

    @property
    def dropped(self) -> int:
        """Finished spans not retained (evicted or ``max_spans=0``)."""
        return self._dropped

    def spans(self) -> list[Span]:
        """Retained finished spans in completion order."""
        with self._lock:
            return list(self._finished)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Exact per-path totals: ``{path: {"seconds", "count"}}``.

        ``errors`` is included only for paths that recorded failures, so
        the common shape matches the historical profiler report.
        """
        with self._lock:
            result = {}
            for path, (seconds, count, errors) in self._aggregate.items():
                entry = {"seconds": seconds, "count": count}
                if errors:
                    entry["errors"] = errors
                result[path] = entry
            return result

    def to_events(self) -> list[dict]:
        """JSON-ready span events (retained spans, completion order)."""
        return [span.to_event() for span in self.spans()]

    def clear(self) -> None:
        """Drop retained spans and aggregates (counters start over)."""
        with self._lock:
            self._finished.clear()
            self._aggregate.clear()
            self._dropped = 0

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def activate(self) -> "_Activation":
        """Make this the tracer that :func:`span`/:func:`detail_span`
        route to on the current thread, for the duration of the block."""
        return _Activation(self)

    def __repr__(self) -> str:
        return (f"Tracer(paths={len(self._aggregate)}, "
                f"retained={len(self._finished) if self.max_spans else 0}, "
                f"dropped={self._dropped})")


class _Activation:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tracer = self._previous
        return False


# ----------------------------------------------------------------------
# Module-level span entry points for instrumented library code
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """A span on the active tracer; a no-op when none is active."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NO_OP_SPAN
    return tracer.span(name, **attrs)


def detail_span(name: str, **attrs):
    """A *detail* span: recorded only when telemetry is enabled AND a
    tracer is active — the hook deep code (GNN layers, sparse dispatch)
    uses so that ordinary fits don't pay for fine-grained spans."""
    if not _ENABLED:
        return NO_OP_SPAN
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NO_OP_SPAN
    return tracer.span(name, **attrs)
