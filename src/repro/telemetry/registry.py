"""Named counters and gauges, plus the tensor-op dispatch counters.

The registry is the *numbers* half of the telemetry subsystem (spans
are the *time* half): monotonically increasing :class:`Counter` values
(planned sparse products, sparse conversions, batches flushed) and
point-in-time :class:`Gauge` values.  A process-wide default registry
(:func:`get_registry`) is what the instrumented modules write to and
what ``GET /metrics`` and run manifests snapshot.

Tensor-op counting is special-cased in :class:`OpCounters` because it
sits on the hottest path in the repository — every autograd op ends in
``Tensor._make``.  The counter object exposes a plain ``enabled``
attribute the engine checks inline; when false (the default) the only
cost per op is one attribute load and a branch.
"""

from __future__ import annotations

import threading  # repro: noqa[RPR004] -- telemetry owns its own locks; serve-layer rule does not apply

__all__ = ["Counter", "Gauge", "MetricsRegistry", "OpCounters",
           "get_registry", "counter", "gauge", "TENSOR_OPS"]


class Counter:
    """A monotonically increasing named value.

    Increments are plain integer adds under the GIL — the occasional
    lost update under free-threaded builds is acceptable for telemetry;
    correctness-critical counts belong in return values, not metrics.
    """

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        """Zero the counter (test/bench helper)."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that can move in both directions."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class MetricsRegistry:
    """Get-or-create store of named counters and gauges."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge, description)

    def _get(self, name, kind, description):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, description)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(f"{name!r} is already registered as a "
                                f"{type(metric).__name__}")
            return metric

    def snapshot(self) -> dict[str, float]:
        """Point-in-time ``{name: value}`` of every registered metric."""
        with self._lock:
            return {name: metric.value
                    for name, metric in sorted(self._metrics.items())}

    def reset(self) -> None:
        """Zero every registered metric (test/bench helper)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


class OpCounters:
    """Per-op-name dispatch and byte counters for the autograd engine.

    Disabled by default; :func:`repro.telemetry.set_enabled` flips
    :attr:`enabled`, which ``Tensor._make`` checks inline.  ``record``
    tolerates racing threads (counts are best-effort telemetry).
    """

    __slots__ = ("enabled", "ops", "bytes")

    def __init__(self):
        self.enabled = False
        self.ops: dict[str, int] = {}
        self.bytes: dict[str, int] = {}

    def record(self, op: str, nbytes: int) -> None:
        """Count one dispatch of ``op`` producing ``nbytes`` of output."""
        self.ops[op] = self.ops.get(op, 0) + 1
        self.bytes[op] = self.bytes.get(op, 0) + nbytes

    def snapshot(self) -> dict[str, dict[str, int]]:
        """``{"ops": {...}, "bytes": {...}, "total_ops", "total_bytes"}``."""
        ops = dict(self.ops)
        nbytes = dict(self.bytes)
        return {"ops": ops, "bytes": nbytes,
                "total_ops": sum(ops.values()),
                "total_bytes": sum(nbytes.values())}

    def reset(self) -> None:
        """Forget all op counts (test/bench helper)."""
        self.ops = {}
        self.bytes = {}


#: Process-wide tensor-op counters, checked inline by ``Tensor._make``.
TENSOR_OPS = OpCounters()

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, description: str = "") -> Counter:
    """Shorthand for ``get_registry().counter(...)``."""
    return _REGISTRY.counter(name, description)


def gauge(name: str, description: str = "") -> Gauge:
    """Shorthand for ``get_registry().gauge(...)``."""
    return _REGISTRY.gauge(name, description)
