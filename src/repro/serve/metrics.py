"""Thread-safe live metrics for the imputation service.

Latency is tracked in a **fixed-bucket histogram** (log-spaced bounds,
constant memory, no sampling window): every request ever served lands
in a bucket, and p50/p95/p99 are read off the cumulative counts.  The
load-generator benchmark and the CI gate consume quantiles from the
same :class:`LatencyHistogram` implementation the server reports under
``GET /metrics``, so the gated numbers and the served numbers can never
drift apart.  Batch sizes keep an exact histogram (sizes are small
integers).  All updates take one short lock; snapshots copy under the
same lock and derive quantiles outside it.
"""

from __future__ import annotations

import threading

__all__ = ["ServingMetrics", "LatencyHistogram", "percentile",
           "default_latency_buckets"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``samples`` by the
    nearest-rank method; 0.0 for an empty list.

    Exact-sample helper for benchmarks that keep every observation;
    the serving path uses :class:`LatencyHistogram` instead.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def default_latency_buckets() -> tuple[float, ...]:
    """Upper bounds (seconds) of the default latency buckets.

    Log-spaced from 100 µs to ~79 s with a 1.5 growth factor — 34
    buckets, ~20 % worst-case quantile error, which is far inside the
    run-to-run noise of any latency measurement.
    """
    bounds = []
    bound = 1e-4
    while bound < 80.0:
        bounds.append(bound)
        bound *= 1.5
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation.

    Observations above the last bound land in a +Inf overflow bucket.
    Quantiles are the upper bound of the bucket holding the requested
    cumulative rank (the Prometheus-style estimate), so a reported
    p99 is always an upper bound on the true p99 at bucket resolution.
    Not thread-safe by itself — :class:`ServingMetrics` locks around it.
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "max")

    def __init__(self, bounds: tuple[float, ...] | None = None):
        self.bounds = tuple(bounds) if bounds is not None \
            else default_latency_buckets()
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("bucket bounds must be ascending, non-empty")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        low, high = 0, len(self.bounds)
        while low < high:  # first bound >= seconds
            mid = (low + high) // 2
            if self.bounds[mid] < seconds:
                low = mid + 1
            else:
                high = mid
        if low == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[low] += 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` (same bounds) into this histogram."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """The ``q``-th (0–100) latency quantile in seconds.

        Returns the upper bound of the bucket containing the target
        rank; observations in the overflow bucket report the maximum
        seen value.  0.0 when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("quantile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= target and cumulative > 0:
                return bound
        return self.max

    @property
    def mean(self) -> float:
        """Exact mean latency in seconds (sum is tracked exactly)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-ready dump: per-bucket counts keyed by bound in ms."""
        buckets = {f"{bound * 1e3:g}": value
                   for bound, value in zip(self.bounds, self.counts)
                   if value}
        if self.overflow:
            buckets["+Inf"] = self.overflow
        return {"count": self.count, "sum_ms": self.total * 1e3,
                "max_ms": self.max * 1e3, "buckets_ms": buckets}

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(self.bounds)
        clone.counts = list(self.counts)
        clone.overflow = self.overflow
        clone.count = self.count
        clone.total = self.total
        clone.max = self.max
        return clone


class ServingMetrics:
    """Counters + latency histogram + batch-size histogram."""

    def __init__(self, buckets: tuple[float, ...] | None = None):
        self._lock = threading.Lock()
        self._latency = LatencyHistogram(buckets)
        self._requests = 0
        self._errors = 0
        self._rows = 0
        self._batch_histogram: dict[int, int] = {}
        self._batches = 0

    # ------------------------------------------------------------------
    def record_request(self, latency_seconds: float, n_rows: int = 1,
                       ok: bool = True) -> None:
        """Record one client request and its end-to-end latency."""
        with self._lock:
            self._requests += 1
            if ok:
                self._rows += n_rows
                self._latency.observe(latency_seconds)
            else:
                self._errors += 1

    def record_batch(self, size: int) -> None:
        """Record one coalesced engine batch of ``size`` requests."""
        with self._lock:
            self._batches += 1
            self._batch_histogram[size] = \
                self._batch_histogram.get(size, 0) + 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time metrics dict (JSON-ready)."""
        with self._lock:
            latency = self._latency.copy()
            histogram = dict(self._batch_histogram)
            requests, errors = self._requests, self._errors
            rows, batches = self._rows, self._batches
        return {
            "requests": requests,
            "errors": errors,
            "rows_imputed": rows,
            "latency_ms": {
                "mean": latency.mean * 1e3,
                "p50": latency.quantile(50) * 1e3,
                "p95": latency.quantile(95) * 1e3,
                "p99": latency.quantile(99) * 1e3,
                "count": latency.count,
                "histogram": latency.snapshot(),
            },
            "batches": batches,
            "batch_size_histogram": {str(size): count for size, count
                                     in sorted(histogram.items())},
            "mean_batch_size": (sum(size * count for size, count
                                    in histogram.items()) / batches)
            if batches else 0.0,
        }
