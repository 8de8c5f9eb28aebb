"""Mergeable metrics: counters, gauges, and fixed-bucket histograms.

The registry is designed around one algebraic requirement: **merge is
associative and commutative**.  Benchmarks and (later) parallel workers
each accumulate into a private registry, and any merge order yields the
same totals — counters add, gauges add, histograms add bucket-wise
(identical edges are required, and every histogram for a given metric
name is created from the same edge preset, so merges never mix shapes).

Histograms use fixed bucket edges chosen at creation (latency-style
millisecond edges by default, or a coarse count preset for cardinality
metrics).  Quantile estimates interpolate within the owning bucket and
are clamped to the observed ``[min, max]``, so an estimate can never
escape the bucket edges that bound it.

Thread safety: every mutating entry point takes the registry lock, so N
threads incrementing one registry lose no updates (pinned by the
concurrency smoke test before any async/sharding work builds on this).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_MS_EDGES",
    "COUNT_EDGES",
    "Histogram",
    "MetricsRegistry",
]

# Latency edges (milliseconds): sub-0.1ms guard-level costs up through
# multi-second outliers, roughly geometric.
DEFAULT_MS_EDGES: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)

# Cardinality edges (row counts, candidate counts, ...).
COUNT_EDGES: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    5000.0,
    10000.0,
)


class Histogram:
    """Fixed-bucket histogram with an overflow bucket and min/max/sum.

    Buckets are half-open ``(prev_edge, edge]`` intervals plus a final
    ``(last_edge, +inf)`` overflow bucket, so ``len(counts) ==
    len(edges) + 1`` and every observation lands in exactly one bucket:
    counts are conserved under any sequence of merges.
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_MS_EDGES) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan: edge lists are short (~15) and this is only hit
        # when observability is enabled.
        for index, edge in enumerate(self.edges):
            if value <= edge:
                return index
        return len(self.edges)

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile (0 <= q <= 1) from bucket counts.

        Interpolates linearly within the bucket that holds the target
        rank and clamps to the observed ``[min, max]``, so the estimate
        is always bounded by the edges of its bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = self.min if index == 0 else self.edges[index - 1]
                upper = (
                    self.max
                    if index == len(self.edges)
                    else self.edges[index]
                )
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return max(self.min, min(lower, self.max))
                fraction = (rank - previous) / bucket_count
                fraction = min(1.0, max(0.0, fraction))
                estimate = lower + (upper - lower) * fraction
                return max(self.min, min(estimate, self.max))
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket-wise addition)."""
        if self.edges != other.edges:
            raise ValueError(
                "cannot merge histograms with different bucket edges"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def copy(self) -> "Histogram":
        clone = Histogram(self.edges)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.total = self.total
        clone.min = self.min
        clone.max = self.max
        return clone

    def snapshot(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- write path ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def add_gauge(self, name: str, delta: float) -> None:
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0.0) + float(delta)

    def observe(
        self,
        name: str,
        value: float,
        edges: Sequence[float] = DEFAULT_MS_EDGES,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(edges)
                self._histograms[name] = histogram
            histogram.observe(value)

    # -- read path ----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.copy() if histogram is not None else None

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of everything in the registry."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                },
            }

    # -- algebra ------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and gauges add; histograms add bucket-wise.  Addition is
        associative and commutative, so merging worker registries in any
        order (or any grouping) produces identical totals — the property
        suite pins this.
        """
        with other._lock:
            other_counters = dict(other._counters)
            other_gauges = dict(other._gauges)
            other_histograms = {
                name: histogram.copy()
                for name, histogram in other._histograms.items()
            }
        with self._lock:
            for name, value in other_counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in other_gauges.items():
                self._gauges[name] = self._gauges.get(name, 0.0) + value
            for name, histogram in other_histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = histogram
                else:
                    mine.merge(histogram)

    @classmethod
    def merged(
        cls, registries: Iterable["MetricsRegistry"]
    ) -> "MetricsRegistry":
        result = cls()
        for registry in registries:
            result.merge(registry)
        return result

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
