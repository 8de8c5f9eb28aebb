"""repro.obs — zero-dependency observability: spans, metrics, slow log.

One module-level singleton, :data:`OBS`, is the process-wide switchboard.
Instrumented call sites follow a single discipline:

* **hot paths** guard explicitly — ``if OBS.enabled: OBS.metrics.inc(...)``
  — so the disabled cost is one attribute load and a branch, with no
  allocation and no function call;
* **cool paths** may use ``with OBS.span("name"):`` which returns a
  shared no-op context manager when disabled.

``OBS`` is disabled by default.  ``OBS.enable()`` turns everything on;
``OBS.reset()`` clears all recorded state (and is called from the test
fixtures so suites never observe each other's residue).  The components
are importable on their own (:class:`~repro.obs.trace.Tracer`,
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.slowlog.SlowQueryLog`) for private/per-worker use —
benchmark workers accumulate into private registries and merge them, and
the merge is associative and commutative by construction.

``python -m repro.obs`` renders a human-readable report from a metrics
snapshot JSON file (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .metrics import COUNT_EDGES, DEFAULT_MS_EDGES, Histogram, MetricsRegistry
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import NOOP_SPAN, SpanRecord, Tracer

__all__ = [
    "OBS",
    "ObsState",
    "Tracer",
    "SpanRecord",
    "MetricsRegistry",
    "Histogram",
    "SlowQueryLog",
    "SlowQueryEntry",
    "DEFAULT_MS_EDGES",
    "COUNT_EDGES",
    "NOOP_SPAN",
]


class ObsState:
    """Enable switch plus the tracer/metrics/slow-log trio."""

    __slots__ = ("enabled", "tracer", "metrics", "slow_log")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog()

    def enable(self) -> "ObsState":
        self.enabled = True
        return self

    def disable(self) -> "ObsState":
        self.enabled = False
        return self

    def reset(self) -> "ObsState":
        """Drop all recorded spans/metrics/slow queries (keeps the switch)."""
        self.tracer.clear()
        self.metrics.clear()
        self.slow_log.clear()
        return self

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        """A span when enabled, the shared no-op otherwise.

        Convenient for cool paths; hot paths should guard with
        ``if OBS.enabled:`` and call ``self.tracer.span`` directly.
        """
        if self.enabled:
            return self.tracer.span(name, attrs)
        return NOOP_SPAN

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of metrics + slow log + span count."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "slow_queries": self.slow_log.export(),
            "slow_log": self.slow_log.stats(),
            "span_count": len(self.tracer),
        }


OBS = ObsState()
