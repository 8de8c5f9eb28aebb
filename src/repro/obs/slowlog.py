"""Slow-query log: retain the top-K slowest queries over a threshold.

Every query whose wall time crosses ``threshold_ms`` is offered to the
log; only the K slowest are retained (a min-heap keyed by duration, so
the cheapest retained entry is evicted first).  Each entry keeps the SQL
text, duration, an optional rendered plan, and arbitrary attributes —
enough to replay the query offline with EXPLAIN ANALYZE.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Dict, List, Optional

__all__ = ["SlowQueryEntry", "SlowQueryLog"]


class SlowQueryEntry:
    """One retained slow query."""

    __slots__ = ("sql", "duration_ms", "plan", "attrs")

    def __init__(
        self,
        sql: str,
        duration_ms: float,
        plan: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sql = sql
        self.duration_ms = duration_ms
        self.plan = plan
        self.attrs = attrs or {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sql": self.sql,
            "duration_ms": self.duration_ms,
            "plan": self.plan,
            "attrs": dict(self.attrs),
        }


class SlowQueryLog:
    """Threshold-gated, top-K bounded log of the slowest queries."""

    def __init__(self, threshold_ms: float = 10.0, top_k: int = 32) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.threshold_ms = float(threshold_ms)
        self.top_k = top_k
        self._lock = threading.Lock()
        # Min-heap of (duration_ms, tiebreak, entry); the tiebreak keeps
        # heap comparisons away from SlowQueryEntry itself.
        self._heap: List[Any] = []
        self._tiebreak = itertools.count()
        self._offered = 0
        self._retained_total = 0

    def offer(
        self,
        sql: str,
        duration_ms: float,
        plan: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Record the query if it is slow enough; returns True if kept."""
        with self._lock:
            self._offered += 1
            if duration_ms < self.threshold_ms:
                return False
            if (
                len(self._heap) >= self.top_k
                and duration_ms <= self._heap[0][0]
            ):
                return False
            entry = SlowQueryEntry(sql, duration_ms, plan, attrs)
            item = (duration_ms, next(self._tiebreak), entry)
            if len(self._heap) >= self.top_k:
                heapq.heapreplace(self._heap, item)
            else:
                heapq.heappush(self._heap, item)
            self._retained_total += 1
            return True

    def entries(self) -> List[SlowQueryEntry]:
        """Retained entries, slowest first."""
        with self._lock:
            items = sorted(self._heap, key=lambda item: -item[0])
        return [entry for _, _, entry in items]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "top_k": self.top_k,
                "offered": self._offered,
                "retained_total": self._retained_total,
                "retained_now": len(self._heap),
            }

    def export(self) -> List[Dict[str, Any]]:
        return [entry.to_dict() for entry in self.entries()]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self._offered = 0
            self._retained_total = 0
