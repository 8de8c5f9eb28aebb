"""Context-local tracing: nested spans with a bounded ring-buffer recorder.

A **span** is one timed operation (a query, a search, a cloud build)
carrying a name, attributes, and a wall-clock duration.  Spans nest: the
tracer keeps a per-thread stack, so a span opened while another is active
records that parent and its depth — ``app.search_courses`` encloses
``search.query`` encloses ``minidb.execute``.

Finished spans land in a fixed-size ring buffer (old spans age out, the
recorder never grows unboundedly) and can be exported as plain dicts or
JSON for offline analysis.  All public entry points are thread-safe: the
span *stack* is thread-local, the *ring* is shared under a lock.

The tracer itself never checks whether observability is enabled — the
instrumentation sites guard with ``OBS.enabled`` before touching it, so
the disabled fast path costs one attribute read and a branch, with no
allocation (see :mod:`repro.obs`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["SpanRecord", "Tracer", "NOOP_SPAN"]


class SpanRecord:
    """One finished span, as stored in the ring buffer."""

    __slots__ = (
        "name",
        "attrs",
        "started",
        "duration_ms",
        "depth",
        "parent",
        "thread_id",
        "index",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]],
        started: float,
        duration_ms: float,
        depth: int,
        parent: Optional[str],
        thread_id: int,
        index: int,
    ) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.started = started
        self.duration_ms = duration_ms
        self.depth = depth
        self.parent = parent
        self.thread_id = thread_id
        self.index = index

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "started": self.started,
            "duration_ms": self.duration_ms,
            "depth": self.depth,
            "parent": self.parent,
            "thread_id": self.thread_id,
            "index": self.index,
        }


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "name", "attrs", "_started")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: Optional[Dict[str, Any]]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self._started = 0.0

    def set(self, **attrs: Any) -> "_ActiveSpan":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        duration_ms = (time.perf_counter() - self._started) * 1000.0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self, duration_ms)
        return False


class _NoopSpan:
    """Shared do-nothing span used whenever tracing is disabled.

    A single module-level instance is handed to every caller, so the
    disabled path allocates nothing.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records nested spans into a bounded ring buffer."""

    def __init__(self, ring_size: int = 2048) -> None:
        self._ring: deque = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sequence = 0

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        """Open a nested span; use as a context manager."""
        return _ActiveSpan(self, name, attrs)

    def record(
        self,
        name: str,
        duration_ms: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> SpanRecord:
        """Record an already-measured operation as a completed span.

        Used by call sites that time themselves (e.g. the search engine
        measures ``elapsed_ms`` into its own result object and reports
        the *same* number here — one measurement, two views).
        """
        stack = self._stack()
        parent = stack[-1].name if stack else None
        return self._append(
            name, attrs, time.perf_counter(), duration_ms, len(stack), parent
        )

    # -- inspection ---------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """Finished spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def export(self) -> List[Dict[str, Any]]:
        """The ring buffer as plain dicts (JSON-ready)."""
        return [record.to_dict() for record in self.records()]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.export(), indent=indent, default=str)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- internals ----------------------------------------------------------

    def _stack(self) -> List[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: _ActiveSpan) -> None:
        self._stack().append(span)

    def _finish(self, span: _ActiveSpan, duration_ms: float) -> None:
        stack = self._stack()
        # Tolerate mis-nested exits (a span closed twice, or closed on a
        # different thread): drop back to the matching frame if present.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            del stack[stack.index(span) :]
        parent = stack[-1].name if stack else None
        self._append(
            span.name,
            span.attrs,
            span._started,
            duration_ms,
            len(stack),
            parent,
        )

    def _append(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]],
        started: float,
        duration_ms: float,
        depth: int,
        parent: Optional[str],
    ) -> SpanRecord:
        with self._lock:
            index = self._sequence
            self._sequence += 1
            record = SpanRecord(
                name=name,
                attrs=attrs,
                started=started,
                duration_ms=duration_ms,
                depth=depth,
                parent=parent,
                thread_id=threading.get_ident(),
                index=index,
            )
            self._ring.append(record)
        return record
