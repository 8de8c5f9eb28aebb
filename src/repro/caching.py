"""Shared bounded caches.

One small LRU implementation used across layers: the minidb statement and
plan caches, the search tokenizer's token-stream memo, the data-cloud
term-statistics memo, and the service layer's scatter-gather response
cache.  Deliberately dependency-free so every layer can import it.

The cache is thread-safe: every operation (including the hit/miss
counters and the eviction that ``put`` may trigger) runs under one
internal lock, so the concurrent service layer can share a single
instance across worker threads without torn ``OrderedDict`` state.
Callers that need a larger atomic section (get-validate-put) still
serialize externally; the lock here only guarantees each individual
operation is atomic, which is all the version-counter discipline needs —
a racing duplicate ``put`` just recomputes the same value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional


class LRUCache:
    """A small bounded mapping with least-recently-used eviction."""

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("LRU cache size must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.maxsize:
                entries.popitem(last=False)

    def pop(self, key: Any) -> Optional[Any]:
        with self._lock:
            return self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        """A snapshot of the live keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def items(self) -> list:
        """A snapshot of the live ``(key, value)`` pairs, least recently
        used first; reading it moves nothing and counts no hit."""
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries
