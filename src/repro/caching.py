"""Shared bounded caches.

One small LRU implementation used across layers: the minidb statement
cache, the search analyzer's module-level token-stream memo
(``search.tokenizer.tokens``), the data-cloud term-statistics memo, and
the service layer's scatter-gather response cache.  Deliberately
dependency-free so every layer can import it.

:class:`VersionedMemo` layers the one staleness rule every derived cache
around minidb follows on top of it: an entry remembers what it depends
on, and it is served only while those dependencies are unchanged.

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
from typing import Any, Callable, Hashable, Optional, Tuple


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
        #: lookups that found an entry ``valid`` rejected (also misses)
        self.stale = 0

    def get(
        self, key: Any, valid: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Any]:
        """The entry under ``key``, or ``None``.

        An entry ``valid`` rejects is dropped and counts as a miss and as
        stale.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and valid is not None and not valid(entry):
                del self._entries[key]
                self.stale += 1
                entry = None
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


class VersionedMemo:
    """A bounded memo whose entries are served only while still valid.

    ``stamp(deps)`` captures the state an entry was computed from — for a
    per-database memo :meth:`Database.versions` of the tables it read
    (see :meth:`~repro.minidb.catalog.Database.memo`).  ``put`` stores the
    stamp with the value; ``get`` recomputes it and serves the value only
    if it still matches, else drops the entry and counts a miss (and a
    ``stale``).  Nothing ever has to invalidate an entry by hand.
    """

    def __init__(self, maxsize: int, stamp: Callable[[Any], Any]) -> None:
        self._entries = LRUCache(maxsize)
        self._stamp = stamp

        # A closure, not a method: the plan cache runs it on every SELECT.
        def fresh(entry: Tuple[Any, Any, Any]) -> bool:
            return stamp(entry[0]) == entry[1]

        self._fresh = fresh

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.get(key, self._fresh)
        return None if entry is None else entry[2]

    def put(self, key: Hashable, deps: Any, value: Any) -> None:
        self._entries.put(key, (deps, self._stamp(deps), value))

    def get_or_build(
        self, key: Hashable, deps: Any, build: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(value, was_hit)``.

        A miss stamps ``deps`` *before* building, so a write racing the
        build leaves the entry stale rather than wrong; racing builders
        both build and the last put wins.
        """
        value = self.get(key)
        if value is not None:
            return value, True
        stamp = self._stamp(deps)
        value = build()
        self._entries.put(key, (deps, stamp, value))
        return value, False

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    @property
    def stale(self) -> int:
        return self._entries.stale

    def keys(self) -> list:
        return self._entries.keys()

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
