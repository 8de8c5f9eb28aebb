"""Version-keyed cache of the request-invariant half of a workflow.

Two kinds of entry share one bounded LRU per database.  A *vector* entry
is the ``{entity: vector-or-set}`` map the extend operator (ε) gets by
scanning its entire source table.  A *relation* entry is the evaluated
rows of a whole subtree made of ``Source`` and ``Extend`` only — the map
already attached, plus whatever lazy indexes the executor hung on it.
Neither depends on the request, so neither is rebuilt per request.  The
discipline is the minidb plan cache's: each key embeds the
``data_version`` of every table the entry was read from (bumped by every
insert/update/delete/clear/restore) and the database's ``schema_epoch``
(bumped by DDL, so a DROP + CREATE that resets a fresh table's counters
can never alias an old entry).  A write to a contributing table
therefore makes every stale entry unreachable — there are no
invalidation hooks to forget; old generations age out of the LRU.

Cached vector attributes are :class:`StatsVector` instances — plain dicts
carrying precomputed :class:`~repro.core.similarity.VectorStats` so the
recommend operator's Pearson/cosine fast paths can skip whole-vector
re-summation.  Cached values are shared across rows and runs and must be
treated as immutable (the direct executor never mutates them).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.caching import LRUCache
from repro.core.similarity import VectorStats, vector_stats
from repro.minidb.catalog import Database


class StatsVector(dict):
    """An extend vector (``{map_key: value}``) with precomputed stats."""

    __slots__ = ("stats",)

    stats: VectorStats


#: one bounded cache per live Database; a collected database drops its
#: entries automatically.
_CACHES: "WeakKeyDictionary[Database, LRUCache]" = WeakKeyDictionary()

_MAXSIZE = 64

# Guards the registry itself (WeakKeyDictionary reads can mutate internal
# state via dead-ref callbacks, and two threads must agree on one cache
# per database); the per-database LRUCache is internally thread-safe.
_CACHES_LOCK = threading.Lock()


def _cache_for(database: Database) -> LRUCache:
    with _CACHES_LOCK:
        cache = _CACHES.get(database)
        if cache is None:
            cache = LRUCache(maxsize=_MAXSIZE)
            _CACHES[database] = cache
        return cache


def _cached(
    database: Database, key: Tuple, build: Callable[[], Any]
) -> Tuple[Any, bool]:
    """``(entry, was_hit)``; racing builders both build, the last put wins."""
    cache = _cache_for(database)
    entry = cache.get(key)
    if entry is not None:
        return entry, True
    entry = build()
    cache.put(key, entry)
    return entry, False


def _entry_key(database: Database, info: Any, table: Any) -> Tuple:
    return (
        "vectors",
        info.source_table.lower(),
        info.source_key.lower(),
        info.value_column.lower(),
        info.map_column.lower() if info.map_column is not None else None,
        database.schema_epoch,
        table.data_version,
    )


def build_vectors(table: Any, info: Any) -> Dict[Any, Any]:
    """Materialize the extend map for ``info`` from ``table`` (one scan).

    Mirrors the direct executor's historical grouping exactly: NULL keys,
    NULL values, and NULL map keys are skipped; vector attributes keep
    the last value per (key, map_key) in row order.
    """
    schema = table.schema
    key_position = schema.column_position(info.source_key)
    value_position = schema.column_position(info.value_column)
    map_position = (
        schema.column_position(info.map_column)
        if info.map_column is not None
        else None
    )
    grouped: Dict[Any, Any] = {}
    if map_position is not None:
        for row in table.rows():
            key = row[key_position]
            value = row[value_position]
            if key is None or value is None:
                continue
            map_key = row[map_position]
            if map_key is None:
                continue
            vector = grouped.get(key)
            if vector is None:
                vector = grouped[key] = StatsVector()
            vector[map_key] = value
        for vector in grouped.values():
            vector.stats = vector_stats(vector)
    else:
        for row in table.rows():
            key = row[key_position]
            value = row[value_position]
            if key is None or value is None:
                continue
            grouped.setdefault(key, set()).add(value)
    return grouped


def extend_vectors(database: Database, info: Any) -> Tuple[Dict[Any, Any], bool]:
    """The cached extend map for ``info``; returns ``(map, was_hit)``."""
    table = database.table(info.source_table)
    return _cached(
        database,
        _entry_key(database, info, table),
        lambda: build_vectors(table, info),
    )


def table_versions(
    database: Database, tables: Optional[Sequence[str]]
) -> Tuple[int, ...]:
    """The schema epoch, then the data version of each of ``tables``
    (None: every table) — what anything computed from them is valid for."""
    names = database.table_names() if tables is None else tables
    return (
        database.schema_epoch,
        *(database.table(name).data_version for name in names),
    )


def cached_relation(
    database: Database,
    subtree: Any,
    tables: Sequence[str],
    build: Callable[[], Any],
) -> Tuple[Any, bool]:
    """The evaluated relation of a request-invariant ``subtree``.

    Operators are frozen dataclasses, so the subtree is its own key;
    ``tables`` is every table it reads.  Returns ``(relation, was_hit)``.
    """
    key = ("relation", subtree, table_versions(database, tables))
    return _cached(database, key, build)


def stats_of(vector: Any) -> Optional[VectorStats]:
    """The precomputed stats of a cached vector, else ``None``."""
    return getattr(vector, "stats", None)


def clear_extend_cache(database: Optional[Database] = None) -> None:
    """Drop cached extend maps (benchmarks / memory-pressure hook)."""
    if database is not None:
        cache = _CACHES.get(database)
        if cache is not None:
            cache.clear()
        return
    for cache in _CACHES.values():
        cache.clear()


def cache_info(database: Database) -> Dict[str, int]:
    """Hit/miss/size counters for one database's extend cache.

    ``size`` counts live entries; ``relations`` of them are evaluated
    subtrees, the rest (``vectors``) extend maps.
    """
    cache = _cache_for(database)
    kinds = [key[0] for key in cache.keys()]
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "size": len(kinds),
        "relations": kinds.count("relation"),
        "vectors": kinds.count("vectors"),
    }
