"""Version-keyed cache of the request-invariant half of a workflow.

Two kinds of entry share one bounded LRU per database.  A *vector* entry
is the ``{entity: vector-or-set}`` map the extend operator (ε) gets by
scanning its entire source table.  A *relation* entry is the evaluated
rows of a whole subtree made of ``Source`` and ``Extend`` only — the map
already attached, plus whatever lazy indexes the executor hung on it.
Neither depends on the request, so neither is rebuilt per request.  The
cache is the database's ``"extend"`` memo
(:meth:`~repro.minidb.catalog.Database.memo`), so it follows the one
staleness rule: an entry is stamped with :meth:`Database.versions` of the
tables it was read from and is served only while they hold — a write to a
contributing table (or any DDL) makes it a miss.  There are no
invalidation hooks to forget.

Cached vector attributes are :class:`StatsVector` instances — plain dicts
carrying precomputed :class:`~repro.core.similarity.VectorStats` so the
recommend operator's Pearson/cosine fast paths can skip whole-vector
re-summation.  Cached values are shared across rows and runs and must be
treated as immutable (the direct executor never mutates them).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.caching import VersionedMemo
from repro.core.similarity import VectorStats, vector_stats
from repro.minidb.catalog import Database


class StatsVector(dict):
    """An extend vector (``{map_key: value}``) with precomputed stats."""

    __slots__ = ("stats",)

    stats: VectorStats


_MAXSIZE = 64


def _memo(database: Database) -> VersionedMemo:
    return database.memo("extend", _MAXSIZE)


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
    key = (
        "vectors",
        info.source_table.lower(),
        info.source_key.lower(),
        info.value_column.lower(),
        info.map_column.lower() if info.map_column is not None else None,
    )
    return _memo(database).get_or_build(
        key,
        (info.source_table,),
        lambda: build_vectors(database.table(info.source_table), info),
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
    return _memo(database).get_or_build(
        ("relation", subtree), tuple(tables), build
    )


def stats_of(vector: Any) -> Optional[VectorStats]:
    """The precomputed stats of a cached vector, else ``None``."""
    return getattr(vector, "stats", None)


def clear_extend_cache(database: Database) -> None:
    """Drop ``database``'s cached extend maps and relations (benchmarks /
    memory-pressure hook)."""
    _memo(database).clear()


def cache_info(database: Database) -> Dict[str, int]:
    """Hit/miss/stale/size counters for one database's extend cache.

    ``size`` counts live entries; ``relations`` of them are evaluated
    subtrees, the rest (``vectors``) extend maps.  A stale lookup is also
    a miss.
    """
    memo = _memo(database)
    kinds = [key[0] for key in memo.keys()]
    return {
        "hits": memo.hits,
        "misses": memo.misses,
        "stale": memo.stale,
        "size": len(kinds),
        "relations": kinds.count("relation"),
        "vectors": kinds.count("vectors"),
    }
