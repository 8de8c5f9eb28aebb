"""The FolkRank engine: cached adjacency, baselines, and differentials.

One :class:`GraphRankEngine` per database (via :meth:`for_database`,
held by the database itself) owns

* the layered tripartite adjacency, refreshed incrementally — only
  layers whose source-table versions moved are rebuilt, and the graph
  over this database as its one shard is assembled again only when one
  did (see :mod:`repro.graphrank.adjacency`);
* a memoized **baseline** rank vector per adjacency version (the
  uniform-teleport run every differential subtracts);
* a memoized differential vector per ``(adjacency version, max_iters,
  preference)``, kept with whether its iterations converged — the
  Zipfian head of a service workload repeats preferences, so warm calls
  skip the iteration entirely.

All memo keys embed the adjacency version key (which embeds source-table
data versions and the schema epoch), so any write invalidates by
construction.  The engine is thread-safe: refresh and rank run under one
reentrant lock (the service layer calls in from many worker threads).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.caching import LRUCache
from repro.minidb.catalog import Database
from repro.obs import OBS
from repro.graphrank.adjacency import (
    LAYER_ORDER,
    AdjacencyLayer,
    NodeId,
    TripartiteAdjacency,
    build_layer,
    graph_version,
    layer_version,
)
from repro.graphrank.ranker import (
    MAX_ITERS,
    RankResult,
    normalize_preference,
    power_iteration,
    ranked_of_kind,
)


class RankedCourses(list):
    """``(course_id, score)`` pairs, best first; ``converged`` is False when
    an iteration behind them stopped at ``max_iters``, not ``epsilon``."""

    converged = True


class GraphRankEngine:
    """Preference-biased graph ranking over one database."""

    #: stale layers rebuilt / fresh ones reused by :meth:`layers`
    layers_rebuilt = 0
    layers_reused = 0

    def __init__(self, database: Database) -> None:
        self.database = database
        self._lock = threading.RLock()
        self._layers: Dict[str, AdjacencyLayer] = {}
        self._adjacency: Optional[TripartiteAdjacency] = None
        self._baseline_cache = LRUCache(maxsize=8)
        self._rank_cache = LRUCache(maxsize=64)

    @classmethod
    def for_database(cls, database: Database) -> "GraphRankEngine":
        """The shared engine of ``database`` (created on first use).

        The database holds it (:meth:`Database.shared`), so caching an
        engine never pins a database, and every caller — executor,
        clouds, service shards — converges on the same warmed adjacency.
        """
        return database.shared("graphrank.engine", lambda: cls(database))

    # -- adjacency maintenance ----------------------------------------------

    def layers(self) -> Dict[str, AdjacencyLayer]:
        """This database's layers, rebuilding only the stale ones."""
        with self._lock:
            layers: Dict[str, AdjacencyLayer] = {}
            for name in LAYER_ORDER:
                version = layer_version(self.database, name)
                cached = self._layers.get(name)
                if cached is not None and cached.version == version:
                    layers[name] = cached
                    self.layers_reused += 1
                    continue
                with OBS.span("graphrank.layer_build", {"layer": name}):
                    started = time.perf_counter()
                    layers[name] = build_layer(name, self.database)
                    if OBS.enabled:
                        OBS.metrics.inc(f"graphrank.layer_build.{name}")
                        OBS.metrics.observe(
                            "graphrank.layer_build.ms",
                            (time.perf_counter() - started) * 1000.0,
                        )
                self.layers_rebuilt += 1
            self._layers = layers
            return layers

    def refresh(self) -> TripartiteAdjacency:
        """The current adjacency: this database is its one shard."""
        with self._lock:
            return self._assemble(self.layers())

    def _assemble(
        self, *shard_layers: Dict[str, AdjacencyLayer]
    ) -> TripartiteAdjacency:
        """The graph over ``shard_layers``, assembled again only when some
        shard's layer version moved (the caller holds the engine lock)."""
        adjacency = self._adjacency
        if adjacency is None or adjacency.version_key() != graph_version(
            *shard_layers
        ):
            adjacency = self._adjacency = TripartiteAdjacency(*shard_layers)
        return adjacency

    # -- ranking -------------------------------------------------------------

    def baseline(self, max_iters: int = MAX_ITERS) -> RankResult:
        """The uniform-teleport iteration (memoized per graph version)."""
        with self._lock:
            adjacency = self.refresh()
            key = (adjacency.version_key(), max_iters)
            cached = self._baseline_cache.get(key)
            if cached is not None:
                return cached
            with OBS.span("graphrank.baseline"):
                result = power_iteration(adjacency, max_iters=max_iters)
            self._baseline_cache.put(key, result)
            return result

    def rank(
        self,
        preference: Optional[Iterable[Sequence]] = None,
        max_iters: int = MAX_ITERS,
    ) -> RankResult:
        """One raw (non-differential) preference-biased iteration."""
        frozen = normalize_preference(preference)
        with self._lock:
            return power_iteration(self.refresh(), frozen, max_iters)

    def differential(
        self, preference: Iterable[Sequence], max_iters: int = MAX_ITERS
    ) -> Dict[NodeId, float]:
        """FolkRank scores: biased rank minus the unbiased baseline.

        The subtraction cancels pure-topology popularity, leaving what
        the preference *added* — the folksonomy papers' differential
        ranking.  Memoized per (graph version, ``max_iters``, preference).
        """
        return self._differential(preference, max_iters)[0]

    def _differential(
        self, preference: Iterable[Sequence], max_iters: int = MAX_ITERS
    ) -> Tuple[Dict[NodeId, float], bool]:
        """The memo entry: ``(differential scores, both runs converged)``."""
        frozen = normalize_preference(preference)
        with self._lock:
            adjacency = self.refresh()
            key = (adjacency.version_key(), max_iters, frozen)
            cached = self._rank_cache.get(key)
            if cached is not None:
                if OBS.enabled:
                    OBS.metrics.inc("graphrank.rank.memo_hit")
                return cached
            with OBS.span(
                "graphrank.differential", {"seeds": len(frozen)}
            ) as span:
                started = time.perf_counter()
                base = self.baseline(max_iters)
                result = power_iteration(adjacency, frozen, max_iters)
                scores = {
                    node: score - base.scores[node]
                    for node, score in result.scores.items()
                }
                entry = (scores, result.converged and base.converged)
                if OBS.enabled:
                    span.set(
                        nodes=len(adjacency), iterations=result.iterations
                    )
                    OBS.metrics.inc("graphrank.rank.computed")
                    OBS.metrics.observe(
                        "graphrank.rank.ms",
                        (time.perf_counter() - started) * 1000.0,
                    )
            self._rank_cache.put(key, entry)
            return entry

    def rank_courses(
        self,
        preference: Iterable[Sequence],
        top_k: Optional[int] = None,
        exclude_seed: bool = True,
        max_iters: int = MAX_ITERS,
    ) -> RankedCourses:
        """Ranked ``(course_id, differential score)`` pairs.

        Only courses present in the graph (≥ one edge) are rankable;
        with ``exclude_seed`` any course named in the preference itself
        is dropped, so "similar to course X" never answers "X".
        """
        frozen = normalize_preference(preference)
        scores, converged = self._differential(frozen, max_iters)
        exclude = (
            tuple(node for node in frozen if node[0] == "course")
            if exclude_seed
            else ()
        )
        ranked = RankedCourses(
            ranked_of_kind(scores, "course", exclude=exclude, top_k=top_k)
        )
        ranked.converged = converged
        return ranked

    # -- maintenance / observability ----------------------------------------

    def clear_rank_memo(self) -> None:
        """Drop memoized differentials (baselines and layers survive).

        The warm-adjacency benchmark uses this to time the iteration
        itself rather than a dictionary lookup.
        """
        with self._lock:
            self._rank_cache.clear()

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "layers_rebuilt": self.layers_rebuilt,
                "layers_reused": self.layers_reused,
                "baseline_hits": self._baseline_cache.hits,
                "baseline_misses": self._baseline_cache.misses,
                "rank_hits": self._rank_cache.hits,
                "rank_misses": self._rank_cache.misses,
                "nodes": len(self._adjacency) if self._adjacency else 0,
                "edges": (
                    self._adjacency.edge_count if self._adjacency else 0
                ),
            }

