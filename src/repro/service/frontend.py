"""The scatter-gather service coordinator.

One :class:`CourseRankService` fronts N shard-local :class:`CourseRank`
apps (see :mod:`repro.service.sharding`).  Reads scatter to every shard
and merge exactly:

* **Search** is two-phase distributed BM25: phase one gathers each
  shard's per-term document frequencies and field-length totals
  (:class:`repro.search.stats.CorpusStats` — all integer sums over
  disjoint document sets, so the merge is exact and order-independent);
  phase two scores each shard's candidates against the *merged* global
  statistics and k-way-merges the per-shard ranked lists under the same
  total-order sort key the unsharded engine uses.  The merged ranking is
  bit-identical to the unsharded build's.
* **Clouds** hand each shard's ``(occurrences, result_df)`` partial to
  the same counters → cloud kernel the unsharded builder runs on its one
  partial (:func:`~repro.clouds.cloud.cloud_over_shards`): it sums the
  partials, corpus document frequencies and corpus sizes (dyadic field
  weights → exact float sums).  Bit-identical again.
* **Sessions and cubes** are the clouds package's navigators over N
  shards — :class:`ServiceSession` is a
  :class:`~repro.clouds.refinement.RefinementSession` whose steps the
  coordinator answers, :class:`~repro.service.cube.ServiceCube` a
  :class:`~repro.clouds.cube.CloudCube` rooted at every shard; the
  facade's are the same classes at N = 1.
* **Metrics** merge through :meth:`repro.obs.metrics.MetricsRegistry.merge`
  (associative by PR 5's equivalence tests).

Course-scoped operations (course page, comment, per-course recommend)
route to the single owning shard.  Concurrency control is a service-level
:class:`~repro.minidb.concurrency.RWLock` — many concurrent reads, writes
exclusive — on top of the per-shard database locks, plus an epoch-vector
response cache: answered ``(query → merged result + cloud)`` pairs are
keyed by the tuple of per-shard index epochs, so a write to one shard
invalidates exactly the cached responses that could observe it, by
construction rather than by bookkeeping.
"""

from __future__ import annotations

import datetime
import heapq
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.caching import LRUCache, VersionedMemo
from repro.clouds.cloud import DataCloud, cloud_over_shards
from repro.clouds.refinement import RefinementSession, RefinementStep
from repro.core.executor import graph_recommend_rows
from repro.core.workflow import Recommendation
from repro.courserank.accounts import User
from repro.courserank.app import CourseRank
from repro.courserank.models import Comment
from repro.minidb.catalog import Database
from repro.minidb.concurrency import RWLock
from repro.obs import OBS
from repro.search.engine import SearchResult, _tiebreak
from repro.search.stats import CorpusStats
from repro.service.sharding import ShardedUniversity

DocId = Any

_HIT_KEY = lambda hit: (-hit.score, _tiebreak(hit.doc_id))  # noqa: E731


@dataclass
class _MergedResponse:
    """One cached scatter-gather answer (immutable once cached)."""

    terms: List[str]
    phrases: List[List[str]]
    hits: Tuple[Any, ...]
    candidate_count: int
    scored_count: int
    cloud: DataCloud
    shard_doc_ids: Tuple[Tuple[DocId, ...], ...]


def _shard_versions(
    deps: Tuple[Database, Optional[Sequence[str]]]
) -> Tuple[Any, ...]:
    """The stamp of a recommend memo entry: its shard's versions of the
    tables the strategy reads (every table when it cannot tell)."""
    database, tables = deps
    return database.versions(tables)


class CourseRankService:
    """A thread-safe, sharded CourseRank front end."""

    def __init__(
        self,
        database: Database,
        num_shards: int = 4,
        response_cache_size: int = 256,
    ) -> None:
        self.sharded = ShardedUniversity(database, num_shards)
        self.apps: List[CourseRank] = [
            CourseRank(shard) for shard in self.sharded.shards
        ]
        for app in self.apps:
            app.cloudsearch.build()
        self.rwlock = RWLock()
        # Coordinator response cache.  Keys embed the epoch vector (one
        # index epoch per shard), so any shard write rotates the key and
        # strands every response that predates it — no invalidation hooks.
        self._response_cache = LRUCache(maxsize=response_cache_size)
        # Recommendation memo: one entry per (shard, strategy, parameters),
        # valid while the tables the strategy reads keep their versions.
        self._recommend_cache = VersionedMemo(
            response_cache_size, _shard_versions
        )
        # Union graph-ranking engine, created on the first graph strategy
        # / cloud-weighting request: its module imports numpy, which no
        # other request needs.
        self._graphrank = None
        self._graphrank_lock = threading.Lock()

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    # -- epochs & caching ----------------------------------------------------

    def _epoch_vector(self) -> Tuple[int, ...]:
        return tuple(
            app.cloudsearch.engine.index.epoch for app in self.apps
        )

    def response_cache_info(self) -> Dict[str, int]:
        cache = self._response_cache
        return {"hits": cache.hits, "misses": cache.misses, "size": len(cache)}

    # -- scatter-gather search ----------------------------------------------

    def search(
        self, query: str, limit: Optional[int] = None
    ) -> Tuple[SearchResult, DataCloud]:
        """Search all shards; returns (merged result, merged cloud).

        The hit ranking, scores, and cloud are bit-identical to what the
        unsharded :class:`~repro.courserank.cloudsearch.CourseCloudSearch`
        produces over the union corpus.  As there, the cloud summarizes
        the *full* result set; ``limit`` truncates only the hit list.
        """
        with OBS.span("service.search", {"query": query}):
            with self.rwlock.read_locked():
                response = self._answer(query)
            result = self._result_from(query, response)
            if limit is not None:
                result.hits = result.hits[:limit]
            return result, self._copy_cloud(response.cloud)

    def count(self, query: str) -> int:
        """Total matching documents — the sum of disjoint per-shard counts."""
        with self.rwlock.read_locked():
            return sum(
                app.cloudsearch.count(query) for app in self.apps
            )

    def session(self, query: str) -> "ServiceSession":
        """A refinement session over every shard: the facade's
        :class:`~repro.clouds.refinement.RefinementSession`, each step
        answered by the scatter-gather."""
        return ServiceSession(self, query)

    def cube(self, dimensions: Optional[Any] = None):
        """An OLAP cloud cube over the whole sharded corpus: the facade's
        :class:`~repro.clouds.cube.CloudCube` rooted at every shard (see
        :mod:`repro.service.cube`)."""
        from repro.service.cube import ServiceCube

        return ServiceCube(self, dimensions=dimensions)

    # -- merged answer construction -----------------------------------------

    def _answer(self, query: str) -> _MergedResponse:
        """The cached merged response for ``query`` (read lock held)."""
        key = (self._epoch_vector(), query)
        cached = self._response_cache.get(key)
        if cached is not None:
            return cached
        response = self._scatter_gather(query)
        self._response_cache.put(key, response)
        return response

    def _answer_narrowed(
        self, query: str, parent_doc_ids: Tuple[Tuple[DocId, ...], ...]
    ) -> _MergedResponse:
        """Cached refine answer within each shard's ``parent_doc_ids``
        (read lock held).

        Refined responses depend on the parent result set as well as the
        query, so the key adds the parent's per-shard doc-id fingerprint
        — identical refinement walks (the common Zipfian-head case) hit.
        """
        key = (self._epoch_vector(), query, parent_doc_ids)
        cached = self._response_cache.get(key)
        if cached is not None:
            return cached
        response = self._scatter_gather(
            query, within_per_shard=[set(ids) for ids in parent_doc_ids]
        )
        self._response_cache.put(key, response)
        return response

    def _scatter_gather(
        self,
        query: str,
        within_per_shard: Optional[List[Optional[set]]] = None,
    ) -> _MergedResponse:
        engines = [app.cloudsearch.engine for app in self.apps]
        loose, phrases = engines[0].parse_query(query)
        all_terms = list(loose) + [
            term for phrase in phrases for term in phrase
        ]
        if not all_terms:
            empty_cloud = DataCloud(query=query, result_size=0, terms=[])
            return _MergedResponse(
                terms=[],
                phrases=[],
                hits=(),
                candidate_count=0,
                scored_count=0,
                cloud=empty_cloud,
                shard_doc_ids=tuple(() for _ in engines),
            )
        # Phase 1: merge global corpus statistics for the query terms.
        stats = CorpusStats.merged(
            CorpusStats.local(engine.index, all_terms) for engine in engines
        )
        # Phase 2: score every shard's candidates under the global stats,
        # then k-way merge the (already sorted) per-shard rankings.
        shard_results = []
        for index, engine in enumerate(engines):
            within = (
                within_per_shard[index]
                if within_per_shard is not None
                else None
            )
            shard_results.append(
                engine.search(
                    query, limit=None, within=within, corpus_stats=stats
                )
            )
        hits = tuple(
            heapq.merge(
                *(result.hits for result in shard_results), key=_HIT_KEY
            )
        )
        shard_doc_ids = tuple(
            tuple(result.doc_ids()) for result in shard_results
        )
        return _MergedResponse(
            terms=all_terms,
            phrases=phrases,
            hits=hits,
            candidate_count=sum(r.candidate_count for r in shard_results),
            scored_count=sum(r.scored_count for r in shard_results),
            cloud=cloud_over_shards(
                zip(
                    [app.cloudsearch.builder for app in self.apps],
                    shard_doc_ids,
                ),
                query,
                all_terms,
            ),
            shard_doc_ids=shard_doc_ids,
        )

    def _result_from(
        self, query: str, response: _MergedResponse
    ) -> SearchResult:
        """A fresh SearchResult over the cached immutable hit tuple."""
        return SearchResult(
            query=query,
            terms=list(response.terms),
            hits=list(response.hits),
            mode="all",
            phrases=[list(phrase) for phrase in response.phrases],
            candidate_count=response.candidate_count,
            scored_count=response.scored_count,
        )

    @staticmethod
    def _copy_cloud(cloud: DataCloud) -> DataCloud:
        """Clouds are cached; hand callers a private copy of the shell."""
        return DataCloud(
            query=cloud.query,
            result_size=cloud.result_size,
            terms=list(cloud.terms),
        )

    # -- routed single-shard operations -------------------------------------

    def _app_for_course(self, course_id: int) -> CourseRank:
        return self.apps[self.sharded.shard_of_course(course_id)]

    def course_page(
        self, course_id: int, viewer: Optional[User] = None
    ) -> Dict[str, Any]:
        with self.rwlock.read_locked():
            return self._app_for_course(course_id).course_page(
                course_id, viewer
            )

    @property
    def graphrank(self):
        """The union graph-ranking engine (one per service)."""
        with self._graphrank_lock:
            if self._graphrank is None:
                from repro.service.graph import ShardedGraphRank

                self._graphrank = ShardedGraphRank(self.sharded.shards)
            return self._graphrank

    def recommend(self, name: str, **params: Any):
        """Run a FlexRecs strategy on the owning shard.

        Strategies keyed by ``course_id`` route to that course's shard
        (its enrollments, plans, and comments are co-located there);
        anything else runs on shard 0 — on that shard's direct executor,
        behind a memo that stands until a table the strategy reads is
        written.  Unlike search/cloud/metrics, no
        cross-build equality is claimed for shard-local recommenders —
        **except** the graph strategies, which assemble the per-shard
        adjacency layers into the union graph (exact integer sums, see
        :mod:`repro.service.graph`) and so answer bit-identically to an
        unsharded engine.
        """
        if name in ("graph_rank_courses", "similar_by_folkrank"):
            return self._graph_recommend(name, params)
        course_id = params.get("course_id")
        shard_index = (
            self.sharded.shard_of_course(course_id)
            if course_id is not None
            else 0
        )
        recommendations = self.apps[shard_index].recommendations
        database = self.sharded.shards[shard_index]
        try:
            key = (shard_index, name, tuple(sorted(params.items())))
            hash(key)
        except TypeError:
            key = None
        with self.rwlock.read_locked():
            if key is not None:
                recommendation = self._recommend_cache.get(key)
                if recommendation is not None:
                    return recommendation
            recommendation = recommendations.run(name, **params)
            if key is not None:
                # An entry is valid while the tables its workflow reads
                # keep their versions; a write to any other table of the
                # shard leaves it a hit.  run() stays the facade's one
                # entry point, so a miss builds the (cheap) workflow again
                # to ask it.
                tables = recommendations.build(name, **params).tables_read()
                self._recommend_cache.put(
                    key, (database, tables), recommendation
                )
            return recommendation

    def _graph_recommend(self, name: str, params: Dict[str, Any]):
        """Graph strategies over the union adjacency.

        The workflow is still built (and validated) by shard 0's
        :class:`~repro.courserank.recommendations.RecommendationService`,
        so parameter defaults cannot drift from the unsharded path; only
        ranking and row materialization are service-level — the ranking
        on the union graph, the course rows fetched from each course's
        owning shard.
        """
        workflow = self.apps[0].recommendations.build(name, **params)
        shards = self.sharded.shards

        def courses_of(course_id: Any) -> Optional[Any]:
            shard_index = self.sharded.course_shard.get(course_id)
            if shard_index is None:
                return None
            return shards[shard_index].table("Courses")

        with self.rwlock.read_locked(), OBS.span(
            "service.graph.recommend", {"workflow": workflow.name}
        ):
            columns, rows, converged = graph_recommend_rows(
                self.graphrank,
                workflow.root,
                shards[0].table("Courses").schema,
                courses_of,
            )
            return Recommendation(
                columns=columns, rows=rows, converged=converged
            )

    def comment_on_course(
        self,
        user: User,
        course_id: int,
        text: Optional[str],
        rating: Optional[float],
        day: Optional[datetime.date] = None,
    ) -> Comment:
        """Write path: comment + rate on the owning shard.

        Runs under the service write lock — the shard's index epoch bumps
        when the course document refreshes, which retires every cached
        response whose epoch vector predates the write.
        """
        with self.rwlock.write_locked():
            return self._app_for_course(course_id).comment_on_course(
                user, course_id, text, rating, day=day
            )

    # -- observability -------------------------------------------------------

    def observability(self) -> Dict[str, Any]:
        """Process-wide OBS snapshot plus service/shard cache counters."""
        snapshot = OBS.snapshot()
        snapshot["service"] = {
            "shards": self.num_shards,
            "epoch_vector": list(self._epoch_vector()),
            "response_cache": self.response_cache_info(),
            "course_counts": self.sharded.course_counts(),
            "shard_search_caches": [
                app.cloudsearch.cache_info() for app in self.apps
            ],
        }
        return snapshot


class ServiceSession(RefinementSession):
    """A refinement session answered by the service: N shards, one walk.

    :class:`~repro.clouds.refinement.RefinementSession` with its answer
    hook served from the coordinator's response cache — each refine
    narrows *within each shard's* previous result set, which partitions
    the global ``within`` set exactly — so it walks through bit-identical
    queries, results, and clouds as a session over the unsharded engine.
    """

    def __init__(self, service: CourseRankService, query: str) -> None:
        self.service = service
        # No single engine or builder: every step is the service's answer.
        super().__init__(None, None, query)

    def refine(self, term: str) -> RefinementStep:
        with self.service.rwlock.read_locked():
            return super().refine(term)

    def _answer(
        self, query: str, parent: Optional[RefinementStep]
    ) -> RefinementStep:
        service = self.service
        with service.rwlock.read_locked():
            if parent is None:
                response = service._answer(query)
            else:
                response = service._answer_narrowed(
                    query, parent.shard_doc_ids
                )
        return RefinementStep(
            query=query,
            result=service._result_from(query, response),
            cloud=service._copy_cloud(response.cloud),
            shard_doc_ids=response.shard_doc_ids,
        )

    def _cube(
        self, shard_doc_ids: Tuple[Tuple[DocId, ...], ...], **spec: Any
    ):
        from repro.service.cube import ServiceCube

        return ServiceCube(self.service, shard_base=shard_doc_ids, **spec)
