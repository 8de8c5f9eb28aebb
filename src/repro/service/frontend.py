"""The scatter-gather service coordinator.

One :class:`CourseRankService` fronts N shard-local :class:`CourseRank`
apps (see :mod:`repro.service.sharding`).  Reads scatter to every shard
and merge exactly:

* **Search, clouds and sessions** are one
  :class:`~repro.clouds.refinement.CloudNavigator` over every shard's
  ``(engine, builder)`` pair — the facade's is the same class at N = 1.
  It scores each shard's candidates under the merged corpus statistics,
  k-way merges the rankings and sums the shards' cloud partials, so
  every answer is bit-identical to the unsharded build's; its answer
  cache is keyed by the tuple of per-shard index epochs, so a write to
  one shard retires exactly the answers that could observe it, by
  construction rather than by bookkeeping.  :class:`ServiceSession` is
  a :class:`~repro.clouds.refinement.RefinementSession` over it.
* **Cubes** are a :class:`~repro.clouds.cube.CloudCube` rooted at every
  shard (:class:`~repro.service.cube.ServiceCube`).
* **Metrics** merge through :meth:`repro.obs.metrics.MetricsRegistry.merge`
  (associative by PR 5's equivalence tests).

Constructing the service splits the data and builds no index: each
shard's search and cloud indexes are built by the first search, session,
cube or cloud that reads them
(:meth:`~repro.courserank.cloudsearch.CourseCloudSearch.ensure_built`),
so page and recommend traffic never pays for them.

Course-scoped operations (course page, comment, per-course recommend)
route to the single owning shard.  Concurrency control is a service-level
:class:`~repro.minidb.concurrency.RWLock` — many concurrent reads, writes
exclusive — on top of the per-shard database locks.
"""

from __future__ import annotations

import datetime
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.caching import VersionedMemo
from repro.clouds.cloud import DataCloud
from repro.clouds.refinement import (
    CloudNavigator,
    RefinementSession,
    RefinementStep,
)
from repro.core.executor import graph_recommend_rows
from repro.core.workflow import Recommendation
from repro.courserank.accounts import User
from repro.courserank.app import CourseRank
from repro.courserank.models import Comment
from repro.minidb.catalog import Database
from repro.minidb.concurrency import RWLock
from repro.obs import OBS
from repro.search.engine import SearchResult
from repro.service.sharding import ShardedUniversity

DocId = Any

#: recommendations the service memoises, least recently used dropped first
RECOMMEND_MEMO_SIZE = 256


def _shard_versions(
    deps: Tuple[Database, Optional[Sequence[str]]]
) -> Tuple[Any, ...]:
    """The stamp of a recommend memo entry: its shard's versions of the
    tables the strategy reads (every table when it cannot tell)."""
    database, tables = deps
    return database.versions(tables)


class CourseRankService:
    """A thread-safe, sharded CourseRank front end."""

    def __init__(self, database: Database, num_shards: int = 4) -> None:
        self.sharded = ShardedUniversity(database, num_shards)
        self.apps: List[CourseRank] = [
            CourseRank(shard) for shard in self.sharded.shards
        ]
        self.rwlock = RWLock()
        # Every search, cloud and session step over every shard, cached.
        # A shard's search and cloud indexes are built by the first
        # answer, cube or cloud that reads them, not here: page and
        # recommend traffic never needs them.
        self.navigator = CloudNavigator(app.cloudsearch for app in self.apps)
        # Recommendation memo: one entry per (shard, strategy, parameters),
        # valid while the tables the strategy reads keep their versions.
        self._recommend_cache = VersionedMemo(
            RECOMMEND_MEMO_SIZE, _shard_versions
        )
        # Union graph-ranking engine, created on the first graph strategy
        # / cloud-weighting request: its module imports numpy, which no
        # other request needs.
        self._graphrank = None
        self._graphrank_lock = threading.Lock()

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    def response_cache_info(self) -> Dict[str, int]:
        """The navigator's answer-cache counters."""
        with self.rwlock.read_locked():
            return self.navigator.cache_info()

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
                step = self.navigator.answer(query)
            if limit is not None:
                step.result.hits = step.result.hits[:limit]
            return step.result, step.cloud

    def session(self, query: str) -> "ServiceSession":
        """A refinement session over every shard: the facade's
        :class:`~repro.clouds.refinement.RefinementSession`, each step
        answered by the service's navigator."""
        return ServiceSession(self, query)

    def cube(self, dimensions: Optional[Any] = None):
        """An OLAP cloud cube over the whole sharded corpus: the facade's
        :class:`~repro.clouds.cube.CloudCube` rooted at every shard (see
        :mod:`repro.service.cube`)."""
        from repro.service.cube import ServiceCube

        return ServiceCube(self, dimensions=dimensions)

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
            workflow = recommendations.build(name, **params)
            recommendation = recommendations.run_workflow(workflow)
            if key is not None:
                # An entry is valid while the tables its workflow reads
                # keep their versions; a write to any other table of the
                # shard leaves it a hit.
                self._recommend_cache.put(
                    key, (database, workflow.tables_read()), recommendation
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
        answer whose epoch vector predates the write.
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
            # Reading these builds no index: an unbuilt shard's epoch is 0,
            # as an empty one's may be, so ``indexed`` tells them apart.
            "indexed": [app.cloudsearch.indexed for app in self.apps],
            "epoch_vector": [app.cloudsearch.epoch for app in self.apps],
            "response_cache": self.response_cache_info(),
            "course_counts": self.sharded.course_counts(),
            "shard_search_caches": [
                app.cloudsearch.cache_info() for app in self.apps
            ],
        }
        return snapshot


class ServiceSession(RefinementSession):
    """A refinement session answered by the service: N shards, one walk.

    :class:`~repro.clouds.refinement.RefinementSession` over the
    service's navigator — each refine narrows *within each shard's*
    previous result set, which partitions the global ``within`` set
    exactly — so it walks through bit-identical queries, results, and
    clouds as a session over the unsharded engine.  All it adds is the
    service read lock around every step and cube.
    """

    def __init__(self, service: CourseRankService, query: str) -> None:
        self.service = service
        self._start(service.navigator, query)

    def refine(self, term: str) -> RefinementStep:
        with self.service.rwlock.read_locked():
            return super().refine(term)

    def _push(
        self, query: str, parent: Optional[RefinementStep] = None
    ) -> RefinementStep:
        with self.service.rwlock.read_locked():
            return super()._push(query, parent)

    def _cube(
        self, shard_doc_ids: Tuple[Tuple[DocId, ...], ...], **spec: Any
    ):
        from repro.service.cube import ServiceCube

        return ServiceCube(self.service, shard_base=shard_doc_ids, **spec)
