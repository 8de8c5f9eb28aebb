"""CourseCloud: wiring the search engine and data clouds to CourseRank.

"In CourseRank, a data cloud is used to summarize the results of a
keyword search for courses, and is called course cloud" (Section 3.1).
This module owns the course search entity, the engine, the cloud builder
and the one-shard :class:`~repro.clouds.refinement.CloudNavigator` that
answers (and caches) every search and refinement step, and resolves hits
back to course rows.

The search index and the clouds' forward index are built by the first
read of :attr:`CourseCloudSearch.engine` or :attr:`~CourseCloudSearch.builder`
— every search, session, cube and cloud reads one — and by no other
path: an app that only serves pages and recommendations never pays for
them.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.clouds.cloud import CloudBuilder, DataCloud
from repro.clouds.refinement import CloudNavigator, RefinementSession
from repro.minidb.catalog import Database
from repro.search.engine import SearchEngine, SearchResult
from repro.search.entity import course_entity


class CourseCloudSearch:
    """The course search + course cloud feature."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._engine = SearchEngine(database, course_entity())
        self._builder = CloudBuilder(self._engine)
        # The navigator reads this object's engine and builder per answer,
        # so its first answer builds the index.
        self.navigator = CloudNavigator([self])
        self._built = False
        self._build_lock = threading.Lock()

    @property
    def engine(self) -> SearchEngine:
        """The course search engine, its index built first if need be."""
        self.ensure_built()
        return self._engine

    @property
    def builder(self) -> CloudBuilder:
        """The course cloud builder, the index built first if need be."""
        self.ensure_built()
        return self._builder

    @property
    def indexed(self) -> bool:
        """Whether the index is built (reading this builds nothing)."""
        return self._built

    @property
    def epoch(self) -> int:
        """The index epoch, 0 until the first build (builds nothing)."""
        return self._engine.index.epoch

    def build(self) -> int:
        """(Re)index all courses; returns the number of entities indexed."""
        with self._build_lock:
            return self._build()

    def ensure_built(self) -> None:
        """Build the index unless it is built: the one lazy path.

        Double-checked under one lock, so readers racing to the first
        search build it once and none of them reads it half built.
        """
        if not self._built:
            with self._build_lock:
                if not self._built:
                    self._build()

    def _build(self) -> int:
        # Under the database read lock, with ``indexed`` set before it is
        # released: a facade writer (which holds the write lock, and
        # refreshes the course only when the index is built) either lands
        # before the build reads the tables or finds the index built.
        with self.database.rwlock.read_locked():
            indexed = self._engine.build()
            self._builder.prepare()
            self._built = True
        return indexed

    def refresh_course(self, course_id: Any) -> None:
        """Re-index one course after its rows changed.

        A no-op while the index is unbuilt: the first build reads the
        tables as they are then.  Call it under the database write lock.
        """
        if self._built:
            self._engine.refresh_document(course_id)

    # -- one-shot search -----------------------------------------------------

    def search(
        self, query: str, limit: Optional[int] = None
    ) -> Tuple[SearchResult, DataCloud]:
        """Search courses and summarize the results with a course cloud.

        One answer of the one-shard navigator: repeated queries are
        served from its epoch-keyed answer cache; the returned result
        carries per-query observability (``candidate_count``,
        ``scored_count``, ``cache_hit``, ``elapsed_ms`` — see
        :meth:`query_stats`).
        """
        step = self.navigator.answer(query)
        if limit is not None:
            step.result.hits = step.result.hits[:limit]
        return step.result, step.cloud

    @staticmethod
    def query_stats(result: SearchResult) -> Dict[str, Any]:
        """Observability fields of one answered query, as a plain dict."""
        return {
            "query": result.query,
            "hits": len(result.hits),
            "candidate_count": result.candidate_count,
            "scored_count": result.scored_count,
            "cache_hit": result.cache_hit,
            "elapsed_ms": result.elapsed_ms,
        }

    def cache_info(self) -> Dict[str, Any]:
        """Hit/miss counters of the navigator's answer cache, with the
        cloud term source's gather cache (hits, misses, patched,
        size) under ``"gather"``."""
        info: Dict[str, Any] = dict(self.navigator.cache_info())
        info["gather"] = self._builder.source.cache_info()
        return info

    # -- refinement sessions ----------------------------------------------------

    def session(self, query: str) -> RefinementSession:
        """Start a click-to-refine session (Figures 3/4)."""
        return RefinementSession.over(self.navigator, query)

    # -- cloud cubes ------------------------------------------------------------

    def cube(
        self,
        result: Optional[SearchResult] = None,
        dimensions: Optional[Any] = None,
        scoring: Optional[Any] = None,
    ):
        """An OLAP cloud cube over courses (see :mod:`repro.clouds.cube`).

        Rooted at ``result``'s hits when given, else the whole corpus.
        ``scoring`` swaps the significance model for every cell (a name
        or a :class:`~repro.clouds.scoring.SignificanceScoring`).
        """
        from repro.clouds.cube import CloudCube

        builder = (
            self.builder
            if scoring is None
            else self.builder.with_scoring(scoring)
        )
        return CloudCube(
            self.database,
            builder,
            base_doc_ids=result.doc_ids() if result is not None else None,
            dimensions=dimensions,
            query=result.query if result is not None else "",
            query_terms=result.terms if result is not None else None,
        )

    # -- hit resolution -----------------------------------------------------

    def resolve_courses(
        self,
        result: SearchResult,
        limit: int = 20,
        with_snippets: bool = False,
    ) -> List[dict]:
        """Course rows (with department names) for the top hits, in rank order.

        With ``with_snippets=True`` each row carries a ``snippet`` showing
        the matched text with the query terms marked.
        """
        top = result.top(limit)
        if not top:
            return []
        rows = self.database.query(
            "SELECT c.CourseID, c.Title, c.Units, d.Name AS Department "
            "FROM Courses c JOIN Departments d ON c.DepID = d.DepID "
            f"WHERE c.CourseID IN ({', '.join('?' * len(top))})",
            [hit.doc_id for hit in top],
        ).to_dicts()
        by_id: Dict[Any, dict] = {row["CourseID"]: row for row in rows}
        resolved = []
        for hit in top:
            row = by_id.get(hit.doc_id)
            if row is not None:
                entry = dict(row)
                entry["score"] = hit.score
                if with_snippets:
                    from repro.search.snippets import best_snippet

                    entry["snippet"] = best_snippet(
                        self.engine, hit.doc_id, result.terms
                    )
                resolved.append(entry)
        return resolved
