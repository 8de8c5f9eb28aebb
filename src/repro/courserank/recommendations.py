"""FlexRecs wiring: the recommendation feature of the site.

"FlexRecs lets us experiment with different recommendation strategies
(workflows), and offer users options for personalizing recommendations"
(Section 3.2).  This module is the *site administrator* surface: a
registry of named strategies (the prebuilt ones plus any custom workflow
factory the administrator registers), per-user personalization
parameters, an execution-path switch (direct vs compiled SQL), and the
post-filter removing courses the student already took.

One engine serves: a run with no ``path`` answers from the direct
executor (:mod:`repro.core.executor`).  The SQL forms exist because the
paper's claim is that workflows compile to SQL a conventional DBMS
executes; they are held equal to the direct path by the differential
suites and selected per call: ``path="sql"`` (one compiled statement on
minidb), ``"staged"`` (a sequence of SQL calls with temp tables) or
``"sqlite3"`` (the same workflow object rendered in the sqlite dialect
and run on the database's :class:`~repro.backends.Sqlite3Backend`
mirror).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.errors import FlexRecsError
from repro.core import strategies
from repro.obs import OBS
from repro.core.workflow import Recommendation, Workflow
from repro.minidb.catalog import Database

StrategyFactory = Callable[..., Workflow]

#: strategies available out of the box, keyed by the name users pick
DEFAULT_STRATEGIES: Dict[str, StrategyFactory] = {
    "related_courses": strategies.related_courses,
    "collaborative_filtering": strategies.collaborative_filtering,
    "collaborative_filtering_fresh": strategies.collaborative_filtering_fresh,
    "similar_grade_students": strategies.similar_grade_students,
    "grade_based_filtering": strategies.grade_based_filtering,
    "similar_students_pearson": strategies.similar_students_pearson,
    "recommended_majors": strategies.recommended_majors,
    "recommended_quarters": strategies.recommended_quarters,
    "courses_taken_together": strategies.courses_taken_together,
    "similar_audience_courses": strategies.similar_audience_courses,
    "graph_rank_courses": strategies.graph_rank_courses,
    "similar_by_folkrank": strategies.similar_by_folkrank,
}


class RecommendationService:
    """Executes named recommendation strategies for users."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._registry: Dict[str, StrategyFactory] = dict(DEFAULT_STRATEGIES)

    # -- administrator surface ----------------------------------------------

    def register(self, name: str, factory: StrategyFactory) -> None:
        """Register a custom strategy (the FlexRecs admin tool)."""
        if not callable(factory):
            raise FlexRecsError("strategy factory must be callable")
        self._registry[name] = factory

    def register_dsl(self, name: str, text: str) -> Workflow:
        """Register a strategy written in the textual workflow language.

        The text may contain ``{param}`` placeholders filled from the
        keyword arguments at run time, e.g. ``filter [SuID = {student_id}]``.
        The workflow is validated once now (with placeholders filled by
        ``0``) so syntax errors surface at registration.
        """
        from repro.core.dsl import parse_workflow

        class _Probe(dict):
            def __missing__(self, key):
                return "1"  # valid for ids, counts, and top-k alike

        probe = parse_workflow(text.format_map(_Probe()), name=name)
        probe.validate(self.database)

        def factory(**params: Any) -> Workflow:
            return parse_workflow(text.format(**params), name=name)

        self._registry[name] = factory
        return probe

    def available(self) -> List[str]:
        return sorted(self._registry)

    def build(self, name: str, **params: Any) -> Workflow:
        factory = self._registry.get(name)
        if factory is None:
            raise FlexRecsError(
                f"unknown strategy {name!r}; available: {self.available()}"
            )
        return factory(**params)

    # -- execution ------------------------------------------------------------

    def run(
        self, name: str, path: str = "direct", **params: Any
    ) -> Recommendation:
        """Run a strategy.

        ``path`` is 'direct' (the default), 'sql' (one compiled statement
        on minidb), 'staged' (a sequence of SQL calls with temp tables) or
        'sqlite3' (the compiled statement on the sqlite3 mirror).
        """
        return self.run_workflow(self.build(name, **params), path=path)

    def run_workflow(
        self, workflow: Workflow, path: str = "direct"
    ) -> Recommendation:
        if workflow.direct_only:
            # Graph-backed workflows have no SQL form; whatever path was
            # requested, they run on the direct executor.
            path = "direct"
        with OBS.span(
            "recommend.run", {"workflow": workflow.name, "path": path}
        ):
            if path == "direct":
                return workflow.run(self.database)
            if path == "sql":
                return workflow.run_sql(self.database)
            if path == "staged":
                from repro.core.staged import run_staged

                workflow.validate(self.database)
                return run_staged(workflow, self.database)
            if path == "sqlite3":
                from repro.backends.dbapi import Sqlite3Backend

                # The database's one mirror: built once, however many
                # threads make the first such run (sqlite3 is imported
                # only then), and kept so its sync stays incremental.
                mirror = self.database.shared(
                    "sqlite3.mirror", lambda: Sqlite3Backend(self.database)
                )
                return mirror.run(workflow)
        raise FlexRecsError(f"unknown execution path {path!r}")

    # -- course recommendation post-processing --------------------------------

    def courses_for_student(
        self,
        suid: int,
        strategy: str = "collaborative_filtering",
        top_k: int = 10,
        exclude_taken: bool = True,
        path: str = "direct",
        **params: Any,
    ) -> Recommendation:
        """Course recommendations with the already-taken filter applied.

        "If a course A has as a prerequisite a course B, then A should
        not be recommended independently" — we additionally flag rows
        whose prerequisites the student has not completed.
        """
        params.setdefault("student_id", suid)
        params.setdefault("top_k", top_k + 50 if exclude_taken else top_k)
        recommendation = self.run(strategy, path=path, **params)
        if "CourseID" not in recommendation.columns:
            return recommendation
        taken = set(
            self.database.query(
                "SELECT CourseID FROM Enrollments WHERE SuID = ?", (suid,)
            ).column("CourseID")
        )
        prereqs = self._prerequisites_of(
            [row["CourseID"] for row in recommendation.rows]
        )
        rows = []
        for row in recommendation.rows:
            course_id = row["CourseID"]
            if exclude_taken and course_id in taken:
                continue
            missing = [
                prereq
                for prereq in prereqs.get(course_id, ())
                if prereq not in taken
            ]
            annotated = dict(row)
            annotated["missing_prerequisites"] = missing
            rows.append(annotated)
            if len(rows) >= top_k:
                break
        columns = list(recommendation.columns) + ["missing_prerequisites"]
        return Recommendation(
            columns=columns,
            rows=rows,
            stats=recommendation.stats,
            converged=recommendation.converged,
        )

    def _prerequisites_of(self, course_ids: List[int]) -> Dict[int, List[int]]:
        if not course_ids:
            return {}
        listed = list(set(course_ids))
        rows = self.database.query(
            "SELECT CourseID, PrereqID FROM Prerequisites "
            f"WHERE CourseID IN ({', '.join('?' * len(listed))})",
            listed,
        ).rows
        grouped: Dict[int, List[int]] = {}
        for course_id, prereq in rows:
            grouped.setdefault(course_id, []).append(prereq)
        return grouped
