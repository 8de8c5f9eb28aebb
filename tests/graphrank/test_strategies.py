"""Graph-backed FlexRecs strategies, end to end.

``graph_rank_courses`` / ``similar_by_folkrank`` are direct-only
workflows: they must run through :class:`RecommendationService` on every
requested path (any SQL-ish path reroutes to the reference executor),
refuse to compile, route through the sharded service layer, and feed the
cloud scoring exposure deterministically.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strategies
from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.errors import CompilationError, FlexRecsError
from repro.graphrank import GraphRankEngine
from repro.minidb import Database
from repro.service import CourseRankService
from tests.clouds.test_gather_cache import (
    Replica,
    course_ids,
    uncommented_students,
)
from tests.graphrank.test_ranker_properties import make_db

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "3"))


@pytest.fixture(scope="module")
def app():
    return CourseRank(generate_university(scale="tiny", seed=7))


def _scores(recommendation):
    return [row["score"] for row in recommendation.rows]


class TestGraphRankCourses:
    def test_end_to_end_via_recommendation_service(self, app):
        recommendation = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=5
        )
        assert 0 < len(recommendation.rows) <= 5
        assert "score" in recommendation.columns
        scores = _scores(recommendation)
        assert scores == sorted(scores, reverse=True)
        known = set(app.db.query("SELECT CourseID FROM Courses").column(
            "CourseID"
        ))
        assert {row["CourseID"] for row in recommendation.rows} <= known

    def test_every_requested_path_reroutes_to_direct(self, app):
        baseline = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=5
        )
        for path in ("direct", "sql", "staged", "sqlite3"):
            rerouted = app.recommendations.run(
                "graph_rank_courses", student_id=1, top_k=5, path=path
            )
            assert rerouted.as_tuples("CourseID", "score") == (
                baseline.as_tuples("CourseID", "score")
            )

    def test_courses_for_student_post_processing(self, app):
        recommendation = app.recommendations.courses_for_student(
            1, strategy="graph_rank_courses", top_k=5
        )
        taken = set(
            app.db.query(
                "SELECT CourseID FROM Enrollments WHERE SuID = 1"
            ).column("CourseID")
        )
        assert len(recommendation.rows) <= 5
        for row in recommendation.rows:
            assert row["CourseID"] not in taken
            assert "missing_prerequisites" in row

    def test_workflow_refuses_to_compile(self, app):
        workflow = strategies.graph_rank_courses(1, top_k=5)
        assert workflow.direct_only
        with pytest.raises(CompilationError):
            workflow.compiled_for(app.db)

    def test_repeated_runs_are_bit_identical(self, app):
        first = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=8
        )
        second = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=8
        )
        assert first.as_tuples("CourseID", "score") == second.as_tuples(
            "CourseID", "score"
        )


class TestSimilarByFolkrank:
    def test_seed_course_is_excluded(self, app):
        recommendation = app.recommendations.run(
            "similar_by_folkrank", course_id=4, top_k=6
        )
        assert recommendation.rows
        assert 4 not in {row["CourseID"] for row in recommendation.rows}

    def test_matches_engine_ranking(self, app):
        recommendation = app.recommendations.run(
            "similar_by_folkrank", course_id=4, top_k=6
        )
        expected = GraphRankEngine.for_database(app.db).rank_courses(
            (("course", 4),), top_k=6
        )
        assert recommendation.as_tuples("CourseID", "score") == [
            tuple(pair) for pair in expected
        ]


class TestShardedService:
    @pytest.fixture(scope="class")
    def service(self):
        return CourseRankService(
            generate_university(scale="tiny", seed=7),
            num_shards=REPRO_SHARDS,
        )

    def test_graph_rank_courses_matches_the_unsharded_app(
        self, app, service
    ):
        base = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=5
        )
        sharded = service.recommend(
            "graph_rank_courses", student_id=1, top_k=5
        )
        assert sharded.rows
        assert sharded.columns == base.columns
        assert sharded.as_tuples(*base.columns) == base.as_tuples(
            *base.columns
        )

    def test_similar_by_folkrank_matches_the_unsharded_app(
        self, app, service
    ):
        base = app.recommendations.run(
            "similar_by_folkrank", course_id=2, top_k=5
        )
        sharded = service.recommend(
            "similar_by_folkrank", course_id=2, top_k=5
        )
        assert sharded.rows
        assert 2 not in {row["CourseID"] for row in sharded.rows}
        assert sharded.as_tuples(*base.columns) == base.as_tuples(
            *base.columns
        )

    def test_union_merge_reuses_layers_across_calls(self, service):
        engine = service.graphrank
        service.recommend("graph_rank_courses", student_id=2, top_k=5)
        rebuilt, reused = engine.layers_rebuilt, engine.layers_reused
        service.recommend("graph_rank_courses", student_id=3, top_k=5)
        assert engine.layers_rebuilt == rebuilt  # merge is warm
        assert engine.layers_reused > reused


#: comment words: common corpus words and one no course holds
GRAPH_WORDS = ("introduction", "systems", "data", "xyzzy")

graph_writes = st.lists(
    st.one_of(
        st.tuples(
            st.just("comment"),
            st.integers(0, 47),
            st.integers(0, 1),
            st.lists(st.sampled_from(GRAPH_WORDS), min_size=1, max_size=3),
        ),
        st.tuples(st.just("enroll"), st.integers(0, 47), st.integers(0, 5)),
        st.tuples(
            st.just("title"),
            st.integers(0, 47),
            st.lists(st.sampled_from(GRAPH_WORDS), min_size=1, max_size=3),
        ),
    ),
    min_size=1,
    max_size=5,
)


class TestShardedServiceFollowsWrites:
    @settings(max_examples=15, deadline=None)
    @given(steps=graph_writes, num_shards=st.integers(1, 5))
    def test_union_graph_equals_a_cold_unsharded_build(
        self, steps, num_shards
    ):
        """Comments through the service, enrollments and title edits on
        the owning shard, at 1–5 shards, after a warm first rank.  After
        every write the service's graph is a cold unsharded engine's over
        a copy that took the same writes: nodes, degrees and CSR arrays
        ``==``, its course ranking ``==``, and its recommendation rows
        ``==`` the facade's."""
        app = CourseRank(generate_university(scale="tiny", seed=7))
        suids = uncommented_students(app, 2)
        # the service splits a copy of the data before the facade
        # registers its writers (each build registers its own)
        sharded = Replica(app, suids, num_shards)
        replicas = [Replica(app, suids), sharded]
        service = sharded.service
        students = sorted(
            app.db.query("SELECT SuID FROM Students").column("SuID")
        )[:6]
        service.recommend("graph_rank_courses", student_id=suids[0])
        for kind, *args in steps:
            present = course_ids(app)
            course_id = present[args[0] % len(present)]
            if kind == "enroll":
                args[1] = students[args[1]]
                taken = app.db.query(
                    "SELECT COUNT(*) FROM Enrollments "
                    "WHERE SuID = ? AND CourseID = ?",
                    (args[1], course_id),
                ).scalar()
                if taken:
                    continue
            for replica in replicas:
                replica.write(kind, course_id, args, None)
            cold = GraphRankEngine(app.db)
            expected, adjacency = cold.refresh(), service.graphrank.refresh()
            assert adjacency.nodes == expected.nodes
            assert adjacency.degrees == expected.degrees
            assert adjacency.csr() == expected.csr()
            for student in suids:
                preference = (("user", student),)
                assert service.graphrank.rank_courses(
                    preference
                ) == cold.rank_courses(preference)
                params = dict(student_id=student, top_k=5)
                rows = service.recommend("graph_rank_courses", **params)
                base = app.recommendations.run("graph_rank_courses", **params)
                assert rows.as_tuples(*base.columns) == base.as_tuples(
                    *base.columns
                )


class TestConvergenceIsReported:
    """A ranking cut off at ``max_iters`` must not pass for a converged one."""

    @pytest.fixture(scope="class")
    def services(self):
        return [
            CourseRankService(
                generate_university(scale="tiny", seed=7), num_shards=shards
            )
            for shards in range(1, 6)
        ]

    def test_truncated_iteration_is_flagged_on_every_surface(
        self, app, services
    ):
        params = dict(student_id=1, top_k=5, max_iters=3)
        base = app.recommendations.run("graph_rank_courses", **params)
        assert base.rows and base.converged is False
        hits = app.graph.cache_info()["rank_hits"]
        again = app.recommendations.run("graph_rank_courses", **params)
        assert app.graph.cache_info()["rank_hits"] == hits + 1
        assert again.converged is False  # the memo entry carries the flag
        assert again.rows == base.rows
        for service in services:
            sharded = service.recommend("graph_rank_courses", **params)
            assert sharded.converged is False
            assert sharded.rows == base.rows

    def test_default_parameters_converge(self, app, services):
        base = app.recommendations.run(
            "graph_rank_courses", student_id=1, top_k=5
        )
        assert base.converged is True
        for service in services:
            sharded = service.recommend(
                "graph_rank_courses", student_id=1, top_k=5
            )
            assert sharded.converged is True
            assert sharded.rows == base.rows

    def test_post_processing_keeps_the_flag(self, app):
        recommendation = app.recommendations.courses_for_student(
            1, strategy="graph_rank_courses", top_k=5, max_iters=3
        )
        assert recommendation.rows and recommendation.converged is False

    def test_engine_ranking_reports_both_iterations(self, app):
        assert app.graph.rank_courses((("user", 1),), top_k=3).converged
        cut = app.graph.rank_courses((("user", 1),), top_k=3, max_iters=2)
        assert not cut.converged
        assert not app.graph.baseline(max_iters=2).converged


class TestRawRank:
    """``GraphRankEngine.rank``: one biased iteration, nothing subtracted."""

    def test_unseeded_rank_is_the_baseline(self, app):
        assert app.graph.rank().scores == app.graph.baseline().scores

    def test_differential_is_rank_minus_baseline(self, app):
        preference = (("user", 1),)
        biased = app.graph.rank(preference)
        baseline = app.graph.baseline().scores
        assert biased.converged
        assert app.graph.differential(preference) == {
            node: score - baseline[node] for node, score in biased.scores.items()
        }


class TestRowMaterialization:
    """Ranked ids become rows by primary-key lookup, one per id."""

    def test_ranked_course_without_a_row_is_skipped(self):
        database = make_db(enrollments=[(1, 99), (1, 2), (2, 99), (2, 3)])
        ranked = GraphRankEngine.for_database(database).rank_courses(
            (("user", 1),)
        )
        assert 99 in [course_id for course_id, _ in ranked]
        recommendation = strategies.graph_rank_courses(1).run(database)
        assert [row["CourseID"] for row in recommendation.rows] == [
            course_id for course_id, _ in ranked if course_id != 99
        ]

    def test_courses_not_keyed_by_course_id_are_refused(self):
        database = Database()
        database.execute(
            "CREATE TABLE Courses (Code INTEGER PRIMARY KEY, CourseID INTEGER)"
        )
        with pytest.raises(FlexRecsError):
            strategies.graph_rank_courses(1).run(database)
