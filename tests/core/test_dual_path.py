"""The repo's central invariant: direct evaluation ≡ compiled SQL.

The paper deploys FlexRecs by compiling workflows to SQL run on a
conventional DBMS; the direct executor defines the reference semantics.
These tests — including hypothesis-generated random workflows — assert
the two paths return identical relations (same rows, same order, scores
equal to within float tolerance).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    CommonCount,
    CosineVector,
    EqualityMatch,
    InverseEuclidean,
    LevenshteinSimilarity,
    NumericCloseness,
    PearsonCorrelation,
    SetJaccard,
    SetOverlap,
    TextJaccard,
    VectorLookup,
    Workflow,
)
from repro.backends import Sqlite3Backend
from repro.core import strategies
from repro.core.operators import (
    Join,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
    extend,
)
from repro.core.staged import run_staged
from repro.minidb import Database


def assert_paths_agree(db, workflow, tolerance=1e-9):
    direct = workflow.run(db)
    compiled = workflow.run_sql(db)
    assert direct.columns == compiled.columns
    assert len(direct) == len(compiled), (
        f"direct={len(direct)} rows, sql={len(compiled)} rows"
    )
    for left, right in zip(direct.rows, compiled.rows):
        for column in direct.columns:
            a, b = left[column], right[column]
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance), (
                    f"{column}: {a} != {b}"
                )
            else:
                assert a == b, f"{column}: {a!r} != {b!r}"
    # A second compiled run reuses the memoized compilation and the
    # database's cached plan; it must be rank-identical to the cold run.
    warm = workflow.run_sql(db)
    assert warm.columns == compiled.columns
    assert warm.rows == compiled.rows
    return direct


def students_with_ratings():
    return extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    )


def students_with_taken():
    return extend(
        Source("Students"), "taken", "Enrollments", "SuID", "SuID",
        "CourseID",
    )


class TestFixedWorkflows:
    def test_scalar_max(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), "SuID = 444"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        result = assert_paths_agree(flexdb, workflow)
        assert result.rows[0]["SuID"] == 445

    @pytest.mark.parametrize("aggregate", ["max", "min", "avg", "sum", "count"])
    def test_every_aggregate(self, flexdb, aggregate):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), "GPA > 3.0"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                aggregate=aggregate,
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_udf_text_jaccard(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Select(Source("Courses"), "CourseID = 1"),
                comparator=TextJaccard("Title", "Title"),
                target_key="CourseID",
                exclude_self=("CourseID", "CourseID"),
            )
        )
        assert_paths_agree(flexdb, workflow)

    @pytest.mark.parametrize("course_id", [4, 6])
    def test_related_courses_zero_fill_on_every_path(self, flexdb, course_id):
        """'American History' shares a word with one course, 'Databases'
        with none: fewer than k score above 0, and the direct executor's
        0.0 fill must rank like the SQL forms, which score every pair."""
        workflow = strategies.related_courses(course_id, top_k=10)
        direct = assert_paths_agree(flexdb, workflow)
        ids = direct.column("CourseID")
        assert len(ids) == 5 and course_id not in ids
        assert direct.column("score").count(0.0) >= 4
        assert run_staged(workflow, flexdb).column("CourseID") == ids
        with Sqlite3Backend(flexdb) as mirror:
            assert mirror.run(workflow).column("CourseID") == ids

    def test_udf_levenshtein(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Select(Source("Courses"), "CourseID = 1"),
                comparator=LevenshteinSimilarity("Title", "Title"),
                target_key="CourseID",
                exclude_self=("CourseID", "CourseID"),
            )
        )
        # "Introduction to American Studies" is the fewest edits away.
        assert workflow.run(flexdb).column("CourseID")[0] == 5
        comparator = LevenshteinSimilarity("Title", "Title")
        assert comparator.score({"Title": "kitten"}, {"Title": "sitting"}) == (
            comparator.pair_function()("kitten", "sitting")
        )
        assert_paths_agree(flexdb, workflow)

    @pytest.mark.parametrize(
        "comparator_cls", [InverseEuclidean, PearsonCorrelation, CosineVector]
    )
    def test_vector_comparators(self, flexdb, comparator_cls):
        workflow = Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=Select(students_with_ratings(), "SuID = 444"),
                comparator=comparator_cls("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        assert_paths_agree(flexdb, workflow)

    @pytest.mark.parametrize(
        "comparator_cls", [SetJaccard, SetOverlap, CommonCount]
    )
    def test_set_comparators(self, flexdb, comparator_cls):
        workflow = Workflow(
            Recommend(
                target=students_with_taken(),
                reference=Select(students_with_taken(), "SuID = 445"),
                comparator=comparator_cls("taken", "taken"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_lookup_avg(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Select(students_with_ratings(), "SuID IN (444, 445)"),
                comparator=VectorLookup("CourseID", "ratings"),
                target_key="CourseID",
                aggregate="avg",
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_stacked_recommends_figure_5b(self, flexdb):
        similar = Recommend(
            target=students_with_ratings(),
            reference=Select(students_with_ratings(), "SuID = 444"),
            comparator=InverseEuclidean("ratings", "ratings"),
            target_key="SuID",
            score_column="sim",
            top_k=2,
            exclude_self=("SuID", "SuID"),
        )
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=similar,
                comparator=VectorLookup("CourseID", "ratings"),
                target_key="CourseID",
                aggregate="avg",
                top_k=5,
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_topk_over_recommend(self, flexdb):
        workflow = Workflow(
            TopK(
                Recommend(
                    target=Source("Students"),
                    reference=Source("Students"),
                    comparator=NumericCloseness("GPA", "GPA"),
                    target_key="SuID",
                ),
                2,
                "score",
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_equality_match_with_nulls(self, flexdb):
        flexdb.execute(
            "INSERT INTO Students VALUES (448, 'NullGPA', 2012, NULL, NULL)"
        )
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=EqualityMatch("Major", "Major"),
                target_key="SuID",
                aggregate="avg",
                exclude_self=("SuID", "SuID"),
            )
        )
        assert_paths_agree(flexdb, workflow)

    def test_join_on_every_path(self, flexdb):
        """A workflow with a Join gives the same rows on every path."""
        workflow = Workflow(
            TopK(
                Join(
                    Project(Source("Courses"), ("CourseID", "DepID", "Title")),
                    SqlSource(
                        "SELECT DepID AS D, Name AS Department FROM Departments"
                    ),
                    left_on="DepID",
                    right_on="D",
                ),
                5,
                "CourseID",
                descending=False,
            )
        )
        direct = workflow.run(flexdb)
        assert direct.column("Department")[:2] == [
            "Computer Science", "Computer Science",
        ]
        assert workflow.run_sql(flexdb).rows == direct.rows
        assert run_staged(workflow, flexdb).rows == direct.rows
        with Sqlite3Backend(flexdb) as mirror:
            assert mirror.run(workflow).rows == direct.rows


class TestWarmCompiledPath:
    """Repeated run_sql must hit the statement/plan caches, not re-plan."""

    def workflow(self):
        return Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=Select(students_with_ratings(), "SuID = 444"),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )

    def test_warm_run_hits_plan_cache(self, flexdb):
        workflow = self.workflow()
        cold = workflow.run_sql(flexdb)
        hits = flexdb._plan_cache.hits
        warm = workflow.run_sql(flexdb)
        assert flexdb._plan_cache.hits > hits
        assert warm.rows == cold.rows

    def test_compile_memo_reused_and_invalidated(self, flexdb):
        workflow = self.workflow()
        compiled = workflow.compiled_for(flexdb)
        workflow.run_sql(flexdb)
        assert workflow.compiled_for(flexdb) is compiled  # no recompilation
        flexdb.execute("CREATE TABLE Scratch (X INTEGER PRIMARY KEY)")
        # schema epoch moved: recompiles
        recompiled = workflow.compiled_for(flexdb)
        assert recompiled is not compiled
        assert recompiled.sql == compiled.sql

    def test_warm_run_sees_new_data(self, flexdb):
        workflow = self.workflow()
        workflow.run_sql(flexdb)
        flexdb.execute(
            "INSERT INTO Comments VALUES "
            "(447, 6, 2008, 'Aut', 'late', 5.0, '2008-06-01')"
        )
        warm = workflow.run_sql(flexdb)
        fresh = self.workflow().run(flexdb)
        assert warm.rows and len(warm.rows) == len(fresh.rows)
        for left, right in zip(warm.rows, fresh.rows):
            assert left["SuID"] == right["SuID"]


# ---------------------------------------------------------------------------
# randomized equivalence
# ---------------------------------------------------------------------------


def build_random_db(students, ratings):
    db = Database()
    db.execute_script(
        """
        CREATE TABLE Students (SuID INTEGER PRIMARY KEY, Name TEXT,
          Class INTEGER, Major TEXT, GPA FLOAT);
        CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, DepID INTEGER,
          Title TEXT, Description TEXT, Units INTEGER, Url TEXT);
        CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, Year INTEGER,
          Term TEXT, Text TEXT, Rating FLOAT, CommentDate DATE,
          PRIMARY KEY (SuID, CourseID));
        """
    )
    course_ids = set()
    for suid, gpa in students:
        db.table("Students").insert(
            [suid, f"s{suid}", 2010, "M", gpa]
        )
    for course_id in {course for _suid, course, _r in ratings}:
        db.table("Courses").insert(
            [course_id, 1, f"Course {course_id}", "", 3, ""]
        )
        course_ids.add(course_id)
    student_ids = {suid for suid, _g in students}
    seen = set()
    for suid, course_id, rating in ratings:
        if suid not in student_ids or (suid, course_id) in seen:
            continue
        seen.add((suid, course_id))
        db.table("Comments").insert(
            [suid, course_id, 2008, "Aut", "t", rating, "2008-01-01"]
        )
    return db


students_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
    unique_by=lambda pair: pair[0],
)

ratings_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # SuID
        st.integers(min_value=1, max_value=6),  # CourseID
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ),
    max_size=30,
)


class TestRandomizedEquivalence:
    @given(students_strategy, ratings_strategy)
    def test_scalar_closeness_random(self, students, ratings):
        db = build_random_db(students, ratings)
        reference_id = students[0][0]
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), f"SuID = {reference_id}"),
                comparator=NumericCloseness("GPA", "GPA", scale=0.7),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        assert_paths_agree(db, workflow, tolerance=1e-7)

    @given(students_strategy, ratings_strategy)
    def test_inverse_euclidean_random(self, students, ratings):
        db = build_random_db(students, ratings)
        reference_id = students[0][0]
        workflow = Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=Select(
                    students_with_ratings(), f"SuID = {reference_id}"
                ),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        assert_paths_agree(db, workflow, tolerance=1e-7)

    @given(students_strategy, ratings_strategy, st.sampled_from(["avg", "max", "count"]))
    def test_lookup_random(self, students, ratings, aggregate):
        db = build_random_db(students, ratings)
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=students_with_ratings(),
                comparator=VectorLookup("CourseID", "ratings"),
                target_key="CourseID",
                aggregate=aggregate,
            )
        )
        assert_paths_agree(db, workflow, tolerance=1e-7)

    @given(students_strategy, ratings_strategy)
    def test_pearson_random(self, students, ratings):
        db = build_random_db(students, ratings)
        reference_id = students[0][0]
        workflow = Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=Select(
                    students_with_ratings(), f"SuID = {reference_id}"
                ),
                comparator=PearsonCorrelation("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        # Pearson near-zero-variance cases can diverge between the exact
        # Python formula and SQL float accumulation; compare score sets
        # rather than exact rank for robustness.
        direct = workflow.run(db)
        compiled = workflow.run_sql(db)
        left = {row["SuID"]: row["score"] for row in direct.rows}
        right = {row["SuID"]: row["score"] for row in compiled.rows}
        assert set(left) == set(right)
        for suid, value in left.items():
            assert math.isclose(value, right[suid], rel_tol=1e-6, abs_tol=1e-6)
