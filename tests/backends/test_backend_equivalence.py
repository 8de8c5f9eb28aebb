"""Property: compiled workflows are *bit-identical* across backends.

The same workflow object is compiled per dialect and executed on the
in-process minidb engine and on stdlib sqlite3 through the sqlite3
mirror; the two relations must match exactly — same columns, same row
order, floats compared with ``==`` (no tolerance).

Why exact equality is a fair ask: both engines evaluate the identical
scalar expression tree over IEEE-754 doubles, so any per-pair score is
bit-deterministic.  The only order-sensitive operations are SUM/AVG, so
the generator keeps rating/GPA data on quarter steps (dyadic rationals
— exact in binary floating point) and restricts the sum/avg aggregates
to comparators whose pair scores stay dyadic (VectorLookup returns the
rating itself, EqualityMatch returns 0/1); max/min/count are
order-insensitive and run against every comparator.

DML churn between runs additionally proves the version-keyed snapshot
sync: a stale mirror would keep answering with pre-churn rows.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import Sqlite3Backend
from repro.core import (
    CommonCount,
    CosineVector,
    EqualityMatch,
    InverseEuclidean,
    NumericCloseness,
    PearsonCorrelation,
    SetJaccard,
    SetOverlap,
    VectorLookup,
    Workflow,
)
from repro.core.operators import Recommend, Select, Source, TopK, extend
from repro.minidb import Database

# -- generator ----------------------------------------------------------------

SUIDS = list(range(1, 8))
COURSE_IDS = list(range(1, 7))
MAJORS = ["cs", "history", "math"]

quarter_ratings = st.integers(min_value=1, max_value=20).map(
    lambda quarters: quarters / 4.0
)
quarter_gpas = st.integers(min_value=8, max_value=16).map(
    lambda quarters: quarters / 4.0
)


@st.composite
def universes(draw):
    """A small Students + Comments universe on quarter-step values."""
    students = [
        (suid, f"s{suid}", draw(st.sampled_from(MAJORS)), draw(quarter_gpas))
        for suid in SUIDS
    ]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(SUIDS), st.sampled_from(COURSE_IDS)),
            min_size=6,
            max_size=24,
            unique=True,
        )
    )
    comments = [
        (suid, course, draw(quarter_ratings)) for suid, course in pairs
    ]
    return students, comments


def build_database(students, comments):
    db = Database()
    db.execute_script(
        """
        CREATE TABLE Students (SuID INTEGER PRIMARY KEY, Name TEXT,
          Major TEXT, GPA FLOAT);
        CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, Title TEXT);
        CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER,
          Rating FLOAT, PRIMARY KEY (SuID, CourseID));
        """
    )
    for suid, name, major, gpa in students:
        db.execute(
            "INSERT INTO Students VALUES (?, ?, ?, ?)",
            (suid, name, major, gpa),
        )
    for course in COURSE_IDS:
        db.execute(
            "INSERT INTO Courses VALUES (?, ?)", (course, f"c{course}")
        )
    for suid, course, rating in comments:
        db.execute(
            "INSERT INTO Comments VALUES (?, ?, ?)", (suid, course, rating)
        )
    return db


def students_with_ratings():
    return extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    )


def students_with_rated_set():
    # Set-valued extend (no map column): the set of courses rated.
    return extend(
        Source("Students"), "rated", "Comments", "SuID", "SuID", "CourseID",
    )


#: comparator factory -> aggregates that stay order-insensitive for it.
#: sum/avg only where every pair score is a dyadic rational (exact, so
#: accumulation order cannot matter); see the module docstring.
ORDER_SAFE = ["max", "min", "count"]
DYADIC_SAFE = ORDER_SAFE + ["sum", "avg"]


def _vector_workflow(comparator_cls, aggregate, reference_suid, top_k):
    swr = students_with_ratings()
    recommend = Recommend(
        target=swr,
        reference=Select(swr, f"SuID = {reference_suid}"),
        comparator=comparator_cls("ratings", "ratings"),
        target_key="SuID",
        exclude_self=("SuID", "SuID"),
        aggregate=aggregate,
    )
    return Workflow(TopK(recommend, top_k, "score"))


def _set_workflow(comparator_cls, aggregate, reference_suid, top_k):
    sws = students_with_rated_set()
    recommend = Recommend(
        target=sws,
        reference=Select(sws, f"SuID = {reference_suid}"),
        comparator=comparator_cls("rated", "rated"),
        target_key="SuID",
        exclude_self=("SuID", "SuID"),
        aggregate=aggregate,
    )
    return Workflow(TopK(recommend, top_k, "score"))


def _scalar_workflow(comparator, aggregate, reference_suid, top_k):
    recommend = Recommend(
        target=Source("Students"),
        reference=Select(Source("Students"), f"SuID <= {reference_suid}"),
        comparator=comparator,
        target_key="SuID",
        exclude_self=("SuID", "SuID"),
        aggregate=aggregate,
    )
    return Workflow(TopK(recommend, top_k, "score"))


def _lookup_workflow(aggregate, reference_suid, top_k):
    recommend = Recommend(
        target=Source("Courses"),
        reference=Select(students_with_ratings(), f"SuID <= {reference_suid}"),
        comparator=VectorLookup("CourseID", "ratings"),
        target_key="CourseID",
        aggregate=aggregate,
    )
    return Workflow(TopK(recommend, top_k, "score"))


@st.composite
def workflow_cases(draw):
    reference_suid = draw(st.sampled_from(SUIDS))
    top_k = draw(st.integers(min_value=2, max_value=8))
    kind = draw(
        st.sampled_from(["vector", "set", "scalar", "equality", "lookup"])
    )
    if kind == "vector":
        comparator_cls = draw(
            st.sampled_from(
                [InverseEuclidean, PearsonCorrelation, CosineVector]
            )
        )
        aggregate = draw(st.sampled_from(ORDER_SAFE))
        return _vector_workflow(comparator_cls, aggregate, reference_suid, top_k)
    if kind == "set":
        comparator_cls = draw(
            st.sampled_from([SetJaccard, SetOverlap, CommonCount])
        )
        aggregate = draw(st.sampled_from(ORDER_SAFE))
        return _set_workflow(comparator_cls, aggregate, reference_suid, top_k)
    if kind == "scalar":
        scale = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        aggregate = draw(st.sampled_from(ORDER_SAFE))
        return _scalar_workflow(
            NumericCloseness("GPA", "GPA", scale=scale),
            aggregate, reference_suid, top_k,
        )
    if kind == "equality":
        aggregate = draw(st.sampled_from(DYADIC_SAFE))
        return _scalar_workflow(
            EqualityMatch("Major", "Major"), aggregate, reference_suid, top_k
        )
    aggregate = draw(st.sampled_from(DYADIC_SAFE))
    return _lookup_workflow(aggregate, reference_suid, top_k)


churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.sampled_from(SUIDS),
        st.sampled_from(COURSE_IDS),
        quarter_ratings,
    ),
    min_size=1,
    max_size=6,
)


def apply_churn(db, ops):
    for op, suid, course, rating in ops:
        if op == "insert":
            exists = db.query(
                "SELECT COUNT(*) FROM Comments "
                f"WHERE SuID = {suid} AND CourseID = {course}"
            ).scalar()
            if not exists:
                db.execute(
                    "INSERT INTO Comments VALUES (?, ?, ?)",
                    (suid, course, rating),
                )
        elif op == "update":
            db.execute(
                f"UPDATE Comments SET Rating = {rating} "
                f"WHERE SuID = {suid} AND CourseID = {course}"
            )
        else:
            db.execute(
                f"DELETE FROM Comments WHERE SuID = {suid} "
                f"AND CourseID = {course}"
            )


# -- assertions ---------------------------------------------------------------

def assert_bit_identical(minidb_result, sqlite_result, context=""):
    assert minidb_result.columns == sqlite_result.columns, context
    assert len(minidb_result) == len(sqlite_result), (
        f"{context}: minidb={len(minidb_result)} rows, "
        f"sqlite3={len(sqlite_result)} rows"
    )
    for index, (left, right) in enumerate(
        zip(minidb_result.rows, sqlite_result.rows)
    ):
        for column in minidb_result.columns:
            a, b = left[column], right[column]
            assert a == b and type(a) is type(b), (
                f"{context} row {index} column {column}: "
                f"{a!r} ({type(a).__name__}) != {b!r} ({type(b).__name__})"
            )


# -- properties ---------------------------------------------------------------

class TestBackendEquivalence:
    @given(universe=universes(), case=workflow_cases())
    @settings(deadline=None)
    def test_minidb_and_sqlite3_bit_identical(self, universe, case):
        db = build_database(*universe)
        with Sqlite3Backend(db) as mirror:
            assert_bit_identical(
                case.run_sql(db),
                mirror.run(case),
                context=case.name,
            )

    @given(
        universe=universes(),
        case=workflow_cases(),
        churn=churn_ops,
    )
    @settings(deadline=None)
    def test_identical_after_dml_churn(self, universe, case, churn):
        db = build_database(*universe)
        with Sqlite3Backend(db) as mirror:
            # Cold run first so the mirror exists, then churn: a stale
            # (non-version-keyed) sync would keep the pre-churn rows.
            mirror.run(case)
            apply_churn(db, churn)
            assert_bit_identical(
                case.run_sql(db),
                mirror.run(case),
                context=f"{case.name} post-churn",
            )

    @given(universe=universes(), case=workflow_cases())
    @settings(deadline=None)
    def test_direct_path_agrees_within_tolerance(self, universe, case):
        # The direct executor defines reference semantics; the sqlite3
        # path must agree with it the same way the minidb SQL path does
        # (exact ranks, float scores to within 1e-9).
        db = build_database(*universe)
        direct = case.run(db)
        with Sqlite3Backend(db) as mirror:
            via_sqlite = mirror.run(case)
        assert direct.columns == via_sqlite.columns
        assert len(direct) == len(via_sqlite)
        for left, right in zip(direct.rows, via_sqlite.rows):
            for column in direct.columns:
                a, b = left[column], right[column]
                if isinstance(a, float) and isinstance(b, float):
                    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                else:
                    assert a == b

    @given(universe=universes(), case=workflow_cases())
    @settings(deadline=None)
    def test_recommend_stats_where_defined(self, universe, case):
        # RecommendStats are defined on the direct path only; both SQL
        # paths must leave them empty, and the direct path's scored
        # count must bound the rows either backend returns (TopK can
        # only shrink the scored set).
        db = build_database(*universe)
        direct = case.run(db)
        via_minidb = case.run_sql(db)
        with Sqlite3Backend(db) as mirror:
            via_sqlite = mirror.run(case)
        assert via_minidb.stats == []
        assert via_sqlite.stats == []
        assert direct.stats, "direct path must record RecommendStats"
        stats = direct.stats[-1]
        assert stats.candidates >= stats.scored >= 0
        assert len(via_sqlite.rows) <= max(stats.targets, stats.scored)
        assert len(via_sqlite.rows) == len(via_minidb.rows)
