"""Golden tests for per-dialect SQL rendering.

The FlexRecs compiler lowers one workflow tree to engine-appropriate SQL
through a :class:`~repro.backends.dialects.SqlDialect`.  These pins hold
the rendered text *exactly* for compact workflows (one per comparator
kind) and hold the dialect-difference invariants for the larger ones, so
any renderer drift — intentional or not — shows up as a readable diff.
"""

import datetime

import pytest

from repro.backends.dialects import (
    MINIDB_DIALECT,
    SQLITE_DIALECT,
    get_dialect,
)
from repro.core import (
    InverseEuclidean,
    NumericCloseness,
    PearsonCorrelation,
    SetOverlap,
    TextJaccard,
    VectorLookup,
    Workflow,
)
from repro.core.operators import Recommend, Select, Source, TopK, extend
from repro.errors import BackendCapabilityError
from repro.minidb import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE Students (SuID INTEGER PRIMARY KEY, Name TEXT,
          GPA FLOAT);
        CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, Title TEXT);
        CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER,
          Rating FLOAT, PRIMARY KEY (SuID, CourseID));
        CREATE TABLE Enrollments (SuID INTEGER, CourseID INTEGER,
          PRIMARY KEY (SuID, CourseID));
        """
    )
    return database


def students_with_ratings():
    return extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    )


def scalar_workflow():
    return Workflow(
        Recommend(
            target=Source("Students"),
            reference=Select(Source("Students"), "SuID = 444"),
            comparator=NumericCloseness("GPA", "GPA", scale=2),
            target_key="SuID",
            exclude_self=("SuID", "SuID"),
        )
    )


def lookup_workflow():
    return Workflow(
        Recommend(
            target=Source("Courses"),
            reference=Select(students_with_ratings(), "SuID = 444"),
            comparator=VectorLookup("CourseID", "ratings"),
            target_key="CourseID",
            aggregate="avg",
        )
    )


def vector_workflow(comparator_cls):
    swr = students_with_ratings()
    return Workflow(
        TopK(
            Recommend(
                target=swr,
                reference=Select(swr, "SuID = 444"),
                comparator=comparator_cls("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            ),
            3,
            "score",
        )
    )


def set_workflow():
    swt = extend(
        Source("Students"), "taken", "Enrollments", "SuID", "SuID",
        "CourseID",
    )
    return Workflow(
        Recommend(
            target=swt,
            reference=Select(swt, "SuID = 444"),
            comparator=SetOverlap("taken", "taken"),
            target_key="SuID",
            exclude_self=("SuID", "SuID"),
        )
    )


def udf_workflow():
    return Workflow(
        Recommend(
            target=Source("Students"),
            reference=Select(Source("Students"), "SuID = 444"),
            comparator=TextJaccard("Name", "Name"),
            target_key="SuID",
        )
    )


SCALAR_MINIDB = (
    "SELECT t1.SuID, t1.Name, t1.GPA, "
    "MAX(1.0 / (1.0 + ABS(t1.GPA - r2.GPA) / 2.0)) AS score "
    "FROM (SELECT SuID, Name, GPA FROM Students) AS t1 "
    "JOIN (SELECT SuID, Name, GPA FROM "
    "(SELECT SuID, Name, GPA FROM Students) AS sel3 "
    "WHERE SuID = 444) AS r2 "
    "ON (t1.SuID <> r2.SuID OR t1.SuID IS NULL OR r2.SuID IS NULL) "
    "GROUP BY t1.SuID "
    "HAVING MAX(1.0 / (1.0 + ABS(t1.GPA - r2.GPA) / 2.0)) IS NOT NULL "
    "ORDER BY score DESC, t1.SuID ASC"
)

LOOKUP_MINIDB = (
    "SELECT t2.CourseID, t2.Title, AVG(CAST_FLOAT(s3.Rating)) AS score "
    "FROM (SELECT CourseID, Title FROM Courses) AS t2 "
    "JOIN Comments AS s3 "
    "ON s3.CourseID = t2.CourseID AND s3.Rating IS NOT NULL "
    "JOIN (SELECT SuID, Name, GPA FROM "
    "(SELECT SuID, Name, GPA FROM Students) AS sel1 "
    "WHERE SuID = 444) AS r4 ON s3.SuID = r4.SuID "
    "GROUP BY t2.CourseID "
    "HAVING AVG(CAST_FLOAT(s3.Rating)) IS NOT NULL "
    "ORDER BY score DESC, t2.CourseID ASC"
)

LOOKUP_SQLITE = LOOKUP_MINIDB.replace(
    "CAST_FLOAT(s3.Rating)", "CAST(s3.Rating AS REAL)"
)


class TestGoldenSql:
    def test_scalar_minidb_exact(self, db):
        assert scalar_workflow().to_sql(db, dialect="minidb") == SCALAR_MINIDB

    def test_scalar_sqlite_identical_to_minidb(self, db):
        # The scalar closeness expression is dialect-neutral (pure float
        # arithmetic, scale coerced to float), so both engines get the
        # same text.
        workflow = scalar_workflow()
        assert (
            workflow.to_sql(db, dialect="sqlite")
            == workflow.to_sql(db, dialect="minidb")
        )

    def test_lookup_minidb_exact(self, db):
        assert lookup_workflow().to_sql(db, dialect="minidb") == LOOKUP_MINIDB

    def test_lookup_sqlite_exact(self, db):
        assert lookup_workflow().to_sql(db, dialect="sqlite") == LOOKUP_SQLITE

    def test_udf_renders_same_call_on_both(self, db):
        workflow = udf_workflow()
        for dialect in ("minidb", "sqlite"):
            sql = workflow.to_sql(db, dialect=dialect)
            assert "FRX_TEXT_JACCARD(t1.Name, r2.Name)" in sql


class TestDialectDifferences:
    """The engine-specific spellings, per comparator kind."""

    def test_vector_pearson(self, db):
        workflow = vector_workflow(PearsonCorrelation)
        minidb_sql = workflow.to_sql(db, dialect="minidb")
        sqlite_sql = workflow.to_sql(db, dialect="sqlite")
        assert "CAST_FLOAT(COUNT(*))" in minidb_sql
        assert "GREATEST(" in minidb_sql
        assert "CAST(COUNT(*) AS REAL)" in sqlite_sql
        assert "MAX((CAST(COUNT(*) AS REAL)" in sqlite_sql
        # The variance guard is the only GREATEST; MAX replaces it 1:1.
        assert minidb_sql.count("GREATEST(") == sqlite_sql.count(
            "MAX((CAST(COUNT(*) AS REAL)"
        )

    def test_vector_euclidean_dialect_neutral(self, db):
        workflow = vector_workflow(InverseEuclidean)
        assert (
            workflow.to_sql(db, dialect="sqlite")
            == workflow.to_sql(db, dialect="minidb")
        )

    def test_set_overlap(self, db):
        workflow = set_workflow()
        minidb_sql = workflow.to_sql(db, dialect="minidb")
        sqlite_sql = workflow.to_sql(db, dialect="sqlite")
        assert "CAST_FLOAT(inter5.__c) / LEAST(" in minidb_sql
        assert "CAST(inter5.__c AS REAL) / MIN(" in sqlite_sql

    @pytest.mark.parametrize(
        "factory",
        [
            scalar_workflow,
            lookup_workflow,
            set_workflow,
            udf_workflow,
            lambda: vector_workflow(PearsonCorrelation),
        ],
        ids=["scalar", "lookup", "set", "udf", "vector"],
    )
    def test_sqlite_text_never_uses_minidb_spellings(self, db, factory):
        sql = factory().to_sql(db, dialect="sqlite")
        assert "CAST_FLOAT" not in sql
        assert "GREATEST(" not in sql
        assert "LEAST(" not in sql

    def test_default_dialect_is_minidb(self, db):
        workflow = lookup_workflow()
        assert workflow.to_sql(db) == workflow.to_sql(db, dialect="minidb")


class TestDialectPrimitives:
    def test_literal_rendering_per_dialect(self):
        day = datetime.date(2008, 1, 5)
        assert MINIDB_DIALECT.literal(day) == "DATE '2008-01-05'"
        assert SQLITE_DIALECT.literal(day) == "'2008-01-05'"
        assert MINIDB_DIALECT.literal(True) == "TRUE"
        assert SQLITE_DIALECT.literal(True) == "1"
        assert SQLITE_DIALECT.literal(False) == "0"
        for dialect in (MINIDB_DIALECT, SQLITE_DIALECT):
            assert dialect.literal(None) == "NULL"
            assert dialect.literal(1.5) == "1.5"
            assert dialect.literal("o'clock") == "'o''clock'"

    def test_bind_per_dialect(self):
        day = datetime.date(2008, 1, 5)
        assert MINIDB_DIALECT.bind(day) == day
        assert SQLITE_DIALECT.bind(day) == "2008-01-05"
        assert MINIDB_DIALECT.bind(False) is False
        assert SQLITE_DIALECT.bind(False) == 0
        assert SQLITE_DIALECT.bind(True) == 1
        assert SQLITE_DIALECT.bind("text") == "text"

    def test_true_div(self):
        assert MINIDB_DIALECT.true_div("a", "b") == "(a / b)"
        assert SQLITE_DIALECT.true_div("a", "b") == "(a * 1.0 / b)"

    def test_func_spelling_and_missing(self):
        assert MINIDB_DIALECT.func("least", "x", "y") == "LEAST(x, y)"
        assert SQLITE_DIALECT.func("least", "x", "y") == "MIN(x, y)"
        # a name missing from the spelling map renders canonically
        assert SQLITE_DIALECT.func("sqrt", "x") == "SQRT(x)"

    def test_get_dialect_resolution(self):
        assert get_dialect("minidb") is MINIDB_DIALECT
        assert get_dialect("sqlite") is SQLITE_DIALECT
        assert get_dialect(SQLITE_DIALECT) is SQLITE_DIALECT
        with pytest.raises(BackendCapabilityError):
            get_dialect("oracle12c")
