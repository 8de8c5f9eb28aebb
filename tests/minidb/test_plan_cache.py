"""Plan cache: hits, invalidation, prepared statements, and EXPLAIN."""

import pytest

from repro.errors import ExecutionError, PlannerError
from repro.minidb.catalog import Database
from repro.minidb.plancache import LRUCache


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE Courses ("
        "CourseID INTEGER PRIMARY KEY, Title TEXT, DepID INTEGER, "
        "Units FLOAT)"
    )
    database.execute(
        "INSERT INTO Courses VALUES "
        "(1, 'Databases', 10, 4.0), "
        "(2, 'Networks', 10, 3.0), "
        "(3, 'Painting', 20, 2.0), "
        "(4, 'Sculpture', 20, 4.0)"
    )
    return database


SQL = "SELECT Title FROM Courses WHERE Units > 2.5 ORDER BY Title"


def run_twice(db, sql=SQL):
    first = db.query(sql).rows
    before = db._plan_cache.hits
    second = db.query(sql).rows
    assert first == second
    return db._plan_cache.hits - before


class TestPlanCacheHits:
    def test_repeat_query_hits_cache(self, db):
        assert run_twice(db) == 1

    def test_formatting_variants_share_one_plan(self, db):
        db.query(SQL)
        hits = db._plan_cache.hits
        db.query(
            "select   Title from Courses where Units > 2.5 order by Title"
        )
        assert db._plan_cache.hits == hits + 1

    def test_cached_plan_results_identical(self, db):
        cold = db.query(SQL).rows
        warm = db.query(SQL).rows
        assert cold == warm == [("Databases",), ("Networks",), ("Sculpture",)]

    def test_clear_plan_cache(self, db):
        db.query(SQL)
        db.clear_plan_cache()
        hits = db._plan_cache.hits
        db.query(SQL)
        assert db._plan_cache.hits == hits  # miss after clear


class TestInvalidation:
    def test_create_index_invalidates(self, db):
        db.query(SQL)
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        plan = db.query("EXPLAIN " + SQL).column("QUERY PLAN")
        assert any("IndexScan" in line for line in plan)
        assert "[cached]" not in plan[0]

    def test_drop_index_invalidates(self, db):
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        db.query(SQL)
        db.execute("DROP INDEX idx_units")
        plan = db.query("EXPLAIN " + SQL).column("QUERY PLAN")
        assert all("IndexScan" not in line for line in plan)
        rows = db.query(SQL).rows
        assert rows == [("Databases",), ("Networks",), ("Sculpture",)]

    def test_drop_and_recreate_table_invalidates(self, db):
        db.query(SQL)
        db.execute("DROP TABLE Courses")
        db.execute(
            "CREATE TABLE Courses ("
            "CourseID INTEGER PRIMARY KEY, Title TEXT, DepID INTEGER, "
            "Units FLOAT)"
        )
        db.execute("INSERT INTO Courses VALUES (9, 'Logic', 10, 5.0)")
        # The cached plan points at the dropped Table object; a stale hit
        # would replay the old rows.
        assert db.query(SQL).rows == [("Logic",)]

    def test_update_on_indexed_column_invalidates(self, db):
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        statement = db.prepare(SQL)
        assert statement.execute().rows == [
            ("Databases",),
            ("Networks",),
            ("Sculpture",),
        ]
        db.execute("UPDATE Courses SET Units = 4.5 WHERE CourseID = 3")
        assert statement.execute().rows == [
            ("Databases",),
            ("Networks",),
            ("Painting",),
            ("Sculpture",),
        ]

    def test_unindexed_dml_served_correctly(self, db):
        # No secondary indexes: plans read live table state, so DML needs
        # no invalidation — but results must still reflect the new rows.
        db.query(SQL)
        db.execute("INSERT INTO Courses VALUES (5, 'Algebra', 30, 4.0)")
        assert ("Algebra",) in db.query(SQL).rows

    def test_subquery_snapshot_plan_invalidated_by_data(self, db):
        sql = (
            "SELECT Title FROM Courses WHERE DepID IN "
            "(SELECT DepID FROM Courses WHERE Units > 3.5) ORDER BY Title"
        )
        first = db.query(sql).rows
        assert first == [
            ("Databases",),
            ("Networks",),
            ("Painting",),
            ("Sculpture",),
        ]
        # Planning baked the IN-subquery's data into the plan; DML on the
        # table must force a re-plan even without any index.
        db.execute("UPDATE Courses SET Units = 1.0 WHERE CourseID = 4")
        assert db.query(sql).rows == [("Databases",), ("Networks",)]

    def test_rollback_invalidates(self, db):
        db.query(SQL)
        db.begin()
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        db.rollback()
        rows = db.query(SQL).rows
        assert rows == [("Databases",), ("Networks",), ("Sculpture",)]


class TestPreparedStatements:
    def test_parameter_binding(self, db):
        statement = db.prepare("SELECT Title FROM Courses WHERE CourseID = ?")
        assert statement.execute(1).scalar() == "Databases"
        assert statement.execute(3).scalar() == "Painting"

    def test_bindings_do_not_leak_between_executions(self, db):
        statement = db.prepare(
            "SELECT Title FROM Courses WHERE DepID = ? AND Units > ? "
            "ORDER BY Title"
        )
        assert statement.execute(10, 2.5).rows == [
            ("Databases",),
            ("Networks",),
        ]
        assert statement.execute(20, 3.5).rows == [("Sculpture",)]
        # Re-run the first binding: must match the original, not the last.
        assert statement.execute(10, 2.5).rows == [
            ("Databases",),
            ("Networks",),
        ]

    def test_wrong_parameter_count_raises(self, db):
        statement = db.prepare("SELECT Title FROM Courses WHERE CourseID = ?")
        with pytest.raises(ExecutionError, match="expects 1 parameter"):
            statement.execute()
        with pytest.raises(ExecutionError, match="expects 1 parameter"):
            statement.execute(1, 2)

    def test_unbound_parameter_raises(self, db):
        with pytest.raises(ExecutionError, match="not bound"):
            db.query("SELECT Title FROM Courses WHERE CourseID = ?")

    def test_dml_parameters(self, db):
        update = db.prepare("UPDATE Courses SET Title = ? WHERE CourseID = ?")
        assert update.execute("Databases II", 1) == 1
        assert db.query(
            "SELECT Title FROM Courses WHERE CourseID = 1"
        ).scalar() == "Databases II"

    def test_insert_parameters(self, db):
        insert = db.prepare("INSERT INTO Courses VALUES (?, ?, ?, ?)")
        assert insert.execute(7, "Ethics", 20, 3.0) == 1
        assert insert.execute(8, "Drawing", 20, 2.0) == 1
        assert db.query(
            "SELECT COUNT(*) FROM Courses WHERE DepID = 20"
        ).scalar() == 4

    def test_prepare_survives_invalidation(self, db):
        statement = db.prepare(SQL)
        statement.execute()
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        assert statement.execute().rows == [
            ("Databases",),
            ("Networks",),
            ("Sculpture",),
        ]
        assert "IndexScan" in statement.explain()

    def test_prepare_fails_fast_on_bad_sql(self, db):
        with pytest.raises(Exception):
            db.prepare("SELECT Nope FROM Courses")

    def test_query_requires_select(self, db):
        statement = db.prepare("DELETE FROM Courses WHERE CourseID = ?")
        with pytest.raises(ExecutionError, match="requires a SELECT"):
            statement.query(1)


class TestUnionParameterNumbering:
    """Identical SELECT text at different ``?`` bases must not share plans.

    Parameters are numbered left-to-right across the whole statement, so
    a UNION arm's placeholders start where the previous arm's ended; a
    plan cached for the standalone text would bind the wrong slots.
    """

    UNION_SQL = (
        "SELECT Title FROM Courses WHERE DepID = ? "
        "UNION SELECT Title FROM Courses WHERE CourseID = ?"
    )
    ARM_SQL = "SELECT Title FROM Courses WHERE CourseID = ?"

    def test_standalone_then_union(self, db):
        standalone = db.prepare(self.ARM_SQL)
        assert standalone.execute(3).rows == [("Painting",)]
        # The union's second arm has the same text but binds params[1].
        rows = db.prepare(self.UNION_SQL).execute(10, 3).rows
        assert sorted(rows) == [("Databases",), ("Networks",), ("Painting",)]

    def test_union_then_standalone(self, db):
        rows = db.prepare(self.UNION_SQL).execute(10, 3).rows
        assert sorted(rows) == [("Databases",), ("Networks",), ("Painting",)]
        # The standalone statement binds params[0], not the arm's slot.
        standalone = db.prepare(self.ARM_SQL)
        assert standalone.execute(1).rows == [("Databases",)]

    def test_union_rebinding_between_executions(self, db):
        union = db.prepare(self.UNION_SQL)
        assert sorted(union.execute(10, 3).rows) == [
            ("Databases",),
            ("Networks",),
            ("Painting",),
        ]
        assert sorted(union.execute(20, 2).rows) == [
            ("Networks",),
            ("Painting",),
            ("Sculpture",),
        ]


class TestParameterizedSubqueries:
    def test_in_subquery_parameter_rejected(self, db):
        with pytest.raises(PlannerError, match="not supported inside IN"):
            db.query(
                "SELECT Title FROM Courses WHERE DepID IN "
                "(SELECT DepID FROM Courses WHERE Units > ?)"
            )

    def test_exists_subquery_parameter_rejected(self, db):
        with pytest.raises(PlannerError, match="not supported inside EXISTS"):
            db.query(
                "SELECT Title FROM Courses WHERE EXISTS "
                "(SELECT CourseID FROM Courses WHERE Units > ?)"
            )

    def test_prepare_fails_fast_on_subquery_parameter(self, db):
        with pytest.raises(PlannerError, match="not supported inside IN"):
            db.prepare(
                "SELECT Title FROM Courses WHERE DepID IN "
                "(SELECT DepID FROM Courses WHERE Units > ?)"
            )

    def test_parameterless_subqueries_still_work(self, db):
        rows = db.query(
            "SELECT Title FROM Courses WHERE DepID IN "
            "(SELECT DepID FROM Courses WHERE Units > 3.5) ORDER BY Title"
        ).rows
        assert rows == [
            ("Databases",),
            ("Networks",),
            ("Painting",),
            ("Sculpture",),
        ]


class TestExplainStatement:
    def test_explain_reports_cold_then_cached(self, db):
        db.clear_plan_cache()
        cold = db.query("EXPLAIN " + SQL).column("QUERY PLAN")
        assert "[cached]" not in cold[0]
        warm = db.query("EXPLAIN " + SQL).column("QUERY PLAN")
        assert "[cached]" in warm[0]

    def test_explain_shares_cache_with_execution(self, db):
        db.query(SQL)
        plan = db.query("EXPLAIN " + SQL).column("QUERY PLAN")
        assert "[cached]" in plan[0]

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(Exception, match="expected SELECT"):
            db.execute("EXPLAIN DELETE FROM Courses")
        with pytest.raises(Exception, match="EXPLAIN supports only SELECT"):
            db.execute(
                "EXPLAIN SELECT Title FROM Courses "
                "UNION SELECT Title FROM Courses"
            )

    def test_python_explain_api_unchanged(self, db):
        text = db.explain(SQL)
        assert "[cached]" not in text
        assert "[vectorized]" not in text

    def test_vectorize_flip_on_a_warm_plan_cache(self, db):
        # VECTORIZE is read at run time: one cached plan serves both
        # paths, so a flip needs no clear_plan_cache() and the marker
        # reports the path the next run takes.
        from repro.minidb.planner import flag_overrides

        expected = [("Databases",), ("Networks",), ("Sculpture",)]
        with flag_overrides(vectorize=True):
            assert db.query(SQL).rows == expected  # plans and caches
        hits = db._plan_cache.hits
        for vectorize in (False, True, False):
            with flag_overrides(vectorize=vectorize):
                assert db.query(SQL).rows == expected
                head = db.query("EXPLAIN " + SQL).column("QUERY PLAN")[0]
                report = db.analyze(SQL)
            assert "[cached]" in head
            assert ("[vectorized]" in head) is vectorize
            assert report.vectorized is vectorize
            assert ("[vectorized]" in report.lines[0]) is vectorize
            assert report.result.rows == expected
        assert db._plan_cache.hits == hits + 9
        assert db._plan_cache.misses == 1


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_len_contains_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("x", 1)
        assert len(cache) == 1
        assert "x" in cache
        cache.clear()
        assert len(cache) == 0
        assert "x" not in cache
