"""Plan cache: hits, invalidation, prepared statements, and EXPLAIN."""

import pytest

from repro.errors import ExecutionError, PlannerError
from repro.minidb.catalog import Database
from repro.minidb.plancache import LRUCache
from repro.minidb.planner import plan_select
from repro.minidb.sql.parser import parse_statement


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


class TestStalePlanIsAMiss:
    """A hit whose stamp moved is a miss, so the cache's own counters
    agree with the executor's ``minidb.plan_cache.hit``/``.miss``."""

    def test_create_index_is_one_miss_and_one_stale(self, db):
        db.query(SQL)
        db.query(SQL)
        cache = db._plan_cache
        hits, misses, stale = cache.hits, cache.misses, cache.stale
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        db.query(SQL)
        assert (cache.hits, cache.misses, cache.stale) == (
            hits, misses + 1, stale + 1,
        )
        db.query(SQL)
        assert (cache.hits, cache.misses) == (hits + 1, misses + 1)

    def test_observability_agrees_with_the_executor_counters(self):
        from repro.courserank import CourseRank
        from repro.datagen import generate_university
        from repro.obs import OBS

        app = CourseRank(generate_university(scale="tiny", seed=5))
        course_ids = app.db.query(
            "SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 4"
        ).column("CourseID")
        before = app.observability()["caches"]["plan_cache"]
        OBS.reset().enable()
        try:
            app.course_page(course_ids[0])
            app.db.execute("CREATE INDEX idx_comments_rating ON Comments (Rating)")
            for course_id in course_ids:
                app.course_page(course_id)
            counted = (
                OBS.metrics.counter("minidb.plan_cache.hit"),
                OBS.metrics.counter("minidb.plan_cache.miss"),
            )
        finally:
            OBS.disable()
            OBS.reset()
        after = app.observability()["caches"]["plan_cache"]
        assert counted[1] > 0
        assert (
            after["hits"] - before["hits"], after["misses"] - before["misses"]
        ) == counted


class TestDmlKeepsPlans:
    """A plan reads rows and resolves its index keys per execution, so DML
    moves no validation counter: a cached shape stays a hit through
    INSERT/UPDATE/DELETE on indexed tables and answers like a freshly
    planned statement, while index attach/detach still re-plans."""

    SHAPES = (
        ("SELECT Title FROM Courses WHERE DepID = ? ORDER BY Title", (10,)),
        ("SELECT CourseID, Title FROM Courses WHERE Units >= ?", (3.0,)),
        (
            "SELECT * FROM (SELECT CourseID, Title FROM Courses) AS c "
            "WHERE CourseID = ?",
            (2,),
        ),
        ("SELECT Title FROM Courses WHERE CourseID = ?", (4,)),
        ("SELECT DepID, COUNT(*) AS n FROM Courses GROUP BY DepID", ()),
    )
    WRITES = (
        "INSERT INTO Courses VALUES (5, 'Algebra', 10, 5.0)",
        "UPDATE Courses SET DepID = 20, Units = 3.5 WHERE CourseID = 1",
        "UPDATE Courses SET Title = 'Drawing' WHERE CourseID = 3",
        "DELETE FROM Courses WHERE CourseID = 2",
        "INSERT INTO Courses VALUES (2, 'Networks II', 10, 3.0)",
        "DELETE FROM Courses WHERE Units < 3.0",
    )

    @staticmethod
    def _fresh(db, sql, params):
        plan = plan_select(db, parse_statement(sql))
        plan.bind_parameters(params)
        return plan.run()[1]

    @staticmethod
    def _cached(db, sql, params):
        """Whether the cache holds a valid plan for ``sql`` (EXPLAIN says
        ``[cached]`` exactly then)."""
        return "[cached]" in db.query("EXPLAIN " + sql, params).rows[0][0]

    def test_dml_keeps_every_shape_a_hit_with_fresh_answers(self, db):
        db.execute("CREATE INDEX idx_dep ON Courses (DepID)")
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        for sql, params in self.SHAPES:
            db.query(sql, params)
        for write in self.WRITES:
            db.execute(write)
            for sql, params in self.SHAPES:
                assert self._cached(db, sql, params), (write, sql)
                rows = db.query(sql, params).rows
                assert rows == self._fresh(db, sql, params), (write, sql)

    def test_index_attach_and_detach_still_replan(self, db):
        sql, params = self.SHAPES[0]
        db.query(sql, params)
        for ddl in (
            "CREATE INDEX idx_dep ON Courses (DepID)",
            "DROP INDEX idx_dep",
        ):
            db.execute(ddl)
            assert not self._cached(db, sql, params), ddl
            assert db.query(sql, params).rows == self._fresh(db, sql, params)


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


class TestBoundValueAccess:
    """A ``?`` reaches the primary key and the indexes a literal does,
    and where a bound value can differ from a literal at plan time the
    outcome is pinned here."""

    @pytest.fixture
    def indexed(self, db):
        db.execute("CREATE INDEX idx_dep ON Courses (DepID)")
        db.execute("CREATE INDEX idx_units ON Courses (Units) USING SORTED")
        return db

    PK = "SELECT Title FROM Courses WHERE CourseID = ?"
    HASH = "SELECT Title FROM Courses WHERE DepID = ? ORDER BY Title"
    RANGE = (
        "SELECT Title FROM Courses WHERE Units > ? AND Units <= ? "
        "ORDER BY Title"
    )

    def test_explain_shows_the_access_by_parameter(self, indexed):
        assert "using primary key = (?1)" in indexed.prepare(self.PK).explain()
        assert "using idx_dep = (?1)" in indexed.prepare(self.HASH).explain()
        assert (
            "using idx_units range > (?1) and <= (?2)"
            in indexed.prepare(self.RANGE).explain()
        )
        for sql in (self.PK, self.HASH, self.RANGE):
            assert "SeqScan" not in indexed.prepare(sql).explain()

    def test_null_bound_key_matches_nothing(self, indexed):
        # The access path consumed the conjunct, and col = NULL (or <, >)
        # is never TRUE: no rows, not every row and not an error.
        assert indexed.query(self.PK, (None,)).rows == []
        assert indexed.query(self.HASH, (None,)).rows == []
        assert indexed.query(self.RANGE, (None, 4.0)).rows == []
        assert indexed.query(self.RANGE, (2.5, None)).rows == []
        assert indexed.query(self.RANGE, (2.5, 4.0)).rows == [
            ("Databases",), ("Networks",), ("Sculpture",),
        ]

    @pytest.mark.parametrize("value, literal", [
        (1, "1"), (1.0, "1.0"), (True, "TRUE"), (2.5, "2.5"), ("1", "'1'"),
    ])
    def test_bound_value_coercion_equals_the_literal_path(
        self, indexed, value, literal
    ):
        for column in ("CourseID", "DepID"):
            bound = f"SELECT Title FROM Courses WHERE {column} = ?"
            assert (
                indexed.query(bound, (value,)).rows
                == indexed.query(bound.replace("?", literal)).rows
            )
        assert indexed.query(self.PK, (1.0,)).rows == [("Databases",)]
        assert indexed.query(self.PK, (True,)).rows == [("Databases",)]

    def test_two_bounds_on_one_side_pick_the_tighter_per_execution(
        self, indexed
    ):
        sql = (
            "SELECT Title FROM Courses WHERE Units > ? AND Units >= ? "
            "ORDER BY Title"
        )
        statement = indexed.prepare(sql)
        assert "SeqScan" not in statement.explain()
        for low, floor in ((2.0, 4.0), (4.0, 2.0), (3.0, 3.0), (2.0, 2.0)):
            literal = sql.replace("?", str(low), 1).replace("?", str(floor), 1)
            assert (
                statement.execute(low, floor).rows
                == indexed.query(literal).rows
            ), (low, floor)
        assert statement.execute(3.0, 3.0).rows == [
            ("Databases",), ("Sculpture",),
        ]

    def test_one_cached_plan_two_bindings_no_leak(self, indexed):
        indexed.clear_plan_cache()
        misses = indexed._plan_cache.misses
        assert indexed.query(self.HASH, (10,)).rows == [
            ("Databases",), ("Networks",),
        ]
        assert indexed.query(self.HASH, (20,)).rows == [
            ("Painting",), ("Sculpture",),
        ]
        assert indexed.query(self.HASH, (10,)).rows == [
            ("Databases",), ("Networks",),
        ]
        assert indexed._plan_cache.misses == misses + 1
        with pytest.raises(ExecutionError, match="not bound"):
            indexed.query(self.HASH)  # nothing left over from the last run

    def test_threads_sharing_one_shape_never_see_each_others_rows(
        self, indexed
    ):
        """One plan per statement shape means concurrent executions with
        different bindings share one ``QueryPlan``; ``exec_lock`` (taken
        inside the database's read lock) keeps bind+run atomic."""
        import sys
        import threading

        expected = {
            10: [("Databases",), ("Networks",)],
            20: [("Painting",), ("Sculpture",)],
            30: [],
        }
        for dep_id, rows in expected.items():
            assert indexed.query(self.HASH, (dep_id,)).rows == rows
        wrong = []
        barrier = threading.Barrier(6)

        def worker(dep_id):
            barrier.wait(timeout=10)
            for _ in range(300):
                rows = indexed.query(self.HASH, (dep_id,)).rows
                if rows != expected[dep_id]:
                    wrong.append((dep_id, rows))

        threads = [
            threading.Thread(target=worker, args=(dep_id,))
            for dep_id in (10, 20, 30, 10, 20, 30)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:3]


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
