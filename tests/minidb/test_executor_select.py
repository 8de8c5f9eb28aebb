"""Integration tests: SELECT execution across the planner and executor."""

import pytest

from repro.errors import (
    AmbiguousColumnError,
    ExecutionError,
    MiniDBError,
    PlannerError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.minidb import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE courses (id INTEGER PRIMARY KEY, dep TEXT, "
        "title TEXT, units INTEGER)"
    )
    database.execute(
        "CREATE TABLE ratings (sid INTEGER, cid INTEGER, score FLOAT, "
        "PRIMARY KEY (sid, cid), "
        "FOREIGN KEY (cid) REFERENCES courses (id))"
    )
    database.execute(
        "INSERT INTO courses VALUES "
        "(1, 'CS', 'Intro to Programming', 5), "
        "(2, 'CS', 'Advanced Java', 3), "
        "(3, 'HIST', 'American History', 4), "
        "(4, 'HIST', 'Latin American Studies', 4), "
        "(5, 'MATH', 'Calculus', 5)"
    )
    database.execute(
        "INSERT INTO ratings VALUES "
        "(10, 1, 4.5), (10, 2, 3.0), (11, 1, 5.0), (11, 3, 2.0), (12, 4, 4.0)"
    )
    return database


class TestBasicSelect:
    def test_select_star(self, db):
        result = db.query("SELECT * FROM courses")
        assert result.columns == ["id", "dep", "title", "units"]
        assert len(result) == 5

    def test_projection_and_alias(self, db):
        result = db.query("SELECT title AS name FROM courses WHERE id = 1")
        assert result.columns == ["name"]
        assert result.scalar() == "Intro to Programming"

    def test_expression_in_select(self, db):
        result = db.query("SELECT units * 2 AS double_units FROM courses WHERE id = 5")
        assert result.scalar() == 10

    def test_where_filters(self, db):
        assert len(db.query("SELECT * FROM courses WHERE dep = 'CS'")) == 2

    def test_where_unknown_is_filtered(self, db):
        db.execute("INSERT INTO courses VALUES (6, NULL, 'Mystery', 1)")
        result = db.query("SELECT id FROM courses WHERE dep = 'CS'")
        assert {row[0] for row in result} == {1, 2}

    def test_no_from(self, db):
        assert db.query("SELECT 1 + 2 AS three").scalar() == 3

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.query("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(UnknownColumnError):
            db.query("SELECT nope FROM courses")

    def test_select_requires_query_for_query_api(self, db):
        with pytest.raises(MiniDBError):
            db.query("INSERT INTO courses VALUES (9, 'X', 'Y', 1)")


class TestJoins:
    def test_inner_join(self, db):
        result = db.query(
            "SELECT c.title, r.score FROM courses c "
            "JOIN ratings r ON c.id = r.cid ORDER BY c.id, r.sid"
        )
        assert len(result) == 5
        assert result.rows[0] == ("Intro to Programming", 4.5)

    def test_join_is_hash_join(self, db):
        plan = db.explain(
            "SELECT c.title FROM courses c JOIN ratings r ON c.id = r.cid"
        )
        assert "HashJoin" in plan

    def test_left_join_pads_nulls(self, db):
        result = db.query(
            "SELECT c.id, r.score FROM courses c "
            "LEFT JOIN ratings r ON c.id = r.cid WHERE r.score IS NULL"
        )
        assert {row[0] for row in result} == {5}

    def test_cross_join_cardinality(self, db):
        result = db.query("SELECT c.id FROM courses c CROSS JOIN ratings r")
        assert len(result) == 25

    def test_nonequi_join_falls_back_to_nested_loop(self, db):
        plan = db.explain(
            "SELECT c.id FROM courses c JOIN ratings r ON c.units > r.score"
        )
        assert "NestedLoopJoin" in plan

    def test_join_condition_with_residual(self, db):
        result = db.query(
            "SELECT c.id, r.sid FROM courses c "
            "JOIN ratings r ON c.id = r.cid AND r.score >= 4 ORDER BY c.id"
        )
        assert [row for row in result] == [(1, 10), (1, 11), (4, 12)]

    def test_on_conjunct_on_the_right_table_filters_its_scan(self, db):
        sql = (
            "SELECT c.id, r.sid FROM courses c JOIN ratings r "
            "ON c.id = r.cid AND r.score >= 4 AND c.units > r.score"
        )
        plan = db.explain(sql)
        assert "SeqScan(ratings AS r) filter=(r.score >= 4)" in plan
        assert "residual=(c.units > r.score)" in plan
        assert db.query(sql).rows == [(1, 10)]

    @pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
    def test_on_conjunct_pushdown_keeps_rows_and_order(self, db, kind):
        # ``+ 0 * c.units`` makes the same test a mixed conjunct, which
        # stays a residual on the merged rows.
        on = f"FROM courses c {kind} ratings r ON c.id = r.cid AND r.score >= 4"
        pushed = db.query(f"SELECT c.id, r.sid {on}")
        residual = db.query(f"SELECT c.id, r.sid {on} + 0 * c.units")
        assert pushed.rows == residual.rows
        if kind == "LEFT JOIN":
            assert pushed.rows == [
                (1, 10), (1, 11), (2, None), (3, None), (4, 12), (5, None)
            ]

    def test_ambiguous_bare_column_rejected(self, db):
        db.execute("CREATE TABLE other (id INTEGER, note TEXT)")
        db.execute("INSERT INTO other VALUES (1, 'x')")
        with pytest.raises(AmbiguousColumnError):
            db.query("SELECT id FROM courses CROSS JOIN other")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(PlannerError):
            db.query("SELECT * FROM courses c JOIN ratings c ON 1 = 1")

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE students (sid INTEGER PRIMARY KEY, name TEXT)")
        db.execute("INSERT INTO students VALUES (10, 'ann'), (11, 'bob'), (12, 'eve')")
        result = db.query(
            "SELECT s.name, c.title FROM students s "
            "JOIN ratings r ON s.sid = r.sid "
            "JOIN courses c ON r.cid = c.id "
            "WHERE r.score >= 4.5 ORDER BY s.name"
        )
        assert result.rows == [("ann", "Intro to Programming"),
                               ("bob", "Intro to Programming")]


class TestAggregation:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM courses").scalar() == 5

    def test_count_star_empty_table(self, db):
        db.execute("CREATE TABLE empty_t (x INTEGER)")
        assert db.query("SELECT COUNT(*) FROM empty_t").scalar() == 0

    def test_sum_avg_min_max(self, db):
        result = db.query(
            "SELECT SUM(units), AVG(units), MIN(units), MAX(units) FROM courses"
        )
        assert result.rows[0] == (21, 4.2, 3, 5)

    def test_aggregates_ignore_null(self, db):
        db.execute("INSERT INTO courses VALUES (7, 'X', 'NoUnits', NULL)")
        assert db.query("SELECT COUNT(units) FROM courses").scalar() == 5
        assert db.query("SELECT MIN(units) FROM courses").scalar() == 3

    def test_avg_of_empty_is_null(self, db):
        assert (
            db.query("SELECT AVG(score) FROM ratings WHERE score > 100").scalar()
            is None
        )

    def test_group_by(self, db):
        result = db.query(
            "SELECT dep, COUNT(*) AS n FROM courses GROUP BY dep ORDER BY dep"
        )
        assert result.rows == [("CS", 2), ("HIST", 2), ("MATH", 1)]

    def test_group_by_expression(self, db):
        result = db.query(
            "SELECT units > 3 AS heavy, COUNT(*) FROM courses "
            "GROUP BY units > 3 ORDER BY heavy"
        )
        assert result.rows == [(False, 1), (True, 4)]

    def test_having(self, db):
        result = db.query(
            "SELECT dep FROM courses GROUP BY dep HAVING COUNT(*) > 1 ORDER BY dep"
        )
        assert result.column("dep") == ["CS", "HIST"]

    def test_count_distinct(self, db):
        assert (
            db.query("SELECT COUNT(DISTINCT dep) FROM courses").scalar() == 3
        )

    def test_aggregate_arithmetic(self, db):
        value = db.query("SELECT MAX(units) - MIN(units) FROM courses").scalar()
        assert value == 2

    def test_stddev(self, db):
        value = db.query("SELECT STDDEV(units) FROM courses").scalar()
        assert value == pytest.approx(0.7483314, rel=1e-5)

    def test_group_concat(self, db):
        value = db.query(
            "SELECT GROUP_CONCAT(dep) FROM courses WHERE units = 5"
        ).scalar()
        assert value == "CS,MATH"


class TestOrderLimit:
    def test_order_by_column(self, db):
        result = db.query("SELECT title FROM courses ORDER BY title")
        assert result.column("title") == sorted(result.column("title"))

    def test_order_by_desc(self, db):
        result = db.query("SELECT units FROM courses ORDER BY units DESC")
        assert result.column("units") == [5, 5, 4, 4, 3]

    def test_order_by_alias(self, db):
        result = db.query(
            "SELECT units * 2 AS double_units FROM courses ORDER BY double_units"
        )
        assert result.column("double_units") == [6, 8, 8, 10, 10]

    def test_order_by_position(self, db):
        result = db.query("SELECT title, units FROM courses ORDER BY 2 DESC, 1")
        assert result.rows[0][1] == 5

    def test_order_by_position_out_of_range(self, db):
        with pytest.raises(PlannerError):
            db.query("SELECT title FROM courses ORDER BY 9")

    def test_order_by_aggregate(self, db):
        result = db.query(
            "SELECT dep, COUNT(*) FROM courses GROUP BY dep ORDER BY COUNT(*) DESC, dep"
        )
        assert result.rows[0][0] == "CS"

    def test_limit_offset(self, db):
        result = db.query("SELECT id FROM courses ORDER BY id LIMIT 2 OFFSET 1")
        assert result.column("id") == [2, 3]

    def test_multi_key_sort_with_nulls(self, db):
        db.execute("INSERT INTO courses VALUES (8, NULL, 'ZZZ', 1)")
        result = db.query("SELECT dep FROM courses ORDER BY dep")
        assert result.rows[0][0] is None


class TestDistinctUnionSubquery:
    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT dep FROM courses ORDER BY dep")
        assert result.column("dep") == ["CS", "HIST", "MATH"]

    def test_union_dedupes(self, db):
        result = db.query(
            "SELECT dep FROM courses WHERE units = 5 "
            "UNION SELECT dep FROM courses WHERE units = 3"
        )
        assert sorted(result.column("dep")) == ["CS", "MATH"]

    def test_union_all_keeps_duplicates(self, db):
        result = db.query(
            "SELECT dep FROM courses UNION ALL SELECT dep FROM courses"
        )
        assert len(result) == 10

    def test_union_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT id, dep FROM courses UNION SELECT id FROM courses")

    def test_union_order_by_output_column(self, db):
        result = db.query(
            "SELECT dep FROM courses WHERE units = 5 "
            "UNION SELECT dep FROM courses ORDER BY dep DESC LIMIT 2"
        )
        assert result.column("dep") == ["MATH", "HIST"]

    def test_subquery_in_from(self, db):
        result = db.query(
            "SELECT AVG(score) FROM "
            "(SELECT score FROM ratings WHERE score >= 3) good"
        )
        assert result.scalar() == pytest.approx(4.125)

    def test_nested_subqueries(self, db):
        result = db.query(
            "SELECT n FROM (SELECT COUNT(*) AS n FROM "
            "(SELECT * FROM courses WHERE dep = 'CS') cs) counted"
        )
        assert result.scalar() == 2

    def test_where_pushed_into_subquery_output(self, db):
        result = db.query(
            "SELECT title FROM (SELECT title, units FROM courses) t "
            "WHERE units = 3"
        )
        assert result.column("title") == ["Advanced Java"]


class TestIndexUsage:
    def test_pk_point_lookup_in_plan(self, db):
        assert "primary key" in db.explain("SELECT title FROM courses WHERE id = 3")

    def test_hash_index_used(self, db):
        db.execute("CREATE INDEX idx_dep ON courses (dep)")
        plan = db.explain("SELECT title FROM courses WHERE dep = 'CS'")
        assert "IndexScan" in plan and "idx_dep" in plan

    def test_sorted_index_range(self, db):
        db.execute("CREATE INDEX idx_units ON courses (units) USING sorted")
        plan = db.explain("SELECT title FROM courses WHERE units >= 4 AND units < 5")
        assert "range" in plan
        result = db.query(
            "SELECT id FROM courses WHERE units >= 4 AND units < 5 ORDER BY id"
        )
        assert result.column("id") == [3, 4]

    def test_index_and_seqscan_agree(self, db):
        baseline = db.query(
            "SELECT id FROM courses WHERE dep = 'HIST' ORDER BY id"
        ).rows
        db.execute("CREATE INDEX idx_dep ON courses (dep)")
        indexed = db.query(
            "SELECT id FROM courses WHERE dep = 'HIST' ORDER BY id"
        ).rows
        assert baseline == indexed

    def test_predicate_pushdown_in_plan(self, db):
        plan = db.explain(
            "SELECT c.title FROM courses c JOIN ratings r ON c.id = r.cid "
            "WHERE c.dep = 'CS' AND r.score > 4"
        )
        # Both single-table conjuncts appear as scan filters, not a top Filter.
        assert "filter=" in plan
        assert not plan.startswith("Filter")

    def test_select_without_from_plans_one_row(self, db):
        assert db.explain("SELECT 1 + 1 AS two").splitlines() == [
            "Project((1 + 1) AS two)",
            "  SingleRow",
        ]


class TestResultSet:
    def test_to_dicts(self, db):
        dicts = db.query("SELECT id, dep FROM courses WHERE id = 1").to_dicts()
        assert dicts == [{"id": 1, "dep": "CS"}]

    def test_first_empty(self, db):
        assert db.query("SELECT * FROM courses WHERE id = 99").first() is None

    def test_scalar_requires_1x1(self, db):
        with pytest.raises(MiniDBError):
            db.query("SELECT * FROM courses").scalar()

    def test_pretty_renders(self, db):
        text = db.query("SELECT id, title FROM courses ORDER BY id").pretty(max_rows=2)
        assert "Intro to Programming" in text
        assert "more rows" in text

    def test_column_unknown(self, db):
        with pytest.raises(UnknownColumnError):
            db.query("SELECT id FROM courses").column("nope")
