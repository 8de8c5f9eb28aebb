"""EXPLAIN ANALYZE row-accounting and rendering tests.

The accounting invariants, checked on a fixed schema and on
fuzzer-generated queries:

* every node's ``rows_in`` equals the sum of its children's ``rows_out``
  (derived that way, but the recursion over the *rendered* tree re-checks
  the linkage end to end);
* a non-DISTINCT plan's root node emits exactly ``len(result)`` rows;
  a DISTINCT plan's root emits at least that many (dedup consumes more);
* the ``[cached]`` marker renders exactly as plain EXPLAIN renders it;
* the executed result matches a plain ``query()`` of the same SQL.
"""

import pytest

from repro.backends.dialects import MINIDB_DIALECT
from repro.minidb import Database
from repro.testkit import CaseGenerator
from repro.testkit.dialects import render_case


def _check_accounting(node):
    """Recursively assert rows_in == sum(children rows_out)."""
    assert node.rows_in == sum(child.rows_out for child in node.children)
    assert node.time_ms >= 0.0
    for child in node.children:
        _check_accounting(child)


def _assert_report_consistent(report, distinct):
    _check_accounting(report.root)
    if distinct:
        assert report.root.rows_out >= len(report.result)
    else:
        assert report.root.rows_out == len(report.result)


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE courses (id INT PRIMARY KEY, dep INT, units INT)"
    )
    database.execute(
        "CREATE TABLE enroll (sid INT, cid INT, grade FLOAT, "
        "PRIMARY KEY (sid, cid))"
    )
    for i in range(40):
        database.execute(
            "INSERT INTO courses VALUES (?, ?, ?)", [i, i % 5, 1 + i % 4]
        )
    for sid in range(25):
        for cid in range(0, 40, 5 + sid % 3):
            database.execute(
                "INSERT INTO enroll VALUES (?, ?, ?)",
                [sid, cid, float(sid % 4) + 1.0],
            )
    return database


FIXED_QUERIES = [
    ("SELECT id FROM courses WHERE dep = 2 ORDER BY id", False),
    ("SELECT dep, COUNT(*) AS n FROM courses GROUP BY dep", False),
    (
        "SELECT c.id, COUNT(*) AS n FROM courses c "
        "JOIN enroll e ON c.id = e.cid "
        "GROUP BY c.id HAVING COUNT(*) > 2 ORDER BY n DESC, c.id LIMIT 5",
        False,
    ),
    ("SELECT DISTINCT dep FROM courses ORDER BY dep", True),
    ("SELECT DISTINCT units FROM courses LIMIT 2", True),
    (
        "SELECT id FROM courses WHERE id IN "
        "(SELECT cid FROM enroll WHERE grade > 2.0) ORDER BY id",
        False,
    ),
    (
        "SELECT dep, AVG(units) AS mu FROM courses "
        "WHERE id > 3 GROUP BY dep ORDER BY mu LIMIT 3 OFFSET 1",
        False,
    ),
]


@pytest.mark.parametrize(
    "sql,distinct", FIXED_QUERIES, ids=[s[:40] for s, _d in FIXED_QUERIES]
)
def test_fixed_schema_accounting(db, sql, distinct):
    expected = db.query(sql).rows
    report = db.analyze(sql)
    assert report.result.rows == expected
    _assert_report_consistent(report, distinct)


def test_root_rows_out_equals_result_length(db):
    sql = "SELECT id, units FROM courses WHERE units >= 2"
    report = db.analyze(sql)
    assert report.root.rows_out == len(report.result)
    assert report.to_dict()["row_count"] == len(report.result)


def test_markers_render_under_analyze(db):
    sql = "SELECT id FROM courses WHERE dep = 1 ORDER BY id"
    cold = db.analyze(sql)
    assert not cold.cached
    assert "[cached]" not in cold.lines[0]
    warm = db.analyze(sql)
    assert warm.cached
    assert "[cached]" in warm.lines[0]
    # EXPLAIN ANALYZE through plain SQL renders the marker as plain
    # EXPLAIN does.
    result = db.execute("EXPLAIN ANALYZE " + sql)
    assert result.columns == ["QUERY PLAN"]
    assert "[cached]" in result.rows[0][0]
    assert "[cached]" in db.execute("EXPLAIN " + sql).rows[0][0]


def test_analyze_with_parameters(db):
    sql = "SELECT id FROM courses WHERE dep = ? AND units > ? ORDER BY id"
    expected = db.query(sql, [2, 1]).rows
    report = db.analyze(sql, [2, 1])
    assert report.result.rows == expected
    _assert_report_consistent(report, distinct=False)


def test_analyze_rejects_non_select(db):
    from repro.errors import PlannerError

    with pytest.raises(PlannerError):
        db.analyze("INSERT INTO courses VALUES (99, 1, 1)")


def test_distinct_limit_renders_post_limit_wrapper(db):
    report = db.analyze("SELECT DISTINCT dep FROM courses LIMIT 2")
    assert report.lines[0].startswith("Limit(2 offset 0)")
    assert "(out=2)" in report.lines[0]
    assert any("Distinct Project" in line for line in report.lines)


def test_every_node_line_carries_counts(db):
    report = db.analyze(
        "SELECT c.dep, COUNT(*) AS n FROM courses c "
        "JOIN enroll e ON c.id = e.cid GROUP BY c.dep"
    )
    for line in report.lines[1:]:
        assert "in=" in line and "out=" in line and "time=" in line


@pytest.mark.parametrize("seed", [5, 29, 83, 131])
def test_fuzzer_generated_queries_balance(seed):
    """Replay a generated case; ANALYZE every successful query op."""
    rendered = render_case(CaseGenerator(seed).case()).minidb
    database = Database()
    for ddl in rendered.create:
        database.execute(ddl)
    analyzed = 0
    for op in rendered.ops:
        params = [MINIDB_DIALECT.bind(value) for value in op.params]
        if op.kind != "query":
            try:
                database.execute(op.sql, params or None)
            except Exception:
                pass
            continue
        try:
            expected = database.query(op.sql, params or None).rows
        except Exception:
            continue  # error-parity cases are the testkit suite's job
        report = database.analyze(op.sql, params or None)
        assert sorted(map(repr, report.result.rows)) == sorted(
            map(repr, expected)
        )
        distinct = any("Distinct Project" in line for line in report.lines)
        _assert_report_consistent(report, distinct)
        analyzed += 1
    assert analyzed > 0  # the seed actually exercised ANALYZE
