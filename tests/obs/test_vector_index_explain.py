"""EXPLAIN/ANALYZE surface of index access: it runs on the row tree.

A plan that reads a table through an index is left to rows whole, so its
EXPLAIN carries no ``[vectorized]`` marker and renders identically with
the vector path on or off, EXPLAIN ANALYZE reports rows without batches,
and ``repro.obs`` counts it under ``minidb.vector.plan.row_path`` — while
an index-free multi-key hash join stays on batches.
"""

import pytest

import repro.minidb.planner as planner_module
from repro.minidb import Database
from repro.obs import OBS


@pytest.fixture()
def db(monkeypatch):
    monkeypatch.setattr(planner_module, "VECTORIZE", True)
    database = Database()
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT, n INT, v FLOAT)"
    )
    database.execute("CREATE INDEX idx_t_k ON t (k) USING hash")
    database.execute("CREATE INDEX idx_t_n ON t (n) USING sorted")
    for i in range(40):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [i, i % 4, i % 7, 0.25 * (1 + i % 4)],
        )
    database.execute("CREATE TABLE e (a INT, b INT, w FLOAT)")
    for i in range(20):
        database.execute(
            "INSERT INTO e VALUES (?, ?, ?)", [i % 4, i % 7, 0.5]
        )
    return database


HASH_SQL = "SELECT id, n FROM t WHERE k = 2 AND n > 1"
RANGE_SQL = "SELECT id FROM t WHERE n >= 3"
MULTIKEY_SQL = (
    "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "ORDER BY t.id, e.w"
)


def _explain_lines(database, sql):
    result = database.execute("EXPLAIN " + sql)
    return [row[0] for row in result.rows]


@pytest.mark.parametrize("sql", [HASH_SQL, RANGE_SQL])
def test_index_plan_lines_identical_across_paths(db, sql):
    with_vectors = _explain_lines(db, sql)
    assert "[vectorized]" not in with_vectors[0]
    assert any("IndexScan(" in line for line in with_vectors)

    planner_module.VECTORIZE = False
    db.clear_plan_cache()
    assert _explain_lines(db, sql) == with_vectors


def test_hash_equality_renders_index_and_residual(db):
    lines = _explain_lines(db, HASH_SQL)
    index_line = next(line for line in lines if "IndexScan(" in line)
    assert "using idx_t_k" in index_line
    assert "filter=" in index_line  # residual predicate stays visible


def test_multikey_join_is_vectorized(db):
    lines = _explain_lines(db, MULTIKEY_SQL)
    assert "[vectorized]" in lines[0]
    join_line = next(line for line in lines if "HashJoin(" in line)
    assert "t.k" in join_line and "t.n" in join_line


def test_analyze_counts_index_scan_rows_without_batches(db):
    report = db.analyze(HASH_SQL)
    assert not report.vectorized
    assert not any("batches=" in line for line in report.lines)
    assert any("IndexScan(" in line for line in report.lines)

    def check(node):
        assert node.rows_in == sum(child.rows_out for child in node.children)
        for child in node.children:
            check(child)

    check(report.root)
    assert report.root.rows_out == len(report.result)


def test_index_scan_results_match_row_path(db):
    for sql in (HASH_SQL, RANGE_SQL, MULTIKEY_SQL):
        vectorized = db.query(sql)
        planner_module.VECTORIZE = False
        db.clear_plan_cache()
        row_path = db.query(sql)
        planner_module.VECTORIZE = True
        db.clear_plan_cache()
        assert vectorized.rows == row_path.rows, sql


def test_obs_counters_index_scan_and_multikey(db):
    OBS.reset()
    OBS.enable()
    try:
        db.clear_plan_cache()
        db.query(HASH_SQL)
        db.query(RANGE_SQL)
        counters = OBS.metrics.counters()
        assert counters["minidb.vector.plan.row_path"] == 2
        assert "minidb.vector.plan.routed" not in counters
        db.query(MULTIKEY_SQL)
        counters = OBS.metrics.counters()
        assert counters["minidb.vector.plan.routed"] == 1
        assert counters["minidb.vector.multikey_join.count"] >= 1
    finally:
        OBS.disable()
        OBS.reset()
