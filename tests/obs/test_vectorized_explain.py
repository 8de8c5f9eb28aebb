"""EXPLAIN/EXPLAIN ANALYZE surface of the vectorized executor.

Pins the routing contract: ``[vectorized]`` renders exactly when the
plan carries a vector twin (never for row-path-only shapes like
primary-key point lookups or UDF projections), EXPLAIN ANALYZE reports
per-node batch
counts for genuinely vectorized operators while the PR 5 row-accounting
invariants keep holding, and the ``repro.obs`` counters see batches and
fallbacks.
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
        "CREATE TABLE t (id INT PRIMARY KEY, dep INT, units INT)"
    )
    for i in range(30):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?)", [i, i % 3, 1 + i % 4]
        )
    return database


VECTORIZED_SQL = "SELECT dep, COUNT(*) AS n FROM t GROUP BY dep ORDER BY dep"
# The pk-equality shape reads by key (PrimaryKeyAccess) -> row path only.
ROW_ONLY_SQL = "SELECT id FROM t WHERE id = 3"
# UDF in the projection: no kernel, no pure-key projection.
UDF_SQL = "SELECT ABS(dep) AS a FROM t"


def test_explain_marks_routed_plans_only(db):
    vectorized = db.execute("EXPLAIN " + VECTORIZED_SQL)
    assert "[vectorized]" in vectorized.rows[0][0]
    for sql in (ROW_ONLY_SQL, UDF_SQL):
        plain = db.execute("EXPLAIN " + sql)
        assert "[vectorized]" not in plain.rows[0][0], sql


def test_explain_never_marks_when_disabled(db):
    planner_module.VECTORIZE = False
    db.clear_plan_cache()
    result = db.execute("EXPLAIN " + VECTORIZED_SQL)
    assert "[vectorized]" not in result.rows[0][0]


def test_analyze_reports_batches_and_balances(db):
    report = db.analyze(VECTORIZED_SQL)
    assert report.vectorized
    assert "[vectorized]" in report.lines[0]
    assert any("batches=" in line for line in report.lines[1:])

    def check(node):
        assert node.rows_in == sum(child.rows_out for child in node.children)
        for child in node.children:
            check(child)

    check(report.root)
    assert report.root.rows_out == len(report.result)
    assert report.to_dict()["vectorized"] is True
    assert report.to_dict()["plan"]["batches"] >= 1


def test_analyze_row_path_reports_no_batches(db):
    report = db.analyze(ROW_ONLY_SQL)
    assert not report.vectorized
    assert "[vectorized]" not in report.lines[0]
    assert all("batches=" not in line for line in report.lines)


def test_instrumentation_leaves_cached_plans_pristine(db):
    """Repeated ANALYZE and plain queries must agree (no leaked wrappers)."""
    expected = db.query(VECTORIZED_SQL).rows
    for _ in range(3):
        report = db.analyze(VECTORIZED_SQL)
        assert report.result.rows == expected
        assert db.query(VECTORIZED_SQL).rows == expected


def test_obs_counters_see_batches_and_fallbacks(db):
    OBS.reset()
    OBS.enable()
    try:
        db.clear_plan_cache()
        db.query(VECTORIZED_SQL)
        db.query(ROW_ONLY_SQL)
        db.execute("CREATE INDEX idx_t_dep ON t (dep)")
        db.query("SELECT id FROM t WHERE dep = 2 ORDER BY id")
        counters = OBS.metrics.counters()
        assert counters["minidb.vector.plan.routed"] == 1
        # the primary-key lookup and the index scan both read by key
        assert counters["minidb.vector.plan.row_path"] == 2
        assert counters["minidb.vector.batches"] >= 1
        assert counters["minidb.vector.select.count"] == 1
    finally:
        OBS.disable()
        OBS.reset()


def test_obs_filter_selectivity_observed(db):
    OBS.reset()
    OBS.enable()
    try:
        db.clear_plan_cache()
        db.query("SELECT id FROM t WHERE units >= 3")
        histogram = OBS.metrics.histogram("minidb.vector.filter.selectivity")
        assert histogram is not None and histogram.count >= 1
    finally:
        OBS.disable()
        OBS.reset()
