"""Per-node row counts of Database.analyze (EXPLAIN ANALYZE)."""

import pytest

from repro.errors import PlannerError
from repro.minidb import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g TEXT, x INTEGER)")
    for i in range(20):
        database.execute(f"INSERT INTO t VALUES ({i}, '{'ab'[i % 2]}', {i % 5})")
    return database


def node_lines(report, label):
    return [line for line in report.lines if line.lstrip().startswith(label)]


class TestProfile:
    def test_returns_result_and_report(self, db):
        report = db.analyze("SELECT id FROM t WHERE x > 2")
        assert len(report.result) == len(
            db.query("SELECT id FROM t WHERE x > 2")
        )
        assert node_lines(report, "SeqScan")
        assert "out=" in report.text

    def test_scan_count_reflects_filter(self, db):
        report = db.analyze("SELECT id FROM t WHERE g = 'a'")
        [scan] = node_lines(report, "SeqScan")
        assert "out=10 " in scan

    def test_aggregate_counts(self, db):
        report = db.analyze("SELECT g, COUNT(*) FROM t GROUP BY g")
        [aggregate] = node_lines(report, "Aggregate")
        assert "out=2 " in aggregate
        assert len(report.result) == 2

    def test_join_nodes_counted(self, db):
        report = db.analyze("SELECT a.id FROM t a JOIN t b ON a.x = b.x")
        assert node_lines(report, "HashJoin")
        assert len(node_lines(report, "SeqScan")) == 2

    def test_limit_shows_early_termination(self, db):
        report = db.analyze("SELECT id FROM t LIMIT 3")
        [limit] = node_lines(report, "Limit(3 offset 0)")
        assert "out=3 " in limit
        # The scan under the limit produced only the rows that were pulled.
        [scan] = node_lines(report, "SeqScan")
        assert "out=3 " in scan

    def test_subquery_plans_included(self, db):
        report = db.analyze("SELECT * FROM (SELECT id FROM t WHERE x = 1) s")
        assert node_lines(report, "SubqueryScan")

    def test_profile_rejects_non_select(self, db):
        with pytest.raises(PlannerError):
            db.analyze("DELETE FROM t")

    def test_profile_matches_query_output(self, db):
        sql = "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY s DESC"
        profiled = db.analyze(sql).result
        plain = db.query(sql)
        assert profiled.rows == plain.rows
        assert profiled.columns == plain.columns
