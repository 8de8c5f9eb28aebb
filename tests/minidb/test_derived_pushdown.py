"""Outer WHERE conjuncts pushed into derived tables.

A conjunct on a derived table's plain columns moves into its body,
where the ordinary pushdown carries it to the scan that owns the column
and on to that scan's index.  It never moves into a body that
aggregates, groups, filters groups, deduplicates or truncates, nor onto
a computed or repeated output column, nor into a derived table on the
NULL-padded side of a LEFT JOIN.  Pushed or not, the rows and their
order are those of the unpushed plan (the same body behind a LIMIT the
table never reaches) — after UPDATE/DELETE churn included — and match
sqlite3 as a multiset.
"""

import sqlite3

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb import Database

ROWS = [
    (1, 10, "a", 1.5),
    (2, 20, "b", 2.5),
    (3, 10, "c", None),
    (4, 30, "a", 4.0),
    (5, 20, None, 5.5),
    (6, 10, "b", 0.5),
]
LINKS = [(10, "ten"), (20, "twenty"), (40, "forty")]
CHURN = [
    "UPDATE t SET v = 9.5 WHERE id = 1",
    "UPDATE t SET k = 20 WHERE id = 3",
    "DELETE FROM t WHERE id = 2",
    "INSERT INTO t VALUES (7, 10, 'c', 7.5)",
    "UPDATE t SET name = 'z' WHERE k = 10",
]


def _database():
    database = Database()
    connection = sqlite3.connect(":memory:")
    for engine in (database, connection):
        engine.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, name TEXT, "
            "v FLOAT)"
        )
        engine.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, label TEXT)")
        for row in ROWS:
            engine.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        for row in LINKS:
            engine.execute("INSERT INTO u VALUES (?, ?)", row)
    database.execute("CREATE INDEX idx_t_k ON t (k)")
    database.execute("CREATE INDEX idx_t_v ON t (v) USING sorted")
    return database, connection


def _explain(database, sql, params=()):
    return database.query("EXPLAIN " + sql, params).column("QUERY PLAN")


def _outer_filter(lines):
    """The Filter line above the SubqueryScan, or None."""
    for line in lines:
        if "SubqueryScan(" in line:
            return None
        if line.strip().startswith("Filter("):
            return line.strip()
    raise AssertionError(f"no SubqueryScan in {lines}")


PUSHED = [
    # projecting: the key reaches the hash index
    ("SELECT * FROM (SELECT id, name FROM t) AS s WHERE id = ?", (3,),
     "using primary key = (?1)"),
    ("SELECT s.n FROM (SELECT k AS kk, name AS n FROM t) AS s "
     "WHERE s.kk = ?", (10,), "using idx_t_k = (?1)"),
    # a range, twice on one side, on the sorted index
    ("SELECT * FROM (SELECT id, v FROM t) AS s WHERE v > ? AND v >= 1.0",
     (1.0,), "using idx_t_v range"),
    # joining: to the side that owns the column, then a lookup join
    ("SELECT * FROM (SELECT t.id, t.k, u.label FROM t JOIN u ON t.k = u.k) "
     "AS s WHERE s.k = ?", (10,), "using idx_t_k = (?1)"),
    # ordered body, nested derived tables, and a star body
    ("SELECT * FROM (SELECT id, k FROM t ORDER BY id DESC) AS s "
     "WHERE k = ?", (10,), "using idx_t_k = (?1)"),
    ("SELECT * FROM (SELECT * FROM (SELECT id, k FROM t) AS i) AS s "
     "WHERE k = ?", (20,), "using idx_t_k = (?1)"),
    ("SELECT * FROM (SELECT * FROM t WHERE name <> 'q') AS s "
     "WHERE k = ?", (10,), "using idx_t_k = (?1)"),
]

BARRED = [
    "SELECT * FROM (SELECT k, COUNT(*) AS n FROM t GROUP BY k) AS s "
    "WHERE k = ?",
    "SELECT * FROM (SELECT k, COUNT(*) AS n FROM t GROUP BY k "
    "HAVING COUNT(*) > 0) AS s WHERE k = ?",
    "SELECT * FROM (SELECT MIN(k) AS k FROM t) AS s WHERE k = ?",
    "SELECT * FROM (SELECT DISTINCT k FROM t) AS s WHERE k = ?",
    "SELECT * FROM (SELECT id, k FROM t ORDER BY id LIMIT 4) AS s "
    "WHERE k = ?",
    "SELECT * FROM (SELECT id, k FROM t ORDER BY id LIMIT 9 OFFSET 1) AS s "
    "WHERE k = ?",
    # a computed column, and a name the body outputs twice
    "SELECT * FROM (SELECT id, k + 0 AS k FROM t) AS s WHERE k = ?",
    "SELECT * FROM (SELECT t.k, u.k FROM t JOIN u ON t.k = u.k) AS s "
    "WHERE k = ?",
    # the NULL-padded side of a LEFT JOIN
    "SELECT * FROM u LEFT JOIN (SELECT id, k AS tk FROM t) AS s "
    "ON u.k = s.tk WHERE s.tk = ?",
]


def _unpushed(sql):
    """The same query with the derived body behind an unreachable LIMIT."""
    head, _sep, tail = sql.rpartition(") AS s")
    return f"{head} LIMIT 1000000) AS s{tail}"


def _check_against_twin_and_sqlite(database, connection, sql, params):
    rows = database.query(sql, params).rows
    assert rows == database.query(_unpushed(sql), params).rows, sql
    expected = connection.execute(sql, params).fetchall()
    assert sorted(rows, key=repr) == sorted(
        (tuple(row) for row in expected), key=repr
    ), sql


@pytest.mark.parametrize("sql, params, access", PUSHED)
def test_plain_columns_push_onto_the_key(sql, params, access):
    database, connection = _database()
    lines = _explain(database, sql, params)
    assert _outer_filter(lines) is None, lines
    assert not any("SeqScan(t " in line for line in lines), lines
    assert any(access in line for line in lines), lines
    _check_against_twin_and_sqlite(database, connection, sql, params)
    for statement in CHURN:
        database.execute(statement)
        connection.execute(statement)
        _check_against_twin_and_sqlite(database, connection, sql, params)


@pytest.mark.parametrize("sql", BARRED)
def test_the_legality_list_keeps_the_filter_outside(sql):
    database, connection = _database()
    lines = _explain(database, sql, (10,))
    assert _outer_filter(lines) is not None, lines
    for statement in [None] + CHURN:
        if statement is not None:
            database.execute(statement)
            connection.execute(statement)
        rows = database.query(sql, (10,)).rows
        expected = connection.execute(sql, (10,)).fetchall()
        assert sorted(rows, key=repr) == sorted(
            (tuple(row) for row in expected), key=repr
        ), sql


def test_a_conjunct_on_a_computed_column_stays_while_its_sibling_moves():
    database, _connection = _database()
    sql = (
        "SELECT * FROM (SELECT id, k, v * 2 AS w FROM t) AS s "
        "WHERE k = ? AND w > 2.0"
    )
    lines = _explain(database, sql, (10,))
    assert _outer_filter(lines) == "Filter((w > 2))", lines
    assert any("using idx_t_k = (?1)" in line for line in lines), lines
    assert database.query(sql, (10,)).rows == database.query(
        _unpushed(sql), (10,)
    ).rows == [(1, 10, 3.0)]


def test_a_union_body_is_not_in_the_grammar():
    database, _connection = _database()
    with pytest.raises(SQLSyntaxError):
        database.query(
            "SELECT * FROM (SELECT k FROM t UNION SELECT k FROM u) AS s "
            "WHERE k = 10"
        )
