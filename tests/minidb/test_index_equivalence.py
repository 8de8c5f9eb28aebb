"""Index access and composite-key joins, held to the unindexed plan and
to sqlite3.

Plans that read a table through :class:`IndexAccess` (hash equality and
sorted ranges, with and without residual predicates) must answer like
the same queries on a copy without secondary indexes — whole-table
scans — row order and error kind included, because an index emits scan
order.  The indexes exist before the first INSERT, and the tables are
mutated after load (UPDATEs replace rows in place, DELETEs punch holes),
so index maintenance on every kind of write is part of the check,
and every answer must also match sqlite3 as a multiset.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database
from repro.testkit.oracle import normalize_rows

row_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),             # k  (hash idx)
        st.one_of(st.none(),
                  st.integers(min_value=-3, max_value=3)),  # n  (sorted idx)
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),            # v  (float col)
    ),
    max_size=30,
)

link_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),   # a
        st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),  # b
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),                        # w
    ),
    max_size=20,
)

QUERY_POOL = [
    # hash-index equality, no residual (index order = scan order)
    "SELECT id, n, v FROM t WHERE k = 2",
    # hash-index equality + residual
    "SELECT id, n FROM t WHERE k = 1 AND n > 0",
    "SELECT id FROM t WHERE k = 3 AND v >= 0.5 AND n IS NOT NULL",
    # sorted-index ranges (open / closed / half-open)
    "SELECT id, n FROM t WHERE n > 0",
    "SELECT id FROM t WHERE n >= -1 AND k < 3",
    "SELECT id, v FROM t WHERE n < 2",
    # indexed scan feeding aggregation
    "SELECT COUNT(*) AS c, COUNT(n) AS cn, SUM(n) AS s, MIN(v) AS lo, "
    "MAX(v) AS hi FROM t WHERE k = 1",
    "SELECT k, SUM(v) AS sv FROM t WHERE n > -2 GROUP BY k ORDER BY k",
    "SELECT id FROM t WHERE v <= 1.0 ORDER BY id DESC LIMIT 5",
    # composite-key hash joins: inner, LEFT OUTER, with residual filters
    "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "ORDER BY t.id, e.w",
    "SELECT t.id, e.w FROM t LEFT JOIN e ON t.k = e.a AND t.n = e.b "
    "ORDER BY t.id, e.w",
    "SELECT t.id FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "WHERE e.w > 0.4 ORDER BY t.id",
    # index route + composite-key join in one plan
    "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "WHERE t.k = 2 ORDER BY t.id, e.w",
    # error kind: n may be zero or NULL under an indexed residual
    "SELECT v / n AS q FROM t WHERE k = 1",
]

SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY, k INT, n INT, v FLOAT)",
    "CREATE TABLE e (a INT, b INT, w FLOAT)",
)
INDEXES = (
    "CREATE INDEX idx_t_k ON t (k) USING hash",
    "CREATE INDEX idx_t_n ON t (n) USING sorted",
    # multi-column index: never an access path, but its maintenance must
    # survive the INSERTs and the UPDATE/DELETE churn below.
    "CREATE INDEX idx_t_kn ON t (k, n) USING hash",
)
CHURN = (
    "UPDATE t SET v = v + 0.25 WHERE k = 0",
    "UPDATE t SET k = 3 WHERE n = -1",
    "DELETE FROM t WHERE n = 3",
)


def _load(engine, rows, links, indexes=()):
    """Create the tables, then ``indexes``, then insert: the indexes are
    maintained row by row from the first INSERT on."""
    for statement in SCHEMA + tuple(indexes):
        engine.execute(statement)
    for position, (k, n, v) in enumerate(rows):
        engine.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (position, k, n, v))
    for link in links:
        engine.execute("INSERT INTO e VALUES (?, ?, ?)", link)


def _minidb(rows, links, indexed=True):
    database = Database()
    _load(database, rows, links, INDEXES if indexed else ())
    for statement in CHURN:
        database.execute(statement)
    return database


def _sqlite(rows, links):
    connection = sqlite3.connect(":memory:")
    _load(connection, rows, links)
    for statement in CHURN:
        connection.execute(statement)
    return connection


def _run(database, sql):
    try:
        result = database.query(sql)
    except Exception as exc:  # error kind is part of the contract
        return ("error", type(exc).__name__)
    return ("rows", result.columns, result.rows)


@settings(max_examples=15)
@given(rows=row_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL))
def test_index_access_answers_like_the_full_scan(rows, links, sql):
    """Index access ≡ the unindexed plan's whole-table scans, row order
    included, and both agree with sqlite3."""
    indexed = _run(_minidb(rows, links), sql)
    scanned = _run(_minidb(rows, links, indexed=False), sql)
    assert indexed == scanned, f"{sql!r}: {indexed} != {scanned}"
    if indexed[0] == "rows":
        expected = _sqlite(rows, links).execute(sql).fetchall()
        assert normalize_rows(indexed[2]) == normalize_rows(expected), sql


def test_duplicate_composite_keys_and_null_key_parts():
    """Pinned corpus: duplicate (k, n) pairs on both join sides, NULL in
    either key part (never matches, LEFT OUTER still emits the row)."""
    rows = [
        (1, 1, 0.5), (1, 1, 1.0), (1, 1, 2.0),   # duplicate composite key
        (2, None, 0.5), (2, 2, 0.25),            # NULL key part on build
        (3, -1, 1.0),
    ]
    links = [
        (1, 1, 0.25), (1, 1, 0.5),               # duplicate probe key
        (None, 1, 1.0), (2, None, 2.0),          # NULL key parts on probe
        (3, -1, 0.5), (0, 0, 0.25),              # unmatched probe
    ]
    pool = [
        "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
        "ORDER BY t.id, e.w",
        "SELECT t.id, e.w FROM t LEFT JOIN e ON t.k = e.a AND t.n = e.b "
        "ORDER BY t.id, e.w",
        "SELECT COUNT(*) AS c FROM t JOIN e ON t.k = e.a AND t.n = e.b",
    ]
    database = _minidb(rows, links)
    connection = _sqlite(rows, links)
    for sql in pool:
        expected = connection.execute(sql).fetchall()
        assert database.query(sql).rows == expected, sql
