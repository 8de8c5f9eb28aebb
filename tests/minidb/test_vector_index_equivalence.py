"""Property suite: index access on the row tree, multi-key hash joins on
batches.

Plans that read a table through :class:`IndexAccess` (hash equality and
sorted ranges, with and without residual predicates) run on the row
tree; hash joins on composite keys (including NULL key parts and
duplicate composite keys) run on batches.  Each query runs under four
configs — reference row path cold/warm, vectorized cold/warm, where
*warm* replays the query on the same database so the plan cache and
column store are both hot — and results must be identical, including
physical row order and error kind.

The tables are mutated after load (UPDATEs replace rows in place,
DELETEs punch holes), and the same queries on a copy without secondary
indexes — whole-table scans on batches — must answer in the same order:
an index emits scan order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minidb.vector.batch as vector_batch
from repro.minidb import Database
from repro.minidb.planner import flag_overrides

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
    # float kernels
    "SELECT id, v + 0.5 AS a, v * 2.0 AS m FROM t WHERE v > 0.25",
    "SELECT id FROM t WHERE v <= 1.0 ORDER BY id DESC LIMIT 5",
    # multi-key hash joins: inner, LEFT OUTER, with residual filters
    "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "ORDER BY t.id, e.w",
    "SELECT t.id, e.w FROM t LEFT JOIN e ON t.k = e.a AND t.n = e.b "
    "ORDER BY t.id, e.w",
    "SELECT t.id FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "WHERE e.w > 0.4 ORDER BY t.id",
    "SELECT t.k, COUNT(*) AS c, SUM(e.w) AS sw FROM t "
    "JOIN e ON t.k = e.a AND t.n = e.b GROUP BY t.k ORDER BY t.k",
    # index route + multi-key join in one plan
    "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
    "WHERE t.k = 2 ORDER BY t.id, e.w",
    # error parity: n may be zero or NULL under an indexed residual
    "SELECT v / n AS q FROM t WHERE k = 1",
]


def _build(rows, links, indexed=True):
    database = Database()
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT, n INT, v FLOAT)"
    )
    if indexed:
        database.execute("CREATE INDEX idx_t_k ON t (k) USING hash")
        database.execute("CREATE INDEX idx_t_n ON t (n) USING sorted")
        # multi-column index: never an access path, but its maintenance
        # must survive the UPDATE/DELETE churn below.
        database.execute("CREATE INDEX idx_t_kn ON t (k, n) USING hash")
    for position, (k, n, v) in enumerate(rows):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)", [position, k, n, v]
        )
    database.execute("CREATE TABLE e (a INT, b INT, w FLOAT)")
    for a, b, w in links:
        database.execute("INSERT INTO e VALUES (?, ?, ?)", [a, b, w])
    # Updates (in place) and deletes (holes) force index maintenance.
    database.execute("UPDATE t SET v = v + 0.25 WHERE k = 0")
    database.execute("UPDATE t SET k = 3 WHERE n = -1")
    database.execute("DELETE FROM t WHERE n = 3")
    return database


def _run(rows, links, sql, vectorize, warm=False, indexed=True):
    with flag_overrides(vectorize=vectorize):
        database = _build(rows, links, indexed)
        try:
            if warm:
                try:
                    database.query(sql)
                except Exception:
                    pass  # the second run must error identically
            result = database.query(sql)
        except Exception as exc:  # error parity is part of the contract
            return ("error", type(exc).__name__)
        return ("rows", result.columns, result.rows)


CONFIGS = (
    ("row-cold", False, False),
    ("row-warm", False, True),
    ("vectorized-cold", True, False),
    ("vectorized-warm", True, True),
)


@settings(max_examples=15)
@given(rows=row_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL))
def test_four_config_equivalence(rows, links, sql):
    outcomes = {
        name: _run(rows, links, sql, vectorize, warm=warm)
        for name, vectorize, warm in CONFIGS
    }
    kinds = {outcome[0] for outcome in outcomes.values()}
    assert len(kinds) == 1, f"error-parity divergence: {outcomes}"
    reference = outcomes["row-cold"]
    if kinds == {"rows"}:
        for name, outcome in outcomes.items():
            assert outcome == reference, (
                f"{name} diverges on {sql!r}: {outcome} != {reference}"
            )


@settings(max_examples=15)
@given(rows=row_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL))
def test_index_access_answers_like_the_full_scan(rows, links, sql):
    """Index access on rows ≡ the unindexed plan's whole-table scans on
    batches, row order included, and an index plan is never batched."""
    indexed = _run(rows, links, sql, True)
    scanned = _run(rows, links, sql, True, indexed=False)
    assert indexed == scanned, f"{sql!r}: {indexed} != {scanned}"
    with flag_overrides(vectorize=True):
        lines = _build(rows, links).query("EXPLAIN " + sql).column(
            "QUERY PLAN"
        )
    if any("IndexScan(" in line for line in lines):
        assert "[vectorized]" not in lines[0], lines


@settings(max_examples=15)
@given(rows=row_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL),
       batch_size=st.sampled_from([1, 2, 3, 7]))
def test_equivalence_with_tiny_batches(rows, links, sql, batch_size):
    """Index gathers and composite-key buckets straddling batch edges."""
    saved = vector_batch.BATCH_SIZE
    vector_batch.BATCH_SIZE = batch_size
    try:
        reference = _run(rows, links, sql, False)
        vectorized = _run(rows, links, sql, True)
    finally:
        vector_batch.BATCH_SIZE = saved
    assert reference[0] == vectorized[0]
    if reference[0] == "rows":
        assert reference == vectorized


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_batch_boundary_row_counts(monkeypatch, delta):
    """Exactly N-1 / N / N+1 rows around the batch edge, every query."""
    monkeypatch.setattr(vector_batch, "BATCH_SIZE", 8)
    count = 8 + delta
    rows = [
        (i % 4, [None, -2, 0, 1, 2][i % 5], [0.25, 0.5, 1.0, 2.0][i % 4])
        for i in range(count)
    ]
    links = [
        (i % 4 if i % 3 else None, [None, 0, 1][i % 3], 0.5)
        for i in range(count + 2)
    ]
    for sql in QUERY_POOL:
        reference = _run(rows, links, sql, False)
        vectorized = _run(rows, links, sql, True)
        assert reference[0] == vectorized[0], (sql, reference, vectorized)
        if reference[0] == "rows":
            assert reference == vectorized, sql


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
    for sql in pool:
        reference = _run(rows, links, sql, False)
        for name, vectorize, warm in CONFIGS:
            outcome = _run(rows, links, sql, vectorize, warm=warm)
            assert outcome == reference, (name, sql, outcome, reference)


def test_index_scan_empty_and_miss():
    """Empty tables and probes that match nothing, through the index."""
    pool = [
        "SELECT id FROM t WHERE k = 2",
        "SELECT id FROM t WHERE n > 100",
        "SELECT COUNT(*) AS c FROM t WHERE k = 0",
        "SELECT t.id, e.w FROM t JOIN e ON t.k = e.a AND t.n = e.b "
        "ORDER BY t.id, e.w",
    ]
    for rows in ([], [(0, None, 0.5), (1, 5, 1.0)]):
        for sql in pool:
            reference = _run(rows, [], sql, False)
            vectorized = _run(rows, [], sql, True)
            assert reference == vectorized, (sql, rows, reference, vectorized)
