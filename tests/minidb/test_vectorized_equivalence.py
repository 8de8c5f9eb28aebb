"""Property suite: vectorized ≡ reference row-path execution.

Hypothesis generates table contents (including all-NULL columns and
empty tables) and drives a query pool that covers every vectorized
operator — scan-filter, join, group/aggregate, sort+limit, DISTINCT,
CASE/IN/LIKE/BETWEEN, NULL arithmetic.  Each query runs on a fresh
database on both execution paths; results must be *identical* (same
rows, same order — the row-value domain makes float results
bit-deterministic) and errors must agree in kind.

Batch-boundary behaviour is probed separately by shrinking
``vector.batch.BATCH_SIZE`` so row counts of N-1, N, and N+1 straddle
the batch edge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minidb.vector.batch as vector_batch
from repro.minidb import Database
from repro.minidb.planner import flag_overrides

value_strategy = st.one_of(
    st.none(), st.integers(min_value=-9, max_value=9)
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),            # grp
        value_strategy,                                    # val
        st.one_of(st.none(), st.sampled_from(["aa", "ab", "ba", "zz"])),
    ),
    max_size=30,
)

link_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),            # ref -> t.id
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),            # w
    ),
    max_size=20,
)

QUERY_POOL = [
    "SELECT id, grp, val FROM t WHERE val > 0",
    "SELECT id FROM t WHERE val IS NULL OR grp < 2",
    "SELECT id FROM t WHERE txt LIKE 'a%' AND val IS NOT NULL",
    "SELECT id FROM t WHERE val BETWEEN -3 AND 3",
    "SELECT id FROM t WHERE grp IN (1, 3) AND NOT (val = 0)",
    "SELECT id, val + grp AS s, val * 2 AS d FROM t WHERE id >= 0",
    "SELECT id, CASE WHEN val > 0 THEN 'p' WHEN val < 0 THEN 'n' "
    "ELSE 'z' END AS sign FROM t",
    "SELECT grp, COUNT(*) AS n, COUNT(val) AS nv, SUM(val) AS s, "
    "AVG(val) AS a, MIN(val) AS lo, MAX(val) AS hi FROM t GROUP BY grp "
    "ORDER BY grp",
    "SELECT COUNT(*) AS n, SUM(val) AS s FROM t",
    "SELECT grp, COUNT(DISTINCT val) AS dv FROM t GROUP BY grp ORDER BY grp",
    "SELECT grp, SUM(val) AS s FROM t GROUP BY grp "
    "HAVING SUM(val) > 0 ORDER BY grp",
    "SELECT DISTINCT grp FROM t ORDER BY grp",
    "SELECT DISTINCT grp, txt FROM t ORDER BY grp, txt LIMIT 3",
    "SELECT id FROM t ORDER BY val DESC, id LIMIT 4 OFFSET 2",
    "SELECT t.id, e.w FROM t JOIN e ON t.id = e.ref ORDER BY t.id, e.w",
    "SELECT t.grp, SUM(e.w) AS tw FROM t JOIN e ON t.id = e.ref "
    "GROUP BY t.grp ORDER BY t.grp",
    "SELECT t.id, e.w FROM t LEFT JOIN e ON t.id = e.ref "
    "ORDER BY t.id, e.w",
    "SELECT s.grp, s.n FROM (SELECT grp, COUNT(*) AS n FROM t "
    "GROUP BY grp) s WHERE s.n > 1 ORDER BY s.grp",
    "SELECT val FROM t WHERE val / grp > 1",        # division by zero parity
    "SELECT id FROM t WHERE val < 'x'",             # type-error parity
]


def _build(rows, links):
    database = Database()
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, txt TEXT, "
        "allnull INT)"
    )
    for position, (grp, val, txt) in enumerate(rows):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            [position, grp, val, txt, None],
        )
    database.execute("CREATE TABLE e (ref INT, w FLOAT)")
    for ref, weight in links:
        database.execute("INSERT INTO e VALUES (?, ?)", [ref, weight])
    return database


def _run(rows, links, sql, vectorize):
    with flag_overrides(vectorize=vectorize):
        database = _build(rows, links)
        try:
            result = database.query(sql)
        except Exception as exc:  # error parity is part of the contract
            return ("error", type(exc).__name__)
        return ("rows", result.columns, result.rows)


@settings(max_examples=15)
@given(rows=rows_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL))
def test_row_vector_equivalence(rows, links, sql):
    reference = _run(rows, links, sql, False)
    vectorized = _run(rows, links, sql, True)
    assert reference[0] == vectorized[0], (
        f"error-parity divergence: {reference} vs {vectorized}"
    )
    if reference[0] == "rows":
        assert reference == vectorized, f"vectorized diverges on {sql!r}"


@settings(max_examples=15)
@given(rows=rows_strategy, links=link_strategy,
       sql=st.sampled_from(QUERY_POOL),
       batch_size=st.sampled_from([1, 2, 3, 7]))
def test_equivalence_with_tiny_batches(rows, links, sql, batch_size):
    """Shrunken BATCH_SIZE exposes per-batch state carried across chunks."""
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
    """Exactly N-1 / N / N+1 rows around the batch edge, every operator."""
    monkeypatch.setattr(vector_batch, "BATCH_SIZE", 8)
    count = 8 + delta
    rows = [(i % 3, (i % 5) - 2, ["aa", None, "zz"][i % 3]) for i in range(count)]
    links = [(i, 0.5) for i in range(0, count, 2)]
    for sql in QUERY_POOL:
        reference = _run(rows, links, sql, False)
        vectorized = _run(rows, links, sql, True)
        assert reference[0] == vectorized[0], (sql, reference, vectorized)
        if reference[0] == "rows":
            assert reference == vectorized, sql


def test_all_null_and_empty_tables():
    """Aggregates/filters over all-NULL columns and fully empty tables."""
    pool = [
        "SELECT COUNT(*) AS n, COUNT(allnull) AS na, SUM(allnull) AS s, "
        "AVG(allnull) AS a, MIN(allnull) AS lo, MAX(allnull) AS hi FROM t",
        "SELECT grp, SUM(allnull) AS s FROM t GROUP BY grp ORDER BY grp",
        "SELECT id FROM t WHERE allnull > 0",
        "SELECT id FROM t WHERE allnull IS NULL ORDER BY id",
        "SELECT DISTINCT allnull FROM t",
    ]
    for rows in ([], [(1, None, None), (2, None, "aa")]):
        for sql in pool:
            reference = _run(rows, [], sql, False)
            vectorized = _run(rows, [], sql, True)
            assert reference == vectorized, (sql, rows, reference, vectorized)
