"""The primary-key lookup join: equivalence to the hash join, and the rule.

``LookupJoinNode`` probes ``Table.lookup_pk`` per left row where
``HashJoinNode`` builds a hash over the whole right table.  The oracle
needs no switch: the same statement against a *twin* right table declared
without ``PRIMARY KEY`` (same rows, same order) cannot qualify for the
lookup join, so the planner gives it the hash join — and the two answers
must be the same rows in the same order.

The rule itself — a bare right scan, join columns covering exactly the
right table's primary key, a left side driven by an index or primary-key
access — is pinned by EXPLAIN, one negative control per clause.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.minidb import Database

# Left rows: (k hash-indexed driver, a, b) with NULL and absent join keys
# and duplicates; right rows keyed by (a) or by the composite (a, b).
left_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    ),
    max_size=16,
)
single_keys = st.sets(st.integers(min_value=0, max_value=4), max_size=5)
composite_keys = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=8,
)

SINGLE = [
    "SELECT l.id, l.a, r.v FROM l JOIN {r} AS r ON l.a = r.a WHERE l.k = ?",
    "SELECT l.id, l.a, r.v FROM l LEFT JOIN {r} AS r ON l.a = r.a "
    "WHERE l.k = ?",
    "SELECT l.id, r.a, r.v FROM l LEFT JOIN {r} AS r "
    "ON l.a = r.a AND r.v > l.id WHERE l.k = ?",
    "SELECT l.id, r.v FROM l JOIN {r} AS r ON r.a = l.a AND l.id <> r.v "
    "WHERE l.k = ?",
    # a computed left key, and a join under an aggregate
    "SELECT l.id, r.v FROM l JOIN {r} AS r ON l.a + 1 = r.a WHERE l.k = ?",
    "SELECT COUNT(*) AS n, SUM(r.v) AS s FROM l JOIN {r} AS r ON l.a = r.a "
    "WHERE l.k = ?",
]
COMPOSITE = [
    "SELECT l.id, r.v FROM l JOIN {r} AS r ON l.a = r.a AND l.b = r.b "
    "WHERE l.k = ?",
    # key columns named in the other order than the PRIMARY KEY lists them
    "SELECT l.id, r.a, r.b, r.v FROM l LEFT JOIN {r} AS r "
    "ON r.b = l.b AND r.a = l.a WHERE l.k = ?",
    "SELECT l.id, r.v FROM l LEFT JOIN {r} AS r "
    "ON l.a = r.a AND l.b = r.b AND r.v < 20 WHERE l.k = ?",
]


def _database(left, single, composite):
    database = Database()
    database.execute(
        "CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER, a INTEGER, "
        "b INTEGER)"
    )
    database.execute("CREATE INDEX idx_l_k ON l (k)")
    for position, (k, a, b) in enumerate(left):
        database.execute("INSERT INTO l VALUES (?, ?, ?, ?)", (position, k, a, b))
    for name, key in (("r1", "PRIMARY KEY (a)"), ("r1_twin", None)):
        database.execute(
            f"CREATE TABLE {name} (a INTEGER, v INTEGER"
            + (f", {key})" if key else ")")
        )
        for a in sorted(single, reverse=True):
            database.execute(f"INSERT INTO {name} VALUES (?, ?)", (a, a * 10))
    for name, key in (("r2", "PRIMARY KEY (a, b)"), ("r2_twin", None)):
        database.execute(
            f"CREATE TABLE {name} (a INTEGER, b INTEGER, v INTEGER"
            + (f", {key})" if key else ")")
        )
        for a, b in sorted(composite):
            database.execute(
                f"INSERT INTO {name} VALUES (?, ?, ?)", (a, b, a * 10 + b)
            )
    return database


def _explain(database, sql):
    return "\n".join(database.query("EXPLAIN " + sql).column("QUERY PLAN"))


@given(left=left_rows, single=single_keys, composite=composite_keys)
def test_lookup_join_equals_the_hash_join_over_a_keyless_twin(
    left, single, composite
):
    database = _database(left, single, composite)
    for templates, table in ((SINGLE, "r1"), (COMPOSITE, "r2")):
        for template in templates:
            lookup = template.format(r=table)
            hashed = template.format(r=table + "_twin")
            assert "LookupJoin(" in _explain(database, lookup), lookup
            assert "HashJoin(" in _explain(database, hashed), hashed
            for k in (0, 1, 2, None):
                assert (
                    database.query(lookup, (k,)).rows
                    == database.query(hashed, (k,)).rows
                ), (lookup, k)


@pytest.fixture
def database():
    return _database(
        [(0, 1, 0), (0, None, 1), (1, 3, 2), (0, 9, 0), (0, 1, 1)],
        {1, 3},
        {(1, 0), (1, 1), (3, 2)},
    )


def test_the_plan_names_the_join_and_analyze_counts_its_probes(database):
    sql = (
        "SELECT l.id, r.v FROM l LEFT JOIN r1 AS r ON l.a = r.a "
        "WHERE l.k = 0 ORDER BY l.id"
    )
    plan = database.query("EXPLAIN " + sql).column("QUERY PLAN")
    assert [line.strip().split("(")[0] for line in plan] == [
        "Project", "Sort", "LeftLookupJoin", "IndexScan", "PrimaryKeyLookup",
    ]
    report = database.analyze(sql)
    assert report.result.rows == [(0, 10), (1, None), (3, None), (4, 10)]
    join = report.root.children[0]
    scan, lookup = join.children
    assert (scan.rows_out, join.rows_out) == (4, 4)
    # Four left rows; the NULL key is never probed, 9 is probed and absent.
    assert lookup.label == "PrimaryKeyLookup(r1 AS r)"
    assert (lookup.probes, lookup.rows_out) == (3, 2)
    assert join.rows_in == scan.rows_out + lookup.rows_out
    assert any(
        line.strip().startswith("PrimaryKeyLookup(r1 AS r) (in=0 out=2")
        and line.endswith("probes=3)")
        for line in report.lines
    )
    # The cached plan comes back uninstrumented: counts do not pile up.
    cached = database.analyze(sql)
    assert cached.cached
    assert cached.root.children[0].children[1].probes == 3


@pytest.mark.parametrize("sql, why", [
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.a",
     "left driven by a SeqScan"),
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.a WHERE l.a > 0",
     "left filtered, but still a SeqScan"),
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.a "
     "WHERE l.k = 0 AND r.v > 5",
     "right with a pushed predicate"),
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.a "
     "WHERE l.k = 0 AND r.a = 1",
     "right with its own primary-key access"),
    ("SELECT l.id, r.v FROM l JOIN r2 AS r ON l.a = r.a WHERE l.k = 0",
     "join covering part of a composite primary key"),
    ("SELECT l.id, r.v FROM l JOIN r2 AS r ON l.a = r.a AND l.b = r.a "
     "WHERE l.k = 0",
     "one key column twice instead of the whole key"),
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.a + 0 WHERE l.k = 0",
     "non-column join expression on the right"),
    ("SELECT l.id, r.v FROM l JOIN r1 AS r ON l.a = r.v WHERE l.k = 0",
     "join on a column that is not the key"),
    ("SELECT l.id, r.v FROM l JOIN (SELECT a, v FROM r1 WHERE v >= 0) AS r "
     "ON l.a = r.a WHERE l.k = 0",
     "right is a sub-select, not a base table"),
])
def test_every_other_join_keeps_the_hash_join(database, sql, why):
    plan = _explain(database, sql)
    assert "HashJoin(" in plan and "LookupJoin" not in plan, (why, plan)


def test_a_lookup_join_can_drive_the_next_one(database):
    sql = (
        "SELECT l.id, r.v, s.v FROM l JOIN r1 AS r ON l.a = r.a "
        "LEFT JOIN r2 AS s ON r.a = s.a AND l.b = s.b WHERE l.k = 0 "
        "ORDER BY l.id"
    )
    plan = _explain(database, sql)
    assert plan.count("LookupJoin(") == 2 and "HashJoin" not in plan
    assert database.query(sql).rows == [(0, 10, 10), (4, 10, 11)]
