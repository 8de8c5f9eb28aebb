"""LIMIT/OFFSET edge cases.

The audited contract (matching sqlite3):

* ``LIMIT 0`` returns no rows — and pulls nothing from the child;
* ``OFFSET`` past the end returns no rows (not an error);
* ``OFFSET`` without ``LIMIT`` skips and returns the rest;
* negative ``LIMIT``/``OFFSET`` are *syntax* errors (the grammar only
  accepts integer literals);
* the same holds for DISTINCT queries, where truncation applies to the
  deduplicated stream (``post_limit``/``post_offset``).
"""

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(5):
        database.execute("INSERT INTO t VALUES (?, ?)", [i, (i % 2) * 10])
    return database


EDGE_CASES = [
    ("SELECT id FROM t ORDER BY id LIMIT 0", []),
    ("SELECT id FROM t ORDER BY id LIMIT 0 OFFSET 2", []),
    ("SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 10", []),
    ("SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 5", []),
    ("SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 4", [(4,)]),
    ("SELECT id FROM t ORDER BY id LIMIT 10 OFFSET 3", [(3,), (4,)]),
    ("SELECT id FROM t ORDER BY id OFFSET 2", [(2,), (3,), (4,)]),
    ("SELECT id FROM t ORDER BY id OFFSET 9", []),
    ("SELECT id FROM t ORDER BY id LIMIT 99", [(0,), (1,), (2,), (3,), (4,)]),
    ("SELECT DISTINCT v FROM t ORDER BY v LIMIT 0", []),
    ("SELECT DISTINCT v FROM t ORDER BY v LIMIT 2 OFFSET 9", []),
    ("SELECT DISTINCT v FROM t ORDER BY v LIMIT 1 OFFSET 1", [(10,)]),
    ("SELECT DISTINCT v FROM t ORDER BY v OFFSET 1", [(10,)]),
]


@pytest.mark.parametrize("sql,expected", EDGE_CASES,
                         ids=[sql for sql, _ in EDGE_CASES])
def test_edge_case_rows(db, sql, expected):
    assert db.query(sql).rows == expected


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id FROM t LIMIT -1",
        "SELECT id FROM t LIMIT 2 OFFSET -1",
        "SELECT id FROM t LIMIT 1.5",
        "SELECT DISTINCT v FROM t LIMIT -3",
    ],
)
def test_negative_or_fractional_bounds_are_syntax_errors(db, sql):
    with pytest.raises(SQLSyntaxError):
        db.query(sql)


def test_limit_zero_never_pulls_the_child(db):
    """LIMIT 0 must not evaluate child rows — a row whose predicate
    would divide by zero proves the child was never pulled.
    """
    db.execute("CREATE TABLE z (a INT)")
    db.execute("INSERT INTO z VALUES (1)")
    sql = "SELECT a FROM z WHERE 1 / 0 > 0 ORDER BY a LIMIT 0"
    assert db.query(sql).rows == []


def test_fuzzer_now_draws_offsets_past_the_table(monkeypatch):
    """The generator's OFFSET domain must exceed Capabilities.max_rows."""
    from repro.testkit.generators import CaseGenerator, Capabilities

    offsets = set()
    for seed in range(120):
        case = CaseGenerator(seed).case()
        for op in case.ops:
            query = getattr(op, "query", None)
            stack = [query] if query is not None else []
            while stack:
                node = stack.pop()
                offset = getattr(node, "offset", None)
                if offset is not None:
                    offsets.add(offset)
                for attribute in ("source", "subquery"):
                    inner = getattr(node, attribute, None)
                    if inner is not None:
                        stack.append(inner)
    assert offsets, "no OFFSET was generated at all"
    assert max(offsets) > Capabilities.max_rows
