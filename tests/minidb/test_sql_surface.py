"""Wide end-to-end coverage of the SQL surface, plus round-trip properties."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.minidb import Database
from repro.minidb.expressions import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.minidb.functions import FunctionRegistry
from repro.minidb.sql.parser import parse_expression


@pytest.fixture()
def db():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE events (
          id INTEGER PRIMARY KEY,
          label TEXT,
          amount FLOAT,
          flag BOOLEAN,
          happened DATE
        );
        INSERT INTO events VALUES
          (1, 'alpha', 10.5, TRUE, '2008-01-15'),
          (2, 'beta', -3.25, FALSE, '2008-06-30'),
          (3, 'gamma', NULL, TRUE, '2008-12-01'),
          (4, NULL, 7.0, NULL, NULL),
          (5, 'alpha beta', 0.0, FALSE, '2009-01-04');
        """
    )
    return database


class TestScalarSurface:
    def test_case_in_select(self, db):
        result = db.query(
            "SELECT id, CASE WHEN amount > 5 THEN 'big' "
            "WHEN amount >= 0 THEN 'small' ELSE 'negative' END AS size "
            "FROM events ORDER BY id"
        )
        # id=3 has NULL amount: both WHEN conditions are UNKNOWN, so the
        # ELSE branch applies (standard SQL CASE semantics).
        assert result.column("size") == [
            "big", "negative", "negative", "big", "small",
        ]

    def test_functions_in_where(self, db):
        result = db.query(
            "SELECT id FROM events WHERE UPPER(label) = 'ALPHA'"
        )
        assert result.column("id") == [1]

    def test_date_comparison(self, db):
        result = db.query(
            "SELECT id FROM events WHERE happened >= DATE '2008-06-01' "
            "ORDER BY id"
        )
        assert result.column("id") == [2, 3, 5]

    def test_year_function(self, db):
        result = db.query(
            "SELECT id FROM events WHERE YEAR(happened) = 2009"
        )
        assert result.column("id") == [5]

    def test_boolean_column_predicates(self, db):
        assert db.query(
            "SELECT COUNT(*) FROM events WHERE flag"
        ).scalar() == 2
        assert db.query(
            "SELECT COUNT(*) FROM events WHERE NOT flag"
        ).scalar() == 2
        assert db.query(
            "SELECT COUNT(*) FROM events WHERE flag IS NULL"
        ).scalar() == 1

    def test_between_and_in(self, db):
        result = db.query(
            "SELECT id FROM events WHERE amount BETWEEN 0 AND 10 ORDER BY id"
        )
        assert result.column("id") == [4, 5]
        result = db.query("SELECT id FROM events WHERE id IN (2, 4, 9)")
        assert sorted(result.column("id")) == [2, 4]

    def test_ilike(self, db):
        result = db.query("SELECT id FROM events WHERE label ILIKE 'ALPHA%'")
        assert sorted(result.column("id")) == [1, 5]

    def test_concat_operator(self, db):
        value = db.query(
            "SELECT label || '-' || id FROM events WHERE id = 1"
        ).scalar()
        assert value == "alpha-1"

    def test_coalesce_nullif(self, db):
        result = db.query(
            "SELECT COALESCE(label, '<none>') AS shown FROM events ORDER BY id"
        )
        assert result.column("shown")[3] == "<none>"
        value = db.query(
            "SELECT NULLIF(label, 'alpha') FROM events WHERE id = 1"
        ).scalar()
        assert value is None

    def test_arithmetic_precedence(self, db):
        assert db.query("SELECT 2 + 3 * 4").scalar() == 14
        assert db.query("SELECT (2 + 3) * 4").scalar() == 20
        assert db.query("SELECT -2 * 3").scalar() == -6
        assert db.query("SELECT 7 % 3").scalar() == 1

    def test_null_arithmetic_propagates(self, db):
        result = db.query("SELECT amount + 1 FROM events WHERE id = 3")
        assert result.scalar() is None

    def test_order_by_expression(self, db):
        result = db.query(
            "SELECT id FROM events WHERE amount IS NOT NULL "
            "ORDER BY ABS(amount) DESC"
        )
        assert result.column("id")[0] == 1  # |10.5| largest


class TestAggregateSurface:
    def test_aggregate_of_expression(self, db):
        value = db.query(
            "SELECT SUM(amount * 2) FROM events WHERE amount > 0"
        ).scalar()
        assert value == pytest.approx(35.0)

    def test_case_inside_aggregate(self, db):
        value = db.query(
            "SELECT SUM(CASE WHEN flag THEN 1 ELSE 0 END) FROM events "
            "WHERE flag IS NOT NULL"
        ).scalar()
        assert value == 2

    def test_having_with_expression(self, db):
        db.execute(
            "INSERT INTO events VALUES (6, 'alpha', 2.0, TRUE, '2008-02-02')"
        )
        result = db.query(
            "SELECT label, COUNT(*) AS n FROM events "
            "WHERE label IS NOT NULL GROUP BY label "
            "HAVING COUNT(*) * 2 >= 4 ORDER BY label"
        )
        assert result.rows == [("alpha", 2)]

    def test_group_by_boolean(self, db):
        result = db.query(
            "SELECT flag, COUNT(*) FROM events GROUP BY flag ORDER BY flag"
        )
        # NULL group first (NULLs sort first).
        assert result.rows == [(None, 1), (False, 2), (True, 2)]

    def test_min_max_on_dates(self, db):
        low, high = db.query(
            "SELECT MIN(happened), MAX(happened) FROM events"
        ).rows[0]
        assert low == datetime.date(2008, 1, 15)
        assert high == datetime.date(2009, 1, 4)

    def test_avg_distinct(self, db):
        db.execute(
            "INSERT INTO events VALUES (7, 'x', 7.0, TRUE, NULL)"
        )
        # amounts: 10.5, -3.25, 7.0(x2), 0.0 -> distinct avg
        value = db.query("SELECT AVG(DISTINCT amount) FROM events").scalar()
        assert value == pytest.approx((10.5 - 3.25 + 7.0 + 0.0) / 4)


# ---------------------------------------------------------------------------
# round-trip property: expression -> SQL text -> parse -> same value
# ---------------------------------------------------------------------------

_FUNCTIONS = FunctionRegistry()
_ENV = {
    "__functions__": _FUNCTIONS,
    "a": 3,
    "b": -1.5,
    "c": None,
    "s": "alpha",
}

literal_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-99, max_value=99),
    st.floats(min_value=-50, max_value=50, allow_nan=False).map(
        lambda v: round(v, 3)
    ),
    st.text(alphabet="ab c'", max_size=6),
)

column_names = st.sampled_from(["a", "b", "c", "s"])


def _leaf() -> st.SearchStrategy[Expression]:
    return st.one_of(
        literal_values.map(Literal),
        column_names.map(ColumnRef),
    )


def _numeric_leaf() -> st.SearchStrategy[Expression]:
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Literal),
        st.sampled_from(["a", "b"]).map(ColumnRef),
    )


def _expressions(depth: int = 2) -> st.SearchStrategy[Expression]:
    if depth == 0:
        return _leaf()
    sub = _expressions(depth - 1)
    numeric = _numeric_leaf()
    return st.one_of(
        _leaf(),
        st.tuples(st.sampled_from(["+", "-", "*"]), numeric, numeric).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["=", "<>", "<", ">="]), numeric, numeric).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        sub.map(lambda e: IsNull(e)),
        sub.map(lambda e: IsNull(e, negated=True)),
        st.tuples(numeric, st.lists(numeric, min_size=1, max_size=3)).map(
            lambda t: InList(t[0], t[1])
        ),
        st.tuples(numeric, numeric, numeric).map(
            lambda t: Between(t[0], t[1], t[2])
        ),
    )


class TestExpressionRoundTrip:
    @given(_expressions(depth=2))
    def test_to_sql_parse_evaluate_identical(self, expression):
        """expr.to_sql() parses back to an expression with the same value."""
        text = expression.to_sql()
        reparsed = parse_expression(text)
        original = _evaluate(expression)
        again = _evaluate(reparsed)
        if isinstance(original, float) and isinstance(again, float):
            assert original == pytest.approx(again)
        else:
            assert original == again

    @given(_expressions(depth=2))
    def test_to_sql_stabilizes_after_one_parse(self, expression):
        """One parse normalizes the rendering to a fixpoint.

        (A raw ``Literal(-1)`` renders as ``-1`` but parses as unary
        minus, which renders as ``(-1)`` — after that, stable.)
        """
        normalized = parse_expression(expression.to_sql()).to_sql()
        assert parse_expression(normalized).to_sql() == normalized

    def test_repr_shows_the_sql(self):
        """What hypothesis prints for a falsifying expression."""
        assert repr(parse_expression("a + 1")) == "BinaryOp((a + 1))"


def _evaluate(expression):
    from repro.errors import ExecutionError

    try:
        return expression.evaluate(dict(_ENV))
    except ExecutionError as exc:
        return ("error", type(exc).__name__)
