"""Dialect rendering: literals, round trips, and parameter alignment."""

import datetime
import json

import repro.testkit.generators as g
from repro.backends.dialects import SQLITE_DIALECT, get_dialect
from repro.minidb.plancache import parsed_statement
from repro.testkit.dialects import (
    MINIDB,
    SQLITE,
    render_case,
    render_expr,
    rendered_from_dict,
    rendered_to_dict,
)


def literal_sql(value, dialect):
    """A testkit literal as the renderer spells it in ``dialect``."""
    return render_expr(g.Lit(value, "any"), dialect, [])


def bind_value(value, dialect):
    return get_dialect(dialect).bind(value)


class TestLiterals:
    def test_null(self):
        assert literal_sql(None, MINIDB) == "NULL"
        assert literal_sql(None, SQLITE) == "NULL"

    def test_bool_dialect_split(self):
        assert literal_sql(True, MINIDB) == "TRUE"
        assert literal_sql(True, SQLITE) == "1"
        assert literal_sql(False, SQLITE) == "0"

    def test_date_dialect_split(self):
        day = datetime.date(2008, 7, 3)
        assert literal_sql(day, MINIDB) == "DATE '2008-07-03'"
        assert literal_sql(day, SQLITE) == "'2008-07-03'"

    def test_string_quote_doubling(self):
        assert literal_sql("it's", MINIDB) == "'it''s'"

    def test_bind_value_coercions(self):
        day = datetime.date(2008, 7, 3)
        assert bind_value(day, SQLITE) == "2008-07-03"
        assert bind_value(True, SQLITE) == 1
        assert bind_value(day, MINIDB) == day


class TestMinidbRoundTrip:
    def test_every_rendered_query_parses_in_minidb(self):
        for seed in range(30):
            rendered = render_case(g.CaseGenerator(seed).case())
            for op in rendered.minidb.ops:
                if op.kind != "query":
                    continue
                statement, canonical, param_count = parsed_statement(op.sql)
                assert statement is not None
                assert param_count == len(op.params), op.sql
                if canonical is not None:
                    # The canonical rendering must itself re-parse to the
                    # same canonical text (a fixpoint).
                    again = parsed_statement(canonical)[1]
                    assert again == canonical


class TestParamAlignment:
    def test_both_dialects_bind_identical_param_streams(self):
        """`?` placeholders are numbered by text order; both renderings
        must collect the same values in the same order."""
        seen_params = False
        for seed in range(60):
            rendered = render_case(g.CaseGenerator(seed).case())
            for mine, theirs in zip(rendered.minidb.ops, rendered.sqlite.ops):
                assert mine.kind == theirs.kind
                assert len(mine.params) == len(theirs.params)
                assert mine.sql.count("?") == len(mine.params)
                assert theirs.sql.count("?") == len(theirs.params)
                # Same logical values on both sides (binding differs).
                assert [SQLITE_DIALECT.bind(v) for v in mine.params] == [
                    SQLITE_DIALECT.bind(v) for v in theirs.params
                ]
                if mine.params:
                    seen_params = True
        assert seen_params, "no parameterized query in 60 seeds"


class TestCorpusSerialization:
    def test_rendered_round_trips_through_json(self):
        rendered = render_case(g.CaseGenerator(77).case())
        payload = rendered_to_dict(rendered, name="x", note="y")
        # Must actually be JSON-serializable (dates become tagged dicts).
        data = json.loads(json.dumps(payload))
        loaded = rendered_from_dict(data)
        assert loaded.query_count == rendered.query_count
        assert loaded.minidb.create == rendered.minidb.create
        assert [op.sql for op in loaded.sqlite.ops] == [
            op.sql for op in rendered.sqlite.ops
        ]
        for before, after in zip(rendered.minidb.ops, loaded.minidb.ops):
            assert before.params == after.params
