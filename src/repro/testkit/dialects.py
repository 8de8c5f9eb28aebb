"""Render testkit ASTs to the minidb and sqlite dialects.

One AST, two renderings.  They agree on everything except the handful of
places the engines genuinely differ — division, boolean and date
literals, LEAST / GREATEST, ``CREATE INDEX ... USING`` — and every one of
those is spelled by :data:`~repro.backends.dialects.MINIDB_DIALECT` /
:data:`~repro.backends.dialects.SQLITE_DIALECT`, the table the FlexRecs
compiler renders through too.  Bound parameters go through the same
dialect's ``bind`` before they reach a driver.

``?`` parameters are numbered by **text position** in both engines, so
each renderer appends a parameter's value to its collection list at the
moment it emits the placeholder; clauses are rendered strictly in final
text order to keep the two lists aligned.

The rendered form (``RenderedCase``) is also the corpus-seed format:
serializing rendered SQL instead of the AST makes committed seeds immune
to future generator drift.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.dialects import get_dialect
from repro.testkit import generators as g

__all__ = [
    "RenderedOp",
    "RenderedScript",
    "RenderedCase",
    "render_case",
    "render_op",
    "render_query",
    "render_expr",
    "create_table_sql",
    "create_index_sql",
    "rendered_to_dict",
    "rendered_from_dict",
]

#: the registered names of the two engines' dialects
MINIDB = "minidb"
SQLITE = "sqlite"

_AGG_NAMES = {
    "count": "COUNT",
    "count_star": "COUNT",
    "sum": "SUM",
    "avg": "AVG",
    "min": "MIN",
    "max": "MAX",
}


@dataclass(frozen=True)
class RenderedOp:
    kind: str  # query | insert | update | delete | ddl
    sql: str
    params: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class RenderedScript:
    create: Tuple[str, ...]
    ops: Tuple[RenderedOp, ...]


@dataclass(frozen=True)
class RenderedCase:
    minidb: RenderedScript
    sqlite: RenderedScript
    query_count: int


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def render_expr(expr: Any, dialect: str, params: List[Any]) -> str:
    if isinstance(expr, g.Col):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, g.Lit):
        return get_dialect(dialect).literal(expr.value)
    if isinstance(expr, g.Param):
        params.append(expr.value)
        return "?"
    if isinstance(expr, g.Arith):
        left = render_expr(expr.left, dialect, params)
        right = render_expr(expr.right, dialect, params)
        if expr.op == "/":
            return get_dialect(dialect).true_div(left, right)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, g.Compare):
        left = render_expr(expr.left, dialect, params)
        right = render_expr(expr.right, dialect, params)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, g.Logic):
        joined = f" {expr.op} ".join(
            render_expr(item, dialect, params) for item in expr.items
        )
        return f"({joined})"
    if isinstance(expr, g.NotE):
        return f"(NOT {render_expr(expr.operand, dialect, params)})"
    if isinstance(expr, g.IsNull):
        clause = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand, dialect, params)} {clause})"
    if isinstance(expr, g.InList):
        operand = render_expr(expr.operand, dialect, params)
        items = ", ".join(
            render_expr(item, dialect, params) for item in expr.items
        )
        negation = "NOT " if expr.negated else ""
        return f"({operand} {negation}IN ({items}))"
    if isinstance(expr, g.Between):
        operand = render_expr(expr.operand, dialect, params)
        low = render_expr(expr.low, dialect, params)
        high = render_expr(expr.high, dialect, params)
        negation = "NOT " if expr.negated else ""
        return f"({operand} {negation}BETWEEN {low} AND {high})"
    if isinstance(expr, g.LikeE):
        operand = render_expr(expr.operand, dialect, params)
        negation = "NOT " if expr.negated else ""
        return f"({operand} {negation}LIKE '{expr.pattern}')"
    if isinstance(expr, g.Func):
        args = [render_expr(arg, dialect, params) for arg in expr.args]
        return get_dialect(dialect).func(expr.name, *args)
    if isinstance(expr, g.CaseE):
        condition = render_expr(expr.condition, dialect, params)
        then = render_expr(expr.then, dialect, params)
        if expr.otherwise is None:
            return f"(CASE WHEN {condition} THEN {then} END)"
        otherwise = render_expr(expr.otherwise, dialect, params)
        return f"(CASE WHEN {condition} THEN {then} ELSE {otherwise} END)"
    if isinstance(expr, g.Agg):
        name = _AGG_NAMES[expr.func]
        if expr.func == "count_star":
            return f"{name}(*)"
        arg = render_expr(expr.arg, dialect, params)
        if expr.distinct:
            return f"{name}(DISTINCT {arg})"
        return f"{name}({arg})"
    if isinstance(expr, g.InSubquery):
        operand = render_expr(expr.operand, dialect, params)
        inner = render_query(expr.query, dialect, params)
        negation = "NOT " if expr.negated else ""
        return f"({operand} {negation}IN ({inner}))"
    if isinstance(expr, g.Exists):
        inner = render_query(expr.query, dialect, params)
        negation = "NOT " if expr.negated else ""
        return f"({negation}EXISTS ({inner}))"
    raise TypeError(f"unrenderable expression: {expr!r}")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _render_source(source: g.Source, dialect: str,
                   params: List[Any]) -> str:
    if source.body is not None:
        return f"({render_query(source.body, dialect, params)}) AS {source.alias}"
    if source.derived:
        inner = f"SELECT * FROM {source.table}"
        if source.predicate is not None:
            inner += f" WHERE {render_expr(source.predicate, dialect, params)}"
        return f"({inner}) AS {source.alias}"
    if source.alias:
        return f"{source.table} AS {source.alias}"
    return source.table


def render_query(query: g.Query, dialect: str,
                 params: Optional[List[Any]] = None) -> str:
    # Clauses are rendered in final text order so the shared ``params``
    # list matches the left-to-right numbering of ``?`` in both engines.
    if params is None:
        params = []
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    if query.items is None:
        parts.append("*")
    else:
        rendered_items = []
        for expr, alias in query.items:
            text = render_expr(expr, dialect, params)
            if alias:
                text += f" AS {alias}"
            rendered_items.append(text)
        parts.append(", ".join(rendered_items))
    parts.append("FROM")
    parts.append(_render_source(query.source, dialect, params))
    for join in query.joins:
        keyword = {"INNER": "INNER JOIN", "LEFT": "LEFT JOIN",
                   "CROSS": "CROSS JOIN"}[join.kind]
        clause = f"{keyword} {_render_source(join.source, dialect, params)}"
        if join.condition is not None:
            clause += f" ON {render_expr(join.condition, dialect, params)}"
        parts.append(clause)
    if query.where is not None:
        parts.append(f"WHERE {render_expr(query.where, dialect, params)}")
    if query.group_by:
        keys = ", ".join(
            render_expr(key, dialect, params) for key in query.group_by
        )
        parts.append(f"GROUP BY {keys}")
    if query.having is not None:
        parts.append(f"HAVING {render_expr(query.having, dialect, params)}")
    if query.order_by:
        terms = ", ".join(
            render_expr(term.expr, dialect, params)
            + (" DESC" if term.desc else " ASC")
            for term in query.order_by
        )
        parts.append(f"ORDER BY {terms}")
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
        if query.offset is not None:
            parts.append(f"OFFSET {query.offset}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# DDL and DML
# ---------------------------------------------------------------------------


def create_table_sql(table: g.TableSpec) -> str:
    """Identical text for both dialects: sqlite accepts minidb's type
    names (FLOAT -> REAL affinity, DATE/BOOLEAN -> NUMERIC, which store
    our ISO strings and 0/1 ints unchanged)."""
    pieces = []
    for column in table.columns:
        text = f"{column.name} {column.dtype}"
        if column.name == "id":
            text += " PRIMARY KEY"
        elif not column.nullable:
            text += " NOT NULL"
        pieces.append(text)
    return f"CREATE TABLE {table.name} ({', '.join(pieces)})"


def create_index_sql(table: str, index: g.IndexSpec, dialect: str) -> str:
    columns = ", ".join(index.columns)
    sql = f"CREATE INDEX {index.name} ON {table} ({columns})"
    if get_dialect(dialect).index_using_clause:
        sql += f" USING {index.kind}"
    return sql


def _insert_sql(table: str, values: Tuple[Any, ...], dialect: str) -> str:
    literal = get_dialect(dialect).literal
    rendered = ", ".join(literal(value) for value in values)
    return f"INSERT INTO {table} VALUES ({rendered})"


def render_op(op: g.Op, dialect: str) -> List[RenderedOp]:
    if isinstance(op, g.QueryOp):
        params: List[Any] = []
        sql = render_query(op.query, dialect, params)
        return [RenderedOp("query", sql, tuple(params))]
    if isinstance(op, g.InsertOp):
        return [RenderedOp("insert", _insert_sql(op.table, op.values,
                                                 dialect))]
    if isinstance(op, g.UpdateOp):
        params = []
        sets = ", ".join(
            f"{column} = {render_expr(expr, dialect, params)}"
            for column, expr in op.sets
        )
        sql = f"UPDATE {op.table} SET {sets}"
        if op.where is not None:
            sql += f" WHERE {render_expr(op.where, dialect, params)}"
        return [RenderedOp("update", sql, tuple(params))]
    if isinstance(op, g.DeleteOp):
        params = []
        sql = f"DELETE FROM {op.table}"
        if op.where is not None:
            sql += f" WHERE {render_expr(op.where, dialect, params)}"
        return [RenderedOp("delete", sql, tuple(params))]
    if isinstance(op, g.CreateIndexOp):
        return [
            RenderedOp("ddl", create_index_sql(op.table, op.index, dialect))
        ]
    if isinstance(op, g.DropIndexOp):
        # Same text in both dialects.
        return [RenderedOp("ddl", f"DROP INDEX {op.name}")]
    if isinstance(op, g.DropCreateOp):
        out = [
            RenderedOp("ddl", f"DROP TABLE {op.table.name}"),
            RenderedOp("ddl", create_table_sql(op.table)),
        ]
        out.extend(
            RenderedOp(
                "ddl", create_index_sql(op.table.name, index, dialect)
            )
            for index in op.table.indexes
        )
        out.extend(
            RenderedOp("insert", _insert_sql(op.table.name, row, dialect))
            for row in op.rows
        )
        return out
    raise TypeError(f"unrenderable op: {op!r}")


def _render_script(case: g.Case, dialect: str) -> RenderedScript:
    create: List[str] = []
    for table in case.tables:
        create.append(create_table_sql(table))
        create.extend(
            create_index_sql(table.name, index, dialect)
            for index in table.indexes
        )
    for table in case.tables:
        create.extend(
            _insert_sql(table.name, row, dialect)
            for row in case.rows.get(table.name, ())
        )
    ops: List[RenderedOp] = []
    for op in case.ops:
        ops.extend(render_op(op, dialect))
    return RenderedScript(tuple(create), tuple(ops))


def render_case(case: g.Case) -> RenderedCase:
    return RenderedCase(
        minidb=_render_script(case, MINIDB),
        sqlite=_render_script(case, SQLITE),
        query_count=case.query_count,
    )


# ---------------------------------------------------------------------------
# corpus-seed (de)serialization
# ---------------------------------------------------------------------------


def _encode_param(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def _decode_param(value: Any) -> Any:
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def _script_to_dict(script: RenderedScript) -> Dict[str, Any]:
    return {
        "create": list(script.create),
        "ops": [
            {
                "kind": op.kind,
                "sql": op.sql,
                "params": [_encode_param(value) for value in op.params],
            }
            for op in script.ops
        ],
    }


def _script_from_dict(data: Dict[str, Any]) -> RenderedScript:
    return RenderedScript(
        create=tuple(data["create"]),
        ops=tuple(
            RenderedOp(
                kind=op["kind"],
                sql=op["sql"],
                params=tuple(
                    _decode_param(value) for value in op.get("params", [])
                ),
            )
            for op in data["ops"]
        ),
    )


def rendered_to_dict(rendered: RenderedCase, **meta: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = dict(meta)
    payload["query_count"] = rendered.query_count
    payload["minidb"] = _script_to_dict(rendered.minidb)
    payload["sqlite"] = _script_to_dict(rendered.sqlite)
    return payload


def rendered_from_dict(data: Dict[str, Any]) -> RenderedCase:
    return RenderedCase(
        minidb=_script_from_dict(data["minidb"]),
        sqlite=_script_from_dict(data["sqlite"]),
        query_count=int(data.get("query_count", 0)),
    )
