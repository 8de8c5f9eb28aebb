"""Statement-level AST nodes produced by the SQL parser.

Scalar expressions reuse :mod:`repro.minidb.expressions`; this module only
adds the statement shells (SELECT/INSERT/UPDATE/DELETE/DDL) and clause
containers.  SELECT and INSERT statements and their clauses render
themselves back to SQL (``to_sql``), which the round-trip tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.minidb.expressions import Expression
from repro.minidb.schema import ForeignKey
from repro.minidb.types import DataType


@dataclass
class SelectItem:
    """One select-list entry: an expression, ``*``, or ``alias.*``."""

    expression: Optional[Expression]  # None for star items
    alias: Optional[str] = None
    star_qualifier: Optional[str] = None  # set for alias.*; "" for bare *

    @property
    def is_star(self) -> bool:
        return self.expression is None

    def to_sql(self) -> str:
        if self.is_star:
            if self.star_qualifier:
                return f"{self.star_qualifier}.*"
            return "*"
        text = self.expression.to_sql()
        if self.alias:
            text += f" AS {self.alias}"
        return text


@dataclass
class TableRef:
    """A base-table reference with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass
class SubqueryRef:
    """A parenthesised SELECT in FROM, always aliased."""

    query: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) AS {self.alias}"


FromItem = Union[TableRef, SubqueryRef]


@dataclass
class JoinClause:
    """One JOIN ... ON ... attached to the leading FROM item."""

    join_type: str  # INNER | LEFT | CROSS
    table: FromItem
    condition: Optional[Expression]  # None only for CROSS

    def to_sql(self) -> str:
        if self.join_type == "CROSS":
            return f"CROSS JOIN {self.table.to_sql()}"
        text = f"{self.join_type} JOIN {self.table.to_sql()}"
        if self.condition is not None:
            text += f" ON {self.condition.to_sql()}"
        return text


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False

    def to_sql(self) -> str:
        return self.expression.to_sql() + (" DESC" if self.descending else " ASC")


@dataclass
class AggregateCall:
    """A parsed aggregate invocation inside a select list or HAVING.

    ``argument`` is None for COUNT(*).  The parser replaces aggregate calls
    in expressions with :class:`AggregateRef` placeholders referencing these.
    """

    name: str
    argument: Optional[Expression]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = "*" if self.argument is None else self.argument.to_sql()
        if self.distinct:
            inner = "DISTINCT " + inner
        return f"{self.name.upper()}({inner})"


class AggregateRef(Expression):
    """Placeholder expression resolving to a computed aggregate value.

    The executor binds ``__agg_<index>`` keys into the environment after
    accumulation, letting post-aggregation expressions (e.g. HAVING
    ``COUNT(*) > 2`` or ``AVG(x) + 1``) evaluate uniformly.
    """

    def __init__(self, index: int, call: AggregateCall) -> None:
        self.index = index
        self.call = call
        self.key = f"__agg_{index}"

    def evaluate(self, env):
        return env[self.key]

    def to_sql(self) -> str:
        return self.call.to_sql()

    def _collect_columns(self, out) -> None:
        if self.call.argument is not None:
            self.call.argument._collect_columns(out)


@dataclass
class SelectStatement:
    items: List[SelectItem]
    from_item: Optional[FromItem]
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    aggregates: List[AggregateCall] = field(default_factory=list)
    #: index of this statement's first ``?`` placeholder.  Parameters are
    #: numbered left-to-right across the whole parsed statement, so a
    #: UNION arm's parameters start where the previous arm's ended; the
    #: plan cache keys on (canonical SQL, parameter_base) because the same
    #: text carries different parameter numbers at different bases.
    parameter_base: int = 0

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        if self.from_item is not None:
            parts.append("FROM " + self.from_item.to_sql())
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(expr.to_sql() for expr in self.group_by)
            )
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(item.to_sql() for item in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class UnionStatement:
    """UNION / UNION ALL of two or more selects."""

    parts: List[SelectStatement]
    all: bool = False
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


@dataclass
class InsertStatement:
    """INSERT ... VALUES (rows) or INSERT ... SELECT (select not None)."""

    table: str
    columns: Optional[List[str]]
    rows: List[List[Expression]] = field(default_factory=list)
    select: Optional["SelectStatement"] = None

    def to_sql(self) -> str:
        columns = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.select is not None:
            return f"INSERT INTO {self.table}{columns} {self.select.to_sql()}"
        rows = ", ".join(
            "(" + ", ".join(value.to_sql() for value in row) + ")"
            for row in self.rows
        )
        return f"INSERT INTO {self.table}{columns} VALUES {rows}"


@dataclass
class UpdateStatement:
    table: str
    assignments: List[Tuple[str, Expression]]
    where: Optional[Expression] = None


@dataclass
class DeleteStatement:
    table: str
    where: Optional[Expression] = None


@dataclass
class ColumnDef:
    name: str
    dtype: DataType
    not_null: bool = False
    primary_key: bool = False  # inline PRIMARY KEY marker


@dataclass
class CreateTableStatement:
    name: str
    columns: List[ColumnDef]
    primary_key: Tuple[str, ...] = ()
    unique_keys: Tuple[Tuple[str, ...], ...] = ()
    foreign_keys: Tuple[ForeignKey, ...] = ()
    if_not_exists: bool = False


@dataclass
class CreateIndexStatement:
    name: str
    table: str
    columns: Tuple[str, ...]
    kind: str = "hash"  # hash | sorted


@dataclass
class DropTableStatement:
    name: str
    if_exists: bool = False


@dataclass
class DropIndexStatement:
    name: str


@dataclass
class CreateViewStatement:
    """CREATE VIEW name AS <select>: a named, unmaterialized query."""

    name: str
    query: "SelectStatement"


@dataclass
class DropViewStatement:
    name: str
    if_exists: bool = False


@dataclass
class ExplainStatement:
    """EXPLAIN [ANALYZE] <select>: renders the (possibly cached) plan.

    With ``analyze`` the query is actually executed and every plan node
    is annotated with rows-in/rows-out and wall time.
    """

    query: "SelectStatement"
    analyze: bool = False


Statement = Union[
    SelectStatement,
    UnionStatement,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    CreateTableStatement,
    CreateIndexStatement,
    CreateViewStatement,
    DropTableStatement,
    DropIndexStatement,
    DropViewStatement,
    ExplainStatement,
]
