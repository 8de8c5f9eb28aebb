"""Seeded random schema/data/query generation for differential testing.

The AST here is deliberately *not* minidb's internal AST: the testkit may
only express what **both** engines agree on, and that shared dialect is
narrower than either engine's full surface.  The :class:`Capabilities`
mask encodes the boundary; the reasons live next to each knob.

Cross-engine semantics baked into the generator (violating any of these
turns a healthy engine pair into false-positive divergences):

* ``/`` is Python true division in minidb and integer division in
  sqlite, so the sqlite renderer emits ``(l * 1.0 / r)``; generated
  denominators are nonzero literals because minidb raises on division by
  zero while sqlite yields NULL.
* ``LIKE`` is case-sensitive in minidb and case-insensitive in sqlite,
  so all generated text data and patterns are lowercase ASCII.
* FLOAT data is restricted to exact quarters (``n / 4.0``) and
  SUM/AVG arguments to plain column refs, so float aggregation is exact
  and therefore independent of scan order.
* Text comparisons rely on bytewise collation agreement, which holds
  for lowercase ASCII only.
* ``%``, ``ROUND``, ``STDDEV``, ``GROUP_CONCAT``, ``ILIKE``,
  ``YEAR``/``MONTH``, and ``||`` on non-TEXT are outside the shared
  dialect (sign conventions, rounding modes, and coercions differ).
* LIMIT/OFFSET require a totalizing ORDER BY (primary keys of every
  source, all group keys, or all DISTINCT outputs) — otherwise the two
  engines may legitimately return different prefixes.
* Parameters (``?``) appear only in WHERE clauses, never inside
  IN/EXISTS subqueries (minidb rejects those at plan time).

Everything is driven by one ``random.Random(seed)``, so a case is fully
reproducible from its seed.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "INTEGER",
    "FLOAT",
    "TEXT",
    "BOOLEAN",
    "DATE",
    "ColumnSpec",
    "IndexSpec",
    "TableSpec",
    "Col",
    "Lit",
    "Param",
    "Arith",
    "Compare",
    "Logic",
    "NotE",
    "IsNull",
    "InList",
    "Between",
    "LikeE",
    "Func",
    "CaseE",
    "Agg",
    "InSubquery",
    "Exists",
    "Source",
    "Join",
    "OrderTerm",
    "Query",
    "QueryOp",
    "InsertOp",
    "UpdateOp",
    "DeleteOp",
    "CreateIndexOp",
    "DropIndexOp",
    "DropCreateOp",
    "Case",
    "Capabilities",
    "CaseGenerator",
    "referenced_tables",
    "with_literals",
    "with_parameters",
]

INTEGER = "INTEGER"
FLOAT = "FLOAT"
TEXT = "TEXT"
BOOLEAN = "BOOLEAN"
DATE = "DATE"

NUMERIC = (INTEGER, FLOAT)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    dtype: str
    nullable: bool = True


@dataclass(frozen=True)
class IndexSpec:
    name: str
    columns: Tuple[str, ...]  # single- or multi-column
    kind: str  # "hash" | "sorted"


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: Tuple[ColumnSpec, ...]  # columns[0] is the INTEGER pk "id"
    indexes: Tuple[IndexSpec, ...] = ()

    @property
    def data_columns(self) -> Tuple[ColumnSpec, ...]:
        return self.columns[1:]

    def column(self, name: str) -> ColumnSpec:
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(name)


# ---------------------------------------------------------------------------
# expressions — plain frozen dataclasses rendered by dialects.py
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    table: Optional[str]  # source alias, or None for a bare reference
    name: str
    dtype: str


@dataclass(frozen=True)
class Lit:
    value: Any
    dtype: str


@dataclass(frozen=True)
class Param:
    value: Any
    dtype: str


@dataclass(frozen=True)
class Arith:
    op: str  # + - * / ||
    left: Any
    right: Any
    dtype: str


@dataclass(frozen=True)
class Compare:
    op: str  # = <> < <= > >=
    left: Any
    right: Any


@dataclass(frozen=True)
class Logic:
    op: str  # AND | OR
    items: Tuple[Any, ...]


@dataclass(frozen=True)
class NotE:
    operand: Any


@dataclass(frozen=True)
class IsNull:
    operand: Any
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: Any
    items: Tuple[Any, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: Any
    low: Any
    high: Any
    negated: bool = False


@dataclass(frozen=True)
class LikeE:
    operand: Any
    pattern: str  # lowercase ASCII + % and _ only
    negated: bool = False


@dataclass(frozen=True)
class Func:
    name: str  # lowercase shared-dialect name; dialects.py maps per engine
    args: Tuple[Any, ...]
    dtype: str


@dataclass(frozen=True)
class CaseE:
    condition: Any
    then: Any
    otherwise: Optional[Any]
    dtype: str


@dataclass(frozen=True)
class Agg:
    func: str  # count | count_star | sum | avg | min | max
    arg: Optional[Col]
    distinct: bool = False


@dataclass(frozen=True)
class InSubquery:
    operand: Any
    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class Exists:
    query: "Query"
    negated: bool = False


# ---------------------------------------------------------------------------
# queries and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    table: str
    alias: Optional[str]
    # When set, render as a derived table: (SELECT * FROM table [WHERE
    # predicate]) AS alias.  A predicate-free derived table exercises
    # minidb's subquery-flattening fast path; one with a predicate takes
    # the SubqueryScan path.
    derived: bool = False
    predicate: Optional[Any] = None
    # When set, render as the derived table (body) AS alias instead: a
    # whole query — projecting, joining, grouping, DISTINCT or LIMIT —
    # whose output columns the enclosing query sees (``table`` is then
    # the body's first source, for the table walkers).
    body: Optional["Query"] = None


@dataclass(frozen=True)
class Join:
    kind: str  # INNER | LEFT | CROSS
    source: Source
    condition: Optional[Any]  # None for CROSS


@dataclass(frozen=True)
class OrderTerm:
    expr: Any
    desc: bool = False


@dataclass(frozen=True)
class Query:
    source: Source
    joins: Tuple[Join, ...] = ()
    # None means SELECT *; otherwise (expr, alias) pairs.
    items: Optional[Tuple[Tuple[Any, Optional[str]], ...]] = None
    where: Optional[Any] = None
    group_by: Tuple[Any, ...] = ()
    having: Optional[Any] = None
    order_by: Tuple[OrderTerm, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class QueryOp:
    query: Query


@dataclass(frozen=True)
class InsertOp:
    table: str
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class UpdateOp:
    table: str
    sets: Tuple[Tuple[str, Any], ...]
    where: Optional[Any]


@dataclass(frozen=True)
class DeleteOp:
    table: str
    where: Optional[Any]


@dataclass(frozen=True)
class CreateIndexOp:
    """CREATE INDEX on a live table (hash or sorted, single- or
    multi-column).  Exercises index maintenance under subsequent DML,
    plan-cache invalidation on schema epoch bumps, and — for
    single-column indexes over literal predicates — the planner's
    index-routed access paths."""

    table: str
    index: IndexSpec


@dataclass(frozen=True)
class DropIndexOp:
    """DROP INDEX by name; later queries must re-plan without it."""

    table: str
    name: str


@dataclass(frozen=True)
class DropCreateOp:
    """DROP TABLE + CREATE TABLE + fresh indexes + reinserted rows.

    Exercises schema-epoch invalidation of the plan cache and the
    recreated-table aliasing hazard PR 3 guarded against.  Index names
    carry a generation suffix so the recreate never collides with a name
    sqlite already dropped but a buggy engine might have kept.
    """

    table: TableSpec
    rows: Tuple[Tuple[Any, ...], ...]


Op = Union[
    QueryOp, InsertOp, UpdateOp, DeleteOp,
    CreateIndexOp, DropIndexOp, DropCreateOp,
]


@dataclass
class Case:
    seed: int
    tables: Tuple[TableSpec, ...]
    rows: Dict[str, List[Tuple[Any, ...]]]
    ops: List[Op]

    @property
    def query_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, QueryOp))

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())


# ---------------------------------------------------------------------------
# capability mask
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Capabilities:
    """What the generator may emit.  Defaults describe the full shared
    dialect; tests narrow this to focus a hunt."""

    max_tables: int = 3
    max_data_columns: int = 4
    max_rows: int = 12
    max_ops: int = 12
    min_queries: int = 3
    max_expr_depth: int = 2
    allow_joins: bool = True
    allow_left_join: bool = True
    allow_cross_join: bool = True
    allow_derived_tables: bool = True
    allow_aggregates: bool = True
    allow_having: bool = True
    allow_subqueries: bool = True
    allow_distinct: bool = True
    allow_order_limit: bool = True
    allow_params: bool = True
    allow_dml: bool = True
    allow_drop_create: bool = True
    allow_index_ddl: bool = True
    # Scalar functions present in both engines with identical semantics
    # on the generated value domain (see module docstring).
    functions: Tuple[str, ...] = (
        "abs",
        "lower",
        "upper",
        "length",
        "coalesce",
        "nullif",
        "least",
        "greatest",
    )


WORDS = (
    "alpha", "beta", "gamma", "delta", "ink", "oak", "pine", "zig",
    "ember", "quartz", "river", "stone", "",
)

COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass
class _Scope:
    """Column universe for one expression context."""

    bindings: Tuple[Tuple[Optional[str], TableSpec], ...]
    qualify: bool
    allow_params: bool = False
    allow_subqueries: bool = False

    def columns(self, dtypes: Optional[Sequence[str]] = None) -> List[Col]:
        out: List[Col] = []
        for alias, table in self.bindings:
            for column in table.columns:
                if dtypes is None or column.dtype in dtypes:
                    out.append(
                        Col(alias if self.qualify else None, column.name,
                            column.dtype)
                    )
        return out


def referenced_tables(op: Op) -> set:
    """Table names an op touches (for the shrinker's unused-table pass)."""
    names: set = set()

    def walk_query(query: Query) -> None:
        for source in [query.source] + [join.source for join in query.joins]:
            names.add(source.table)
            if source.body is not None:
                walk_query(source.body)
        for expr in _subexpressions(query):
            if isinstance(expr, (InSubquery, Exists)):
                walk_query(expr.query)

    if isinstance(op, QueryOp):
        walk_query(op.query)
    elif isinstance(op, DropCreateOp):
        names.add(op.table.name)
    else:
        names.add(op.table)  # DML expressions never hold subqueries
    return names


def _subexpressions(query: Query):
    roots: List[Any] = []
    if query.items:
        roots.extend(expr for expr, _ in query.items)
    if query.source.predicate is not None:
        roots.append(query.source.predicate)
    for join in query.joins:
        if join.condition is not None:
            roots.append(join.condition)
        if join.source.predicate is not None:
            roots.append(join.source.predicate)
    for clause in (query.where, query.having):
        if clause is not None:
            roots.append(clause)
    roots.extend(query.group_by)
    roots.extend(term.expr for term in query.order_by)
    return _walk_all(roots)


def _walk_all(roots: Sequence[Any]):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Arith):
            stack.extend((node.left, node.right))
        elif isinstance(node, Compare):
            stack.extend((node.left, node.right))
        elif isinstance(node, Logic):
            stack.extend(node.items)
        elif isinstance(node, NotE):
            stack.append(node.operand)
        elif isinstance(node, IsNull):
            stack.append(node.operand)
        elif isinstance(node, InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, Between):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, LikeE):
            stack.append(node.operand)
        elif isinstance(node, Func):
            stack.extend(node.args)
        elif isinstance(node, CaseE):
            stack.extend(
                x for x in (node.condition, node.then, node.otherwise)
                if x is not None
            )
        elif isinstance(node, Agg) and node.arg is not None:
            stack.append(node.arg)
        elif isinstance(node, InSubquery):
            stack.append(node.operand)


def _rewrite(node: Any, swap: Callable[[Any], Optional[Any]]) -> Any:
    """Rebuild an AST — any nest of frozen dataclasses and tuples — with
    every node ``swap`` answers for replaced by that answer (and not
    descended into)."""
    swapped = swap(node)
    if swapped is not None:
        return swapped
    if isinstance(node, tuple):
        return tuple(_rewrite(item, swap) for item in node)
    if is_dataclass(node):
        return replace(
            node,
            **{
                spec.name: _rewrite(getattr(node, spec.name), swap)
                for spec in fields(node)
            },
        )
    return node


def with_literals(query: Query) -> Query:
    """``query`` with every ``?`` written out as the literal it binds."""
    return _rewrite(
        query,
        lambda node: Lit(node.value, node.dtype)
        if isinstance(node, Param)
        else None,
    )


def with_parameters(query: Query) -> Query:
    """``query`` with every bindable WHERE constant turned into a ``?``.

    The metamorphic twin of :func:`with_literals`: the two renderings of
    one query must plan and answer alike.  Bindable follows the dialect
    rules above (WHERE only, nothing inside IN/EXISTS subqueries) and
    leaves out the two constants minidb plans differently *by design*:
    NULL (``col = NULL`` keeps its conjunct as a filter) and negative
    numbers (``-5`` parses as a negation, which is not an index key,
    while a ``?`` bound to -5 is).
    """

    def swap(node: Any) -> Optional[Any]:
        if isinstance(node, (InSubquery, Exists)):
            return node
        if (
            isinstance(node, Lit)
            and node.value is not None
            and not (isinstance(node.value, (int, float)) and node.value < 0)
        ):
            return Param(node.value, node.dtype)
        return None

    if query.where is None:
        return query
    return replace(query, where=_rewrite(query.where, swap))


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


class CaseGenerator:
    """Produces :class:`Case` objects from a seed, inside a capability
    mask.  ``CaseGenerator(seed).case()`` is deterministic."""

    def __init__(self, seed: int, caps: Optional[Capabilities] = None) -> None:
        self.seed = seed
        self.caps = caps or Capabilities()
        self.rng = random.Random(seed)
        self.tables: Tuple[TableSpec, ...] = ()
        self._next_id: Dict[str, int] = {}
        self._index_serial = 0

    # -- values -------------------------------------------------------------

    def value(self, dtype: str, nullable: bool) -> Any:
        rng = self.rng
        if nullable and rng.random() < 0.18:
            return None
        if dtype == INTEGER:
            return rng.randint(-20, 100)
        if dtype == FLOAT:
            # Exact quarters: sums of any subset are exact in binary
            # floating point, making aggregates order-independent.
            return rng.randint(-80, 320) / 4.0
        if dtype == TEXT:
            if rng.random() < 0.7:
                return rng.choice(WORDS)
            return "".join(
                rng.choice("abcdefgz") for _ in range(rng.randint(1, 4))
            )
        if dtype == BOOLEAN:
            return rng.random() < 0.5
        if dtype == DATE:
            return datetime.date(
                rng.randint(2007, 2009), rng.randint(1, 12), rng.randint(1, 28)
            )
        raise ValueError(dtype)

    def _literal(self, dtype: str, nullable: bool = True) -> Lit:
        return Lit(self.value(dtype, nullable), dtype)

    def _leaf(self, dtype: str, scope: _Scope) -> Any:
        """A column of the requested type if one exists, else a literal."""
        columns = scope.columns((dtype,))
        if columns and self.rng.random() < 0.7:
            return self.rng.choice(columns)
        return self._literal(dtype)

    def _maybe_param(self, dtype: str, scope: _Scope) -> Any:
        if scope.allow_params and self.rng.random() < 0.3:
            return Param(self.value(dtype, nullable=False), dtype)
        return self._literal(dtype, nullable=False)

    # -- scalars ------------------------------------------------------------

    def scalar(self, dtype: str, scope: _Scope, depth: int) -> Any:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.45:
            return self._leaf(dtype, scope)
        if dtype in NUMERIC:
            roll = rng.random()
            if roll < 0.45:
                op = rng.choice("+-*")
                return Arith(
                    op,
                    self.scalar(rng.choice(NUMERIC), scope, depth - 1),
                    self.scalar(rng.choice(NUMERIC), scope, depth - 1),
                    FLOAT if dtype == FLOAT else INTEGER,
                )
            if roll < 0.6:
                # Division by a nonzero literal: minidb raises on /0
                # where sqlite returns NULL, so the denominator is pinned.
                denominator = Lit(rng.choice((2, 3, 4, 5, -2)), INTEGER)
                return Arith(
                    "/", self.scalar(dtype, scope, depth - 1), denominator,
                    FLOAT,
                )
            if roll < 0.75 and "abs" in self.caps.functions:
                return Func("abs", (self.scalar(dtype, scope, depth - 1),),
                            dtype)
            if roll < 0.9:
                name = rng.choice(("least", "greatest", "coalesce", "nullif"))
                if name not in self.caps.functions:
                    return self._leaf(dtype, scope)
                return Func(
                    name,
                    (
                        self.scalar(dtype, scope, depth - 1),
                        self.scalar(dtype, scope, depth - 1),
                    ),
                    dtype,
                )
            return CaseE(
                self.predicate(scope, depth - 1),
                self.scalar(dtype, scope, depth - 1),
                self._leaf(dtype, scope) if rng.random() < 0.8 else None,
                dtype,
            )
        if dtype == TEXT:
            roll = rng.random()
            if roll < 0.3:
                return Arith(
                    "||",
                    self._leaf(TEXT, scope),
                    self._leaf(TEXT, scope),
                    TEXT,
                )
            if roll < 0.6:
                name = rng.choice(("lower", "upper"))
                if name in self.caps.functions:
                    return Func(name, (self._leaf(TEXT, scope),), TEXT)
            if roll < 0.8:
                name = rng.choice(("coalesce", "nullif"))
                if name in self.caps.functions:
                    return Func(
                        name,
                        (self._leaf(TEXT, scope), self._leaf(TEXT, scope)),
                        TEXT,
                    )
            return self._leaf(TEXT, scope)
        # BOOLEAN and DATE stay shallow: arithmetic on them is outside
        # the shared dialect.
        return self._leaf(dtype, scope)

    # -- predicates ---------------------------------------------------------

    def predicate(self, scope: _Scope, depth: int) -> Any:
        rng = self.rng
        roll = rng.random()
        if depth > 0 and roll < 0.14:
            op = rng.choice(("AND", "OR"))
            return Logic(
                op,
                (self.predicate(scope, depth - 1),
                 self.predicate(scope, depth - 1)),
            )
        if depth > 0 and roll < 0.2:
            return NotE(self.predicate(scope, depth - 1))
        if roll < 0.32:
            columns = scope.columns()
            if columns:
                return IsNull(rng.choice(columns), negated=rng.random() < 0.5)
        if roll < 0.45:
            columns = scope.columns((INTEGER, FLOAT, TEXT, DATE))
            if columns:
                column = rng.choice(columns)
                family = (
                    NUMERIC if column.dtype in NUMERIC else (column.dtype,)
                )
                items = tuple(
                    self._maybe_param(rng.choice(family), scope)
                    for _ in range(rng.randint(1, 4))
                )
                if rng.random() < 0.15:
                    items = items + (Lit(None, column.dtype),)
                return InList(column, items, negated=rng.random() < 0.4)
        if roll < 0.56:
            columns = scope.columns((INTEGER, FLOAT, TEXT, DATE))
            if columns:
                column = rng.choice(columns)
                dtype = column.dtype if column.dtype not in NUMERIC else (
                    rng.choice(NUMERIC)
                )
                return Between(
                    column,
                    self._maybe_param(dtype, scope),
                    self._maybe_param(dtype, scope),
                    negated=rng.random() < 0.3,
                )
        if roll < 0.66:
            columns = scope.columns((TEXT,))
            if columns:
                return LikeE(
                    rng.choice(columns),
                    self._like_pattern(),
                    negated=rng.random() < 0.3,
                )
        if (
            roll < 0.76
            and scope.allow_subqueries
            and self.caps.allow_subqueries
            and self.tables
        ):
            return self._subquery_predicate(scope)
        return self._comparison(scope, depth)

    def _comparison(self, scope: _Scope, depth: int) -> Compare:
        rng = self.rng
        family = rng.choice((NUMERIC, (TEXT,), (DATE,), (BOOLEAN,)))
        columns = scope.columns(family)
        if not columns:
            family = NUMERIC
            columns = scope.columns(family)
        left = (
            rng.choice(columns)
            if columns and rng.random() < 0.75
            else self.scalar(rng.choice(family), scope, depth)
        )
        if family == (BOOLEAN,):
            op = rng.choice(("=", "<>"))
            right: Any = (
                rng.choice(columns)
                if columns and rng.random() < 0.4
                else Lit(rng.random() < 0.5, BOOLEAN)
            )
        else:
            op = rng.choice(COMPARE_OPS)
            if rng.random() < 0.5 and columns:
                right = rng.choice(columns)
            elif rng.random() < 0.5:
                right = self._maybe_param(rng.choice(family), scope)
            else:
                right = self.scalar(rng.choice(family), scope, depth)
        return Compare(op, left, right)

    def _like_pattern(self) -> str:
        rng = self.rng
        pieces = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.4:
                pieces.append("%")
            elif roll < 0.55:
                pieces.append("_")
            else:
                pieces.append(rng.choice("abegiz"))
        return "".join(pieces) or "%"

    def _subquery_predicate(self, scope: _Scope) -> Any:
        rng = self.rng
        table = rng.choice(self.tables)
        inner_scope = _Scope(
            bindings=((None, table),),
            qualify=False,
            allow_params=False,   # minidb rejects ? inside subqueries
            allow_subqueries=False,
        )
        if rng.random() < 0.5:
            column = rng.choice(list(table.columns))
            inner = Query(
                source=Source(table.name, alias=None),
                items=((Col(None, column.name, column.dtype), None),),
                where=(
                    self.predicate(inner_scope, 0)
                    if rng.random() < 0.7 else None
                ),
            )
            family = NUMERIC if column.dtype in NUMERIC else (column.dtype,)
            outer_columns = scope.columns(family)
            operand = (
                rng.choice(outer_columns)
                if outer_columns
                else self._literal(column.dtype, nullable=False)
            )
            return InSubquery(operand, inner, negated=rng.random() < 0.4)
        inner = Query(
            source=Source(table.name, alias=None),
            items=((Col(None, "id", INTEGER), None),),
            where=(
                self.predicate(inner_scope, 0) if rng.random() < 0.8 else None
            ),
        )
        return Exists(inner, negated=rng.random() < 0.4)

    # -- schema and data ----------------------------------------------------

    def _make_tables(self) -> Tuple[TableSpec, ...]:
        rng = self.rng
        caps = self.caps
        tables = []
        for t in range(rng.randint(1, caps.max_tables)):
            columns = [ColumnSpec("id", INTEGER, nullable=False)]
            for c in range(rng.randint(2, caps.max_data_columns)):
                dtype = rng.choice((INTEGER, FLOAT, TEXT, BOOLEAN, DATE))
                columns.append(
                    ColumnSpec(
                        f"c{c + 1}_{dtype[:3].lower()}",
                        dtype,
                        nullable=rng.random() < 0.75,
                    )
                )
            name = f"t{t}"
            indexes = tuple(
                self._make_index(name, self._index_columns(tuple(columns)))
                for _ in range(rng.randint(0, 2))
            )
            # Dedupe index column sets (two indexes on one column set are
            # legal but add nothing).
            seen: set = set()
            unique_indexes = []
            for index in indexes:
                if index.columns not in seen:
                    seen.add(index.columns)
                    unique_indexes.append(index)
            tables.append(TableSpec(name, tuple(columns),
                                    tuple(unique_indexes)))
        return tuple(tables)

    def _index_columns(
        self, columns: Tuple[ColumnSpec, ...]
    ) -> Tuple[str, ...]:
        """1–2 distinct columns; mostly single (those route access paths)."""
        rng = self.rng
        if len(columns) > 1 and rng.random() < 0.3:
            picked = rng.sample(list(columns), 2)
            return tuple(column.name for column in picked)
        return (rng.choice(columns).name,)

    def _make_index(
        self, table: str, columns: Tuple[str, ...]
    ) -> IndexSpec:
        self._index_serial += 1
        return IndexSpec(
            f"idx_{table}_{'_'.join(columns)}_{self._index_serial}",
            columns,
            self.rng.choice(("hash", "sorted")),
        )

    def _make_row(self, table: TableSpec) -> Tuple[Any, ...]:
        row_id = self._next_id.get(table.name, 1)
        self._next_id[table.name] = row_id + 1
        values: List[Any] = [row_id]
        for column in table.data_columns:
            values.append(self.value(column.dtype, column.nullable))
        return tuple(values)

    # -- queries ------------------------------------------------------------

    def query(self) -> Query:
        rng = self.rng
        caps = self.caps
        sources, joins = self._sources_and_joins()
        multi = bool(joins)
        qualify = multi or rng.random() < 0.5
        scope = _Scope(
            bindings=tuple(
                (src.alias if qualify else None, self._table(src.table))
                for src in sources
            ),
            qualify=qualify,
            allow_params=False,
            allow_subqueries=False,
        )
        where_scope = replace(
            scope,
            allow_params=caps.allow_params,
            allow_subqueries=True,
        )
        where = (
            self.predicate(where_scope, caps.max_expr_depth)
            if rng.random() < 0.75 else None
        )
        if caps.allow_aggregates and rng.random() < 0.3:
            return self._aggregate_query(sources, joins, scope, where)
        return self._plain_query(sources, joins, scope, where)

    def _index_probe(self) -> Query:
        """A query aimed at the planner's access paths, which a random
        predicate almost never hits (1 % of ``query()`` results plan an
        index scan): one to three comparisons of a keyed column — the
        primary key or a single-column index — against constants, at most
        one random conjunct beside them, and half the time a second table
        joined on its primary key (the lookup-join shape: NULL and absent
        keys on the left, INNER and LEFT, with and without a residual)."""
        rng = self.rng
        caps = self.caps
        table = rng.choice(self.tables)
        keyed = rng.choice(
            ["id"]
            + [
                index.columns[0]
                for index in table.indexes
                if len(index.columns) == 1
            ]
        )
        column = table.column(keyed)
        sources = [Source(table.name, "a0")]
        joins: Tuple[Join, ...] = ()
        if caps.allow_joins and rng.random() < 0.5:
            right = Source(rng.choice(self.tables).name, "a1")
            key = rng.choice(
                [spec for spec in table.columns if spec.dtype == INTEGER]
            )
            condition: Any = Compare(
                "=", Col("a0", key.name, INTEGER), Col("a1", "id", INTEGER)
            )
            if rng.random() < 0.3:
                residual = Compare(
                    rng.choice(COMPARE_OPS),
                    Col("a1", "id", INTEGER),
                    Lit(rng.randint(0, 8), INTEGER),
                )
                condition = Logic("AND", (condition, residual))
            kind = (
                "LEFT" if caps.allow_left_join and rng.random() < 0.4
                else "INNER"
            )
            sources.append(right)
            joins = (Join(kind, right, condition),)
        scope = _Scope(
            bindings=tuple(
                (source.alias, self._table(source.table))
                for source in sources
            ),
            qualify=True,
            allow_params=caps.allow_params,
        )
        target = Col("a0", column.name, column.dtype)
        operators = ["="]
        if column.dtype != BOOLEAN:
            # Bounds, twice over: two on one side must pick the tighter.
            operators = [rng.choice(("=", "<", "<=", ">", ">="))] + [
                rng.choice(("<", "<=", ">", ">="))
                for _ in range(rng.randint(0, 2))
            ]
        conjuncts: List[Any] = [
            Compare(
                operator,
                target,
                Lit(rng.randint(0, caps.max_rows), INTEGER)
                if keyed == "id" and rng.random() < 0.7
                else self._maybe_param(column.dtype, scope),
            )
            for operator in operators
        ]
        if rng.random() < 0.4:
            conjuncts.append(self.predicate(scope, 1))
        order: Tuple[OrderTerm, ...] = ()
        limit = None
        if caps.allow_order_limit and rng.random() < 0.3:
            order = tuple(
                OrderTerm(Col(source.alias, "id", INTEGER))
                for source in sources
            )
            limit = rng.randint(0, 8)
        return Query(
            source=sources[0],
            joins=joins,
            where=conjuncts[0]
            if len(conjuncts) == 1
            else Logic("AND", tuple(conjuncts)),
            order_by=order,
            limit=limit,
        )

    def _derived_probe(self) -> Query:
        """A query over one derived table whose outer WHERE names the
        body's output columns, starting with a keyed one (the primary key
        or a single-column index).  Over a projecting or joining body the
        planner moves that WHERE inside and onto the key; over a grouping,
        DISTINCT or LIMIT body it must not — the oracle's pushdown check
        reads which from the plan."""
        rng = self.rng
        caps = self.caps
        kinds = ["project"]
        kinds += ["join"] if caps.allow_joins else []
        kinds += ["group"] if caps.allow_aggregates else []
        kinds += ["distinct"] if caps.allow_distinct else []
        kinds += ["limit"] if caps.allow_order_limit else []
        kind = rng.choice(kinds)
        table = rng.choice(self.tables)
        keyed = table.column(
            rng.choice(
                ["id"]
                + [
                    index.columns[0]
                    for index in table.indexes
                    if len(index.columns) == 1
                ]
            )
        )
        picked = [keyed] + [
            column
            for column in rng.sample(
                list(table.columns), k=rng.randint(1, min(3, len(table.columns)))
            )
            if column != keyed
        ]
        columns = [Col("b", column.name, column.dtype) for column in picked]
        body_scope = _Scope(bindings=(("b", table),), qualify=True)
        where = self.predicate(body_scope, 1) if rng.random() < 0.4 else None
        query = Query(source=Source(table.name, "b"), where=where)
        if kind == "group":
            items: List[Tuple[Any, str]] = [
                (Agg("min", Col("b", "id", INTEGER)), "id"),
                (Agg("count_star", None), "n"),
            ]
            if rng.random() < 0.7:
                items.insert(1, (columns[0], "g"))
                query = replace(query, group_by=(columns[0],))
            query = replace(query, items=tuple(items))
        else:
            query = replace(
                query,
                items=tuple(
                    (column, rng.choice((column.name, f"x{i}")))
                    for i, column in enumerate(columns)
                ),
            )
        if kind == "join":
            right = rng.choice(self.tables)
            left_key = rng.choice(
                [column for column in table.columns if column.dtype == INTEGER]
            )
            far = rng.choice(list(right.columns))
            query = replace(
                query,
                items=query.items + ((Col("r", far.name, far.dtype), "y"),),
                joins=(
                    Join(
                        "LEFT"
                        if caps.allow_left_join and rng.random() < 0.3
                        else "INNER",
                        Source(right.name, "r"),
                        Compare(
                            "=",
                            Col("b", left_key.name, INTEGER),
                            Col("r", "id", INTEGER),
                        ),
                    ),
                ),
            )
        elif kind == "distinct":
            query = replace(query, distinct=True)
        elif kind == "limit":
            query = replace(
                query,
                order_by=(OrderTerm(Col("b", "id", INTEGER)),),
                limit=rng.randint(0, 8),
            )
        exposed = TableSpec(
            "d0",
            tuple(
                ColumnSpec(alias, INTEGER if isinstance(expr, Agg) else expr.dtype)
                for expr, alias in query.items
            ),
        )
        scope = _Scope(
            bindings=(("d0", exposed),),
            qualify=True,
            allow_params=caps.allow_params,
        )
        # the keyed column (a grouping body's key sits after MIN(id))
        target = scope.columns()[1 if kind == "group" else 0]
        family = NUMERIC if target.dtype in NUMERIC else (target.dtype,)
        operator = "="
        if target.dtype != BOOLEAN and rng.random() < 0.3:
            operator = rng.choice(("<", "<=", ">", ">="))
        conjuncts: List[Any] = [
            Compare(
                operator, target, self._maybe_param(rng.choice(family), scope)
            )
        ]
        if rng.random() < 0.5:
            conjuncts.append(self.predicate(scope, 1))
        return Query(
            source=Source(table.name, "d0", body=query),
            items=None
            if rng.random() < 0.5
            else tuple((column, None) for column in scope.columns()[:2]),
            where=conjuncts[0]
            if len(conjuncts) == 1
            else Logic("AND", tuple(conjuncts)),
        )

    def _table(self, name: str) -> TableSpec:
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(name)

    def _sources_and_joins(self) -> Tuple[List[Source], Tuple[Join, ...]]:
        rng = self.rng
        caps = self.caps
        count = 1
        if caps.allow_joins and len(self.tables) >= 1:
            roll = rng.random()
            if roll < 0.4:
                count = 2
            if roll < 0.12:
                count = 3
        sources: List[Source] = []
        for i in range(count):
            table = rng.choice(self.tables)
            derived = (
                caps.allow_derived_tables and rng.random() < 0.18
            )
            predicate = None
            if derived and rng.random() < 0.6:
                inner_scope = _Scope(
                    bindings=((None, table),), qualify=False
                )
                predicate = self.predicate(inner_scope, 1)
            sources.append(
                Source(table.name, f"a{i}", derived=derived,
                       predicate=predicate)
            )
        joins: List[Join] = []
        for right in sources[1:]:
            kind = "INNER"
            roll = rng.random()
            if caps.allow_left_join and roll < 0.3:
                kind = "LEFT"
            elif caps.allow_cross_join and roll < 0.4 and len(sources) == 2:
                kind = "CROSS"
            condition = None
            if kind != "CROSS":
                condition = self._join_condition(sources, right)
            joins.append(Join(kind, right, condition))
        return sources, tuple(joins)

    def _join_condition(self, sources: List[Source], right: Source) -> Any:
        rng = self.rng
        right_table = self._table(right.table)
        left_sources = sources[: sources.index(right)]
        pairs = []
        for left in left_sources:
            left_table = self._table(left.table)
            for lcol in left_table.columns:
                for rcol in right_table.columns:
                    if lcol.dtype == rcol.dtype:
                        pairs.append(
                            (
                                Col(left.alias, lcol.name, lcol.dtype),
                                Col(right.alias, rcol.name, rcol.dtype),
                            )
                        )
        left_col, right_col = rng.choice(pairs)
        condition: Any = Compare("=", left_col, right_col)
        if rng.random() < 0.25:
            extra = Compare(
                rng.choice(COMPARE_OPS),
                Col(right.alias, "id", INTEGER),
                Lit(rng.randint(0, 8), INTEGER),
            )
            condition = Logic("AND", (condition, extra))
        return condition

    def _plain_query(
        self,
        sources: List[Source],
        joins: Tuple[Join, ...],
        scope: _Scope,
        where: Optional[Any],
    ) -> Query:
        rng = self.rng
        caps = self.caps
        star = rng.random() < 0.15
        distinct = caps.allow_distinct and rng.random() < 0.2
        limit = offset = None
        order: Tuple[OrderTerm, ...] = ()
        items: Optional[Tuple[Tuple[Any, Optional[str]], ...]] = None
        want_limit = caps.allow_order_limit and rng.random() < 0.45
        if not star:
            exprs: List[Any] = []
            for _ in range(rng.randint(1, 4)):
                if distinct and want_limit:
                    # DISTINCT + LIMIT needs ORDER BY over outputs that
                    # totalize the distinct rows: plain columns only.
                    columns = scope.columns()
                    exprs.append(rng.choice(columns))
                elif rng.random() < 0.6:
                    columns = scope.columns()
                    exprs.append(rng.choice(columns))
                else:
                    dtype = rng.choice((INTEGER, FLOAT, TEXT))
                    exprs.append(self.scalar(dtype, scope, 1))
            items = tuple(
                (expr, f"c{i}") for i, expr in enumerate(exprs)
            )
        if want_limit:
            limit = rng.randint(0, 8)
            if rng.random() < 0.3:
                # Include offsets beyond max_rows so "OFFSET past the
                # end" is a routinely fuzzed shape, not just a unit test.
                offset = rng.choice((1, 2, 3, 5, 9, 16, 25))
            if distinct and items is not None:
                order = tuple(
                    OrderTerm(Col(None, alias, INTEGER),
                              desc=rng.random() < 0.4)
                    for _, alias in items
                )
            else:
                extra = []
                if rng.random() < 0.4:
                    columns = scope.columns((INTEGER, FLOAT, DATE))
                    if columns:
                        extra.append(
                            OrderTerm(rng.choice(columns),
                                      desc=rng.random() < 0.5)
                        )
                pk_terms = [
                    OrderTerm(
                        Col(alias, "id", INTEGER), desc=rng.random() < 0.3
                    )
                    for alias, _ in scope.bindings
                ]
                order = tuple(extra) + tuple(pk_terms)
        elif caps.allow_order_limit and rng.random() < 0.2:
            # ORDER BY without LIMIT: results compare as multisets, so
            # this only checks that both engines accept the clause.
            columns = scope.columns()
            order = (OrderTerm(rng.choice(columns),
                               desc=rng.random() < 0.5),)
        return Query(
            source=sources[0],
            joins=joins,
            items=items,
            where=where,
            order_by=order,
            limit=limit,
            offset=offset,
            distinct=distinct and items is not None,
        )

    def _aggregate_query(
        self,
        sources: List[Source],
        joins: Tuple[Join, ...],
        scope: _Scope,
        where: Optional[Any],
    ) -> Query:
        rng = self.rng
        caps = self.caps
        columns = scope.columns()
        global_agg = rng.random() < 0.25
        group_by: Tuple[Any, ...] = ()
        items: List[Tuple[Any, Optional[str]]] = []
        if not global_agg:
            keys = rng.sample(columns, k=min(len(columns),
                                             rng.randint(1, 2)))
            group_by = tuple(keys)
            items.extend((key, f"g{i}") for i, key in enumerate(keys))
        for i in range(rng.randint(1, 3)):
            items.append((self._aggregate(scope), f"a{i}"))
        having = None
        if group_by and caps.allow_having and rng.random() < 0.35:
            having = Compare(
                rng.choice((">=", ">", "<", "=")),
                Agg("count_star", None),
                Lit(rng.randint(0, 3), INTEGER),
            )
        order: Tuple[OrderTerm, ...] = ()
        limit = None
        if group_by and caps.allow_order_limit and rng.random() < 0.4:
            # Group keys are unique per output row, so ordering by every
            # key alias is total and LIMIT is deterministic.
            order = tuple(
                OrderTerm(Col(None, f"g{i}", INTEGER),
                          desc=rng.random() < 0.4)
                for i in range(len(group_by))
            )
            limit = rng.randint(0, 6)
        return Query(
            source=sources[0],
            joins=joins,
            items=tuple(items),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order,
            limit=limit,
        )

    def _aggregate(self, scope: _Scope) -> Agg:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            return Agg("count_star", None)
        if roll < 0.5:
            columns = scope.columns()
            return Agg("count", rng.choice(columns),
                       distinct=rng.random() < 0.4)
        if roll < 0.75:
            # SUM/AVG over plain columns only: exact quarters keep float
            # accumulation order-independent (see module docstring).
            columns = scope.columns(NUMERIC)
            if columns:
                return Agg(rng.choice(("sum", "avg")), rng.choice(columns))
        columns = scope.columns((INTEGER, FLOAT, TEXT, DATE))
        if not columns:
            return Agg("count_star", None)
        return Agg(rng.choice(("min", "max")), rng.choice(columns))

    # -- DML ----------------------------------------------------------------

    def _dml(self) -> Op:
        rng = self.rng
        table = rng.choice(self.tables)
        scope = _Scope(bindings=((None, table),), qualify=False)
        roll = rng.random()
        if roll < 0.45:
            return InsertOp(table.name, self._make_row(table))
        if roll < 0.75:
            sets = []
            data_columns = list(table.data_columns)
            rng.shuffle(data_columns)
            for column in data_columns[: rng.randint(1, 2)]:
                sets.append((column.name, self._set_expression(column, scope)))
            where = (
                self.predicate(scope, 1) if rng.random() < 0.85 else None
            )
            return UpdateOp(table.name, tuple(sets), where)
        return DeleteOp(
            table.name,
            self.predicate(scope, 1) if rng.random() < 0.9 else None,
        )

    def _set_expression(self, column: ColumnSpec, scope: _Scope) -> Any:
        rng = self.rng
        if column.dtype in NUMERIC and rng.random() < 0.4:
            # + and - with small literals only: repeated updates must not
            # overflow sqlite's 64-bit integers, and / would assign FLOAT
            # into INTEGER columns (minidb's strict coercion rejects it).
            return Arith(
                rng.choice("+-"),
                Col(None, column.name, column.dtype),
                Lit(rng.randint(1, 5), INTEGER),
                column.dtype,
            )
        if column.dtype == TEXT and rng.random() < 0.3:
            return Arith(
                "||",
                Func("coalesce",
                     (Col(None, column.name, TEXT), Lit("", TEXT)), TEXT),
                Lit(rng.choice(("x", "qa", "z")), TEXT),
                TEXT,
            )
        return self._literal(column.dtype, nullable=column.nullable)

    def _index_ddl(self) -> Op:
        """CREATE INDEX or DROP INDEX against the live registry, so the
        name set stays collision-free and drops always hit a real index
        (identical outcomes on both engines, no error-path noise)."""
        rng = self.rng
        indexed = [table for table in self.tables if table.indexes]
        if indexed and rng.random() < 0.4:
            spec = rng.choice(indexed)
            victim = rng.choice(spec.indexes)
            remaining = tuple(
                index for index in spec.indexes if index.name != victim.name
            )
            self._swap_table(replace(spec, indexes=remaining))
            return DropIndexOp(spec.name, victim.name)
        spec = rng.choice(self.tables)
        index = self._make_index(
            spec.name, self._index_columns(spec.columns)
        )
        self._swap_table(replace(spec, indexes=spec.indexes + (index,)))
        return CreateIndexOp(spec.name, index)

    def _swap_table(self, spec: TableSpec) -> None:
        self.tables = tuple(
            spec if table.name == spec.name else table
            for table in self.tables
        )

    def _drop_create(self) -> DropCreateOp:
        rng = self.rng
        spec = rng.choice(self.tables)
        # Fresh index generation: names must not collide with the ones
        # dropped alongside the old table.
        indexes = tuple(
            self._make_index(spec.name, index.columns)
            for index in spec.indexes
        )
        spec = replace(spec, indexes=indexes)
        self._next_id[spec.name] = 1
        rows = tuple(self._make_row(spec) for _ in range(rng.randint(0, 4)))
        # Update the registry so later queries and DML see the new spec.
        self.tables = tuple(
            spec if table.name == spec.name else table
            for table in self.tables
        )
        return DropCreateOp(spec, rows)

    # -- the case -----------------------------------------------------------

    def case(self) -> Case:
        rng = self.rng
        caps = self.caps
        self.tables = self._make_tables()
        # Drop/create ops swap refreshed specs into ``self.tables``; the
        # case's initial DDL must keep the originals.
        original_tables = self.tables
        rows: Dict[str, List[Tuple[Any, ...]]] = {}
        for table in self.tables:
            rows[table.name] = [
                self._make_row(table)
                for _ in range(rng.randint(0, caps.max_rows))
            ]
        ops: List[Op] = []
        n_ops = rng.randint(max(4, caps.min_queries + 1), caps.max_ops)
        for _ in range(n_ops):
            roll = rng.random()
            if not caps.allow_dml or roll < 0.55:
                ops.append(QueryOp(self.query()))
            elif caps.allow_drop_create and roll > 0.94:
                ops.append(self._drop_create())
            elif caps.allow_index_ddl and roll > 0.88:
                ops.append(self._index_ddl())
            else:
                ops.append(self._dml())
        while sum(isinstance(op, QueryOp) for op in ops) < caps.min_queries:
            ops.append(QueryOp(self.query()))
        # Last, so the ops above keep the random stream they always had,
        # and against whatever schema and rows the churn above left.
        ops.extend(QueryOp(self._index_probe()) for _ in range(2))
        if caps.allow_derived_tables:
            ops.append(QueryOp(self._derived_probe()))
        return Case(
            seed=self.seed, tables=original_tables, rows=rows, ops=ops
        )
