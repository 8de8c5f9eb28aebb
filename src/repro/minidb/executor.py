"""Statement execution: dispatch, DML, DDL, and result materialization.

:class:`Executor` is owned by a :class:`~repro.minidb.catalog.Database` and
is stateless between statements.  SELECT/UNION statements are planned by
:mod:`repro.minidb.planner` and produce a :class:`ResultSet`; DML returns
an affected-row count; DDL returns ``None``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ExecutionError,
    MiniDBError,
    PlannerError,
    SchemaError,
    UnknownColumnError,
)
from repro.minidb.expressions import Env, Expression, Literal
from repro.minidb.plancache import parsed_statement
from repro.minidb.planner import (
    PrimaryKeyLookupNode,
    QueryPlan,
    plan_children,
    plan_select,
    walk_plan,
)
from repro.obs import OBS
from repro.minidb.schema import Column, TableSchema
from repro.minidb.sql.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DropIndexStatement,
    DropTableStatement,
    DropViewStatement,
    ExplainStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UnionStatement,
    UpdateStatement,
)
from repro.minidb.sql.parser import parse_statement
from repro.minidb.types import format_value

Row = Tuple[Any, ...]


class ResultSet:
    """Materialized query output: ordered columns plus row tuples."""

    def __init__(self, columns: List[str], rows: List[Row]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for position, column in enumerate(self.columns):
            if column.lower() == lowered:
                return position
        raise UnknownColumnError(f"result has no column {name!r}")

    def column(self, name: str) -> List[Any]:
        position = self.column_index(name)
        return [row[position] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def first(self) -> Optional[Dict[str, Any]]:
        if not self.rows:
            return None
        return dict(zip(self.columns, self.rows[0]))

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise MiniDBError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width text rendering (for examples and the REPL)."""
        shown = self.rows[:max_rows]
        cells = [[format_value(value) for value in row] for row in shown]
        widths = [len(column) for column in self.columns]
        for row in cells:
            for position, cell in enumerate(row):
                widths[position] = max(widths[position], len(cell))
        header = " | ".join(
            column.ljust(width) for column, width in zip(self.columns, widths)
        )
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells
        ]
        lines = [header, rule] + body
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


class NodeStats:
    """Per-plan-node execution stats collected by EXPLAIN ANALYZE.

    ``time_ms`` is *inclusive* wall time (a parent's clock runs while it
    pulls from its children, as in every EXPLAIN ANALYZE dialect);
    ``rows_in`` is derived after the run as the sum of the children's
    ``rows_out`` — the same stream counted once, so accounting balances
    by construction and the tests can assert it end to end.
    """

    __slots__ = ("label", "rows_out", "rows_in", "time_ms", "probes", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.rows_out = 0
        self.rows_in = 0
        self.time_ms = 0.0
        #: ``lookup_pk`` calls made by a lookup join's probe side
        #: (``PrimaryKeyLookup``), whose ``rows_out`` counts the matches
        self.probes = 0
        self.children: List["NodeStats"] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "time_ms": self.time_ms,
            "probes": self.probes,
            "children": [child.to_dict() for child in self.children],
        }


class AnalyzeReport:
    """Result of EXPLAIN ANALYZE: the rows plus the annotated plan."""

    def __init__(
        self,
        result: "ResultSet",
        lines: List[str],
        root: NodeStats,
        total_ms: float,
        cached: bool,
    ) -> None:
        self.result = result
        self.lines = lines
        self.root = root
        self.total_ms = total_ms
        self.cached = cached

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_ms": self.total_ms,
            "cached": self.cached,
            "row_count": len(self.result),
            "plan": self.root.to_dict(),
        }


def _attach_node_stats(node) -> NodeStats:
    """Shadow ``node.rows`` (a lookup join's probe side: ``node.lookup``)
    with a counting/timing wrapper.

    The wrapper is installed as an *instance* attribute over the class
    method; callers must remove it afterwards (``del node.__dict__``)
    because cached plans are shared across executions and must never
    stay instrumented — the noninterference suite pins this.
    """
    stats = NodeStats(node.describe()[0])
    perf_counter = time.perf_counter
    if isinstance(node, PrimaryKeyLookupNode):
        # Probed, not iterated: count the probes, and matches as rows_out.
        lookup = node.lookup

        def timed_lookup(key: Tuple[Any, ...]) -> Optional[Row]:
            started = perf_counter()
            row = lookup(key)
            stats.time_ms += (perf_counter() - started) * 1000.0
            stats.probes += 1
            if row is not None:
                stats.rows_out += 1
            return row

        node.lookup = timed_lookup
        return stats
    original = node.rows

    def timed() -> Iterator[Any]:
        # Some nodes (Sort) do all their work eagerly in rows() itself
        # rather than lazily in a generator — time the call too.
        started = perf_counter()
        iterator = original()
        stats.time_ms += (perf_counter() - started) * 1000.0
        while True:
            started = perf_counter()
            try:
                env = next(iterator)
            except StopIteration:
                stats.time_ms += (perf_counter() - started) * 1000.0
                return
            stats.time_ms += (perf_counter() - started) * 1000.0
            stats.rows_out += 1
            yield env

    node.rows = timed
    return stats


def _link_node_stats(node, stats: Dict[int, NodeStats]) -> NodeStats:
    """Build the stats tree and derive rows_in from children's rows_out."""
    own = stats[id(node)]
    for child in plan_children(node):
        child_stats = _link_node_stats(child, stats)
        own.children.append(child_stats)
        own.rows_in += child_stats.rows_out
    return own


def _analyze_node_lines(record: NodeStats, indent: int) -> List[str]:
    extra = f" probes={record.probes}" if record.probes else ""
    lines = [
        "  " * indent
        + f"{record.label} (in={record.rows_in} out={record.rows_out} "
        f"time={record.time_ms:.3f}ms{extra})"
    ]
    for child in record.children:
        lines.extend(_analyze_node_lines(child, indent + 1))
    return lines


class Executor:
    """Executes parsed statements against one Database."""

    def __init__(self, database: Any) -> None:
        self.database = database

    # -- entry points -----------------------------------------------------

    def execute_sql(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> Any:
        statement, canonical, _count = parsed_statement(sql)
        return self.execute_statement(
            statement, params=params, canonical=canonical
        )

    #: statement classes that only read; everything else mutates catalog
    #: or table state and takes the exclusive side of the database lock
    READ_STATEMENTS = (SelectStatement, ExplainStatement, UnionStatement)

    def execute_statement(
        self,
        statement: Statement,
        params: Optional[Sequence[Any]] = None,
        canonical: Optional[str] = None,
    ) -> Any:
        if OBS.enabled:
            OBS.metrics.inc(f"minidb.statement.{type(statement).__name__}")
        # Readers-writer discipline: reads share the lock and run in
        # parallel, writes run exclusively, so every statement sees the
        # table set at one exact (schema_epoch, data_version) point.
        rwlock = self.database.rwlock
        if isinstance(statement, self.READ_STATEMENTS):
            with rwlock.read_locked():
                return self._dispatch_statement(
                    statement, params=params, canonical=canonical
                )
        with rwlock.write_locked():
            return self._dispatch_statement(
                statement, params=params, canonical=canonical
            )

    def _dispatch_statement(
        self,
        statement: Statement,
        params: Optional[Sequence[Any]] = None,
        canonical: Optional[str] = None,
    ) -> Any:
        if isinstance(statement, SelectStatement):
            return self._run_select(statement, params=params, canonical=canonical)
        if isinstance(statement, ExplainStatement):
            return self._run_explain(statement, params=params)
        if isinstance(statement, UnionStatement):
            return self._run_union(statement, params=params)
        if isinstance(statement, InsertStatement):
            return self._run_insert(statement, params=params)
        if isinstance(statement, UpdateStatement):
            return self._run_update(statement, params=params)
        if isinstance(statement, DeleteStatement):
            return self._run_delete(statement, params=params)
        if isinstance(statement, CreateTableStatement):
            return self._run_create_table(statement)
        if isinstance(statement, CreateIndexStatement):
            self.database.create_index(
                statement.name, statement.table, statement.columns, statement.kind
            )
            return None
        if isinstance(statement, CreateViewStatement):
            self.database.create_view(statement.name, statement.query)
            return None
        if isinstance(statement, DropTableStatement):
            self.database.drop_table(statement.name, if_exists=statement.if_exists)
            return None
        if isinstance(statement, DropIndexStatement):
            self.database.drop_index(statement.name)
            return None
        if isinstance(statement, DropViewStatement):
            self.database.drop_view(statement.name, if_exists=statement.if_exists)
            return None
        raise MiniDBError(f"unsupported statement {type(statement).__name__}")

    def analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> AnalyzeReport:
        """EXPLAIN ANALYZE: execute a SELECT, annotate every plan node.

        Accepts plain SELECT text or a full ``EXPLAIN [ANALYZE] SELECT``
        statement; either way the query runs once and the report carries
        the result set alongside per-node rows-in/rows-out and wall time.
        """
        statement, canonical, _count = parsed_statement(sql)
        if isinstance(statement, ExplainStatement):
            statement = statement.query
            canonical = None
        if not isinstance(statement, SelectStatement):
            raise PlannerError("ANALYZE supports only SELECT statements")
        with self.database.rwlock.read_locked():
            return self._analyze_select(
                statement, params=params, canonical=canonical
            )

    def _analyze_select(
        self,
        statement: SelectStatement,
        params: Optional[Sequence[Any]] = None,
        canonical: Optional[str] = None,
    ) -> AnalyzeReport:
        plan, cached = self.plan_for(statement, canonical)
        with plan.exec_lock:
            plan.bind_parameters(params or ())
            result, root, total_ms = self._run_instrumented(plan, params=params)
        lines: List[str] = []
        indent = 0
        if plan.post_limit is not None or plan.post_offset:
            lines.append(
                f"Limit({plan.post_limit} offset {plan.post_offset}) "
                f"(out={len(result)})"
            )
            indent = 1
        lines.append(
            "  " * indent
            + f"{plan.head_line()} (out={len(result)} time={total_ms:.3f}ms)"
        )
        lines.extend(_analyze_node_lines(root, indent + 1))
        # Same marker placement as plain EXPLAIN: first line of the plan.
        if cached:
            lines[0] += " [cached]"
        return AnalyzeReport(
            result=result, lines=lines, root=root, total_ms=total_ms, cached=cached
        )

    def _run_instrumented(
        self, plan: QueryPlan, params: Optional[Sequence[Any]]
    ) -> Tuple[ResultSet, NodeStats, float]:
        """Run ``plan`` with every node's rows() counted and timed.

        Instrumentation shadows each node's ``rows`` with an instance
        attribute and is unconditionally removed afterwards — the plan
        instance may live in the plan cache and must come back pristine.
        """
        nodes = list(walk_plan(plan.root))
        # Keyed by id(): ``nodes`` holds every plan node until the stats
        # tree is linked, so no key can be reused by another object.
        stats: Dict[int, NodeStats] = {}
        try:
            for node in nodes:
                stats[id(node)] = _attach_node_stats(node)
            started = time.perf_counter()
            columns, rows = plan.run()
            total_ms = (time.perf_counter() - started) * 1000.0
        finally:
            for node in nodes:
                node.__dict__.pop("rows", None)
                node.__dict__.pop("lookup", None)
        root = _link_node_stats(plan.root, stats)
        return ResultSet(columns, rows), root, total_ms

    def explain(self, sql: str) -> str:
        statement = parse_statement(sql)
        with self.database.rwlock.read_locked():
            return self._explain_parsed(statement)

    def _explain_parsed(self, statement: Statement) -> str:
        if isinstance(statement, SelectStatement):
            return "\n".join(plan_select(self.database, statement).describe())
        if isinstance(statement, UnionStatement):
            lines: List[str] = [
                "Union" + (" All" if statement.all else "")
            ]
            for part in statement.parts:
                lines.extend(
                    "  " + line
                    for line in plan_select(self.database, part).describe()
                )
            return "\n".join(lines)
        raise PlannerError("EXPLAIN supports only SELECT statements")

    # -- queries -----------------------------------------------------------

    def plan_for(
        self, statement: SelectStatement, canonical: Optional[str] = None
    ) -> Tuple[QueryPlan, bool]:
        """Fetch a valid cached plan for ``statement``, or plan and cache it.

        Returns ``(plan, was_cached)``.  Cache entries are keyed by the
        statement's canonical SQL text plus its parameter base (a UNION
        arm's ``?`` placeholders are numbered after the preceding arms',
        so identical text can carry different parameter indices) and
        served only while their :func:`~repro.minidb.plancache.plan_stamp`
        holds; a stale entry is a miss and is re-planned here.
        """
        database = self.database
        if canonical is None:
            canonical = statement.to_sql()
        key = (canonical, getattr(statement, "parameter_base", 0))
        cache = database._plan_cache
        plan = cache.get(key)
        if plan is not None:
            if OBS.enabled:
                OBS.metrics.inc("minidb.plan_cache.hit")
            return plan, True
        plan = plan_select(database, statement)
        cache.put(key, plan, plan)
        if OBS.enabled:
            OBS.metrics.inc("minidb.plan_cache.miss")
        return plan, False

    def _run_select(
        self,
        statement: SelectStatement,
        params: Optional[Sequence[Any]] = None,
        canonical: Optional[str] = None,
    ) -> ResultSet:
        if not OBS.enabled:
            plan, _cached = self.plan_for(statement, canonical)
            # Cached plans are shared: binding and running must not
            # interleave with another thread executing the same plan.
            with plan.exec_lock:
                plan.bind_parameters(params or ())
                columns, rows = plan.run()
            return ResultSet(columns, rows)
        with OBS.tracer.span("minidb.select") as span:
            started = time.perf_counter()
            plan, cached = self.plan_for(statement, canonical)
            with plan.exec_lock:
                plan.bind_parameters(params or ())
                columns, rows = plan.run()
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            # One text per statement shape: the bound values are what
            # says *which* execution this was (as SQL literals, so a slow
            # entry can be replayed).
            attrs = {
                "rows": len(rows),
                "cached": cached,
                "params": [Literal(value).to_sql() for value in params or ()],
            }
            span.set(**attrs)
            OBS.metrics.inc("minidb.select.count")
            OBS.metrics.observe("minidb.select.ms", elapsed_ms)
            if elapsed_ms >= OBS.slow_log.threshold_ms:
                sql = canonical if canonical is not None else statement.to_sql()
                OBS.slow_log.offer(
                    sql,
                    elapsed_ms,
                    plan="\n".join(plan.describe()),
                    attrs=attrs,
                )
        return ResultSet(columns, rows)

    def _run_explain(
        self,
        statement: ExplainStatement,
        params: Optional[Sequence[Any]] = None,
    ) -> ResultSet:
        if statement.analyze:
            # EXPLAIN ANALYZE runs the query and returns the annotated
            # plan (the rows themselves come back via Database.analyze).
            report = self._analyze_select(statement.query, params=params)
            return ResultSet(
                ["QUERY PLAN"], [(line,) for line in report.lines]
            )
        plan, cached = self.plan_for(statement.query)
        lines = plan.describe()
        if cached:
            lines[0] += " [cached]"
        return ResultSet(["QUERY PLAN"], [(line,) for line in lines])

    def _run_union(
        self,
        statement: UnionStatement,
        params: Optional[Sequence[Any]] = None,
    ) -> ResultSet:
        results = [
            self._run_select(part, params=params) for part in statement.parts
        ]
        width = len(results[0].columns)
        for result in results[1:]:
            if len(result.columns) != width:
                raise ExecutionError(
                    "UNION parts have different column counts: "
                    f"{width} vs {len(result.columns)}"
                )
        rows: List[Row] = []
        if statement.all:
            for result in results:
                rows.extend(result.rows)
        else:
            seen = set()
            for result in results:
                for row in result.rows:
                    if row not in seen:
                        seen.add(row)
                        rows.append(row)
        columns = results[0].columns
        if statement.order_by:
            from repro.minidb.expressions import ColumnRef, order_key

            positions = []
            for item in statement.order_by:
                expression = item.expression
                if not isinstance(expression, ColumnRef) or expression.qualifier:
                    raise PlannerError(
                        "UNION ORDER BY must reference output column names"
                    )
                lowered = expression.column.lower()
                matches = [
                    index
                    for index, column in enumerate(columns)
                    if column.lower() == lowered
                ]
                if not matches:
                    raise UnknownColumnError(
                        f"UNION output has no column {expression.column!r}"
                    )
                positions.append((matches[0], item.descending))
            rows.sort(
                key=lambda row: order_key(
                    [row[position] for position, _d in positions],
                    [descending for _p, descending in positions],
                )
            )
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return ResultSet(columns, rows)

    # -- DML ---------------------------------------------------------------

    def _constant_env(self, params: Optional[Sequence[Any]] = None) -> Env:
        env: Env = {"__functions__": self.database.functions}
        if params is not None:
            env["__params__"] = tuple(params)
        return env

    def _run_insert(
        self,
        statement: InsertStatement,
        params: Optional[Sequence[Any]] = None,
    ) -> int:
        table = self.database.table(statement.table)
        if statement.select is not None:
            source = self._run_select(statement.select, params=params)
            count = 0
            for row in source.rows:
                if statement.columns is not None:
                    if len(row) != len(statement.columns):
                        raise SchemaError(
                            f"INSERT SELECT yields {len(row)} values for "
                            f"{len(statement.columns)} columns"
                        )
                    table.insert_dict(dict(zip(statement.columns, row)))
                else:
                    table.insert(list(row))
                count += 1
            return count
        env = self._constant_env(params)
        count = 0
        for row_exprs in statement.rows:
            values = [expression.evaluate(env) for expression in row_exprs]
            if statement.columns is not None:
                if len(values) != len(statement.columns):
                    raise SchemaError(
                        f"INSERT has {len(values)} values for "
                        f"{len(statement.columns)} columns"
                    )
                record = dict(zip(statement.columns, values))
                table.insert_dict(record)
            else:
                table.insert(values)
            count += 1
        return count

    def _row_env(
        self, table: Any, row: Row, params: Optional[Sequence[Any]] = None
    ) -> Env:
        env = self._constant_env(params)
        for column, value in zip(table.schema.columns, row):
            lowered = column.name.lower()
            env[lowered] = value
            env[f"{table.name.lower()}.{lowered}"] = value
        return env

    def _run_update(
        self,
        statement: UpdateStatement,
        params: Optional[Sequence[Any]] = None,
    ) -> int:
        table = self.database.table(statement.table)
        positions = {
            column.lower(): table.schema.column_position(column)
            for column, _expression in statement.assignments
        }

        def matches(row: Row) -> bool:
            if statement.where is None:
                return True
            env = self._row_env(table, row, params)
            return statement.where.evaluate(env) is True

        def transform(row: Row) -> Sequence[Any]:
            env = self._row_env(table, row, params)
            new_row = list(row)
            for column, expression in statement.assignments:
                new_row[positions[column.lower()]] = expression.evaluate(env)
            return new_row

        return table.update_where(matches, transform)

    def _run_delete(
        self,
        statement: DeleteStatement,
        params: Optional[Sequence[Any]] = None,
    ) -> int:
        table = self.database.table(statement.table)

        def matches(row: Row) -> bool:
            if statement.where is None:
                return True
            env = self._row_env(table, row, params)
            return statement.where.evaluate(env) is True

        return table.delete_where(matches)

    # -- DDL ------------------------------------------------------------------

    def _run_create_table(self, statement: CreateTableStatement) -> None:
        if statement.if_not_exists and self.database.has_table(statement.name):
            return None
        pk_lower = {name.lower() for name in statement.primary_key}
        columns = tuple(
            Column(
                definition.name,
                definition.dtype,
                nullable=not definition.not_null
                and definition.name.lower() not in pk_lower,
            )
            for definition in statement.columns
        )
        schema = TableSchema(
            name=statement.name,
            columns=columns,
            primary_key=statement.primary_key,
            unique_keys=statement.unique_keys,
            foreign_keys=statement.foreign_keys,
        )
        self.database.create_table(schema)
        return None
