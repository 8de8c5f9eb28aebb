"""Prepared statements and the plan/statement caches.

This is the statement-to-execution fast path: repeated SQL skips the
lexer, the parser, and the planner.

Two cache layers cooperate:

* a **statement cache** (module-level, parse is pure) mapping raw SQL text
  to its parsed statement, its canonical rendering, and its ``?`` count;
* a **plan cache** (one :class:`~repro.caching.VersionedMemo` per
  :class:`~repro.minidb.catalog.Database`) mapping a SELECT's
  ``(canonical text, parameter base)`` to its plan — the base
  distinguishes UNION arms whose text matches a standalone statement but
  whose ``?`` placeholders are numbered after the preceding arms'.

A cached plan is stamped with :func:`plan_stamp`: the database's schema
epoch (bumped by all DDL), the function-registry version, each referenced
table's ``indexed_version`` (bumped by index attach/detach), and — for
plans whose IN/EXISTS subqueries were snapshotted at plan time — each
table's ``data_version``.  A hit whose stamp moved is a miss: the plan is
transparently rebuilt from the already-parsed statement, so callers never
observe staleness.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import ExecutionError

__all__ = [
    "PreparedStatement",
    "plan_stamp",
    "parsed_statement",
    "clear_statement_cache",
]


def plan_stamp(database: Any, plan: Any) -> List[int]:
    """What a cached ``plan`` of ``database`` stays valid for."""
    stamp = [database.schema_epoch, database.functions.version]
    tables = plan.tables
    for table in tables:
        stamp.append(table.indexed_version)
    if plan.uses_snapshot:
        # Resolved IN/EXISTS subqueries baked row data into literals.
        for table in tables:
            stamp.append(table.data_version)
    return stamp


# Parsing is pure, so parsed statements are shared across databases.
_STATEMENT_CACHE = LRUCache(maxsize=512)


def parsed_statement(sql: str) -> Tuple[Any, Optional[str], int]:
    """Parse (with caching) one statement.

    Returns ``(statement, canonical, parameter_count)`` where
    ``canonical`` is the statement's ``to_sql()`` rendering for SELECTs
    (the text component of the plan-cache key — equivalent queries that
    differ only in formatting share one plan) and ``None`` for
    everything else.
    """
    cached = _STATEMENT_CACHE.get(sql)
    if cached is not None:
        return cached
    from repro.minidb.sql.ast import SelectStatement
    from repro.minidb.sql.parser import parse_statement

    statement = parse_statement(sql)
    canonical = (
        statement.to_sql() if isinstance(statement, SelectStatement) else None
    )
    entry = (statement, canonical, getattr(statement, "parameter_count", 0))
    _STATEMENT_CACHE.put(sql, entry)
    return entry


def clear_statement_cache() -> None:
    _STATEMENT_CACHE.clear()


class PreparedStatement:
    """A re-executable handle for one SQL statement with ``?`` binding.

    >>> statement = db.prepare("SELECT Title FROM Courses WHERE CourseID = ?")
    >>> statement.execute(210).scalar()

    Execution routes through the owning database's plan cache, so the
    plan is built once and transparently re-planned after DDL or after
    DML that invalidates it.  Bindings are re-installed fresh on every
    ``execute`` and never leak between executions.
    """

    def __init__(self, database: Any, sql: str) -> None:
        self.database = database
        self.sql = sql
        statement, canonical, parameter_count = parsed_statement(sql)
        self.statement = statement
        self.canonical = canonical
        self.parameter_count = parameter_count
        # Plan SELECTs eagerly: prepare() fails fast on bad references and
        # the first execute() is already warm.
        if canonical is not None:
            database._get_executor().plan_for(statement, canonical)

    def execute(self, *params: Any) -> Any:
        if len(params) != self.parameter_count:
            raise ExecutionError(
                f"prepared statement expects {self.parameter_count} "
                f"parameter(s), got {len(params)}"
            )
        executor = self.database._get_executor()
        return executor.execute_statement(
            self.statement, params=params, canonical=self.canonical
        )

    def query(self, *params: Any) -> Any:
        """Execute and require a ResultSet (SELECT/UNION statements)."""
        from repro.minidb.executor import ResultSet

        result = self.execute(*params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def explain(self) -> str:
        """Render the plan this statement would execute right now."""
        if self.canonical is None:
            raise ExecutionError("explain() requires a SELECT statement")
        plan, _cached = self.database._get_executor().plan_for(
            self.statement, self.canonical
        )
        return "\n".join(plan.describe())
