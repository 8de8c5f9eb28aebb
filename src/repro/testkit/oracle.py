"""Execute rendered cases on minidb and sqlite3 and compare results.

minidb runs under a **config sweep** — every query in a case is executed
under each of:

* ``row-cold``  — each query once;
* ``row-warm``  — each query twice, so the second run goes through the
  plan cache (and through transparent re-planning when interleaved
  DML/DDL invalidated the entry);
* ``prepared``  — ``PreparedStatement`` handles, executed twice.

Each sweep's outcomes are compared against one sqlite3 run of the same
case; additionally, repeated executions *within* a config must agree
(the cold-vs-warm metamorphic check).

A second metamorphic check needs no oracle (:func:`check_bound_plans`):
each query is rendered twice, once with every WHERE constant written as
a literal and once with each bound through a ``?``; the two must
``EXPLAIN`` alike modulo the constant — a ``?`` reaches every index a
literal does — and return the same rows in the same order.

A third (:func:`check_derived_pushdown`) holds each query over a derived
table to its unpushed twin — the same body behind a LIMIT no table
reaches, which the planner never pushes into: the same rows in the same
order, or an error on both; the sweep holds the pushed form to sqlite3.

Comparison rules (the type/NULL-aware coercion layer):

* result rows are compared as **multisets** — both engines are free to
  emit rows in any order unless the query's ORDER BY totalizes it, in
  which case the generator guarantees determinism and the multiset view
  is still sufficient;
* ``bool`` normalizes to ``int`` and ``datetime.date`` to its ISO
  string (sqlite has neither type);
* ``int``/``float`` stay distinct but compare with Python's cross-type
  ``==`` (``2 == 2.0``), absorbing affinity differences;
* floats are compared **exactly** — the generator's value domain (exact
  quarters, aggregates over plain columns) makes every float result
  bit-deterministic in both engines;
* DML outcomes compare affected-row counts; DDL only that both engines
  accepted it; errors compare by parity only (both-raise is error
  parity, not a divergence — generator bugs surface through the
  ``error_ops`` counter instead).
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.dialects import MINIDB_DIALECT, SQLITE_DIALECT
from repro.testkit.dialects import (
    MINIDB,
    RenderedCase,
    RenderedScript,
    render_case,
    render_op,
    render_query,
)
from repro.testkit.generators import (
    Agg,
    Capabilities,
    Case,
    CaseGenerator,
    QueryOp,
    with_literals,
    with_parameters,
)

__all__ = [
    "MiniConfig",
    "SWEEP",
    "Outcome",
    "CaseReport",
    "DifferentialReport",
    "run_minidb",
    "run_sqlite",
    "run_rendered",
    "check_bound_plans",
    "check_derived_pushdown",
    "run_case",
    "case_fails",
    "run_differential",
    "load_seed",
]


@dataclass(frozen=True)
class MiniConfig:
    name: str
    prepared: bool = False
    repeat: int = 1


SWEEP: Tuple[MiniConfig, ...] = (
    MiniConfig("row-cold"),
    MiniConfig("row-warm", repeat=2),
    MiniConfig("prepared", prepared=True, repeat=2),
)


# ---------------------------------------------------------------------------
# outcomes and normalization
# ---------------------------------------------------------------------------


def normalize_value(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    if hasattr(value, "isoformat") and not isinstance(value, str):
        return value.isoformat()
    return value


def _value_key(value: Any) -> Tuple[int, float, str]:
    """A total sort key over the normalized value domain (None, numbers,
    strings) that agrees across engines."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def normalize_rows(rows: Sequence[Sequence[Any]]) -> Tuple[Tuple[Any, ...], ...]:
    normalized = [
        tuple(normalize_value(value) for value in row) for row in rows
    ]
    normalized.sort(key=lambda row: tuple(_value_key(v) for v in row))
    return tuple(normalized)


@dataclass(frozen=True)
class Outcome:
    kind: str  # rows | count | ok | error
    columns: int = 0
    rows: Tuple[Tuple[Any, ...], ...] = ()
    count: int = 0
    error: str = ""

    def signature(self) -> Tuple[Any, ...]:
        if self.kind == "rows":
            return ("rows", self.columns, self.rows)
        if self.kind == "count":
            return ("count", self.count)
        # Engines word their errors differently; parity is the contract.
        return (self.kind,)

    def brief(self) -> str:
        if self.kind == "rows":
            shown = ", ".join(repr(row) for row in self.rows[:4])
            suffix = ", ..." if len(self.rows) > 4 else ""
            return f"{len(self.rows)} row(s): [{shown}{suffix}]"
        if self.kind == "count":
            return f"count={self.count}"
        if self.kind == "error":
            return f"error: {self.error}"
        return "ok"


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_minidb(
    script: RenderedScript,
    config: MiniConfig,
    transform: Optional[Callable[[str], str]] = None,
) -> Tuple[List[Outcome], List[str]]:
    """Execute a rendered script on a fresh minidb under one config.

    ``transform`` rewrites each query's SQL before execution — the hook
    the planted-bug tests use to model a broken engine.  Returns the
    per-op outcomes plus any **intra-config** divergences (a repeated
    execution disagreeing with its own first run, i.e. a stale cache).
    """
    from repro.minidb import Database

    database = Database()
    for ddl in script.create:
        database.execute(ddl)
    outcomes: List[Outcome] = []
    intra: List[str] = []
    prepared_cache: Dict[str, Any] = {}
    for position, op in enumerate(script.ops):
        sql = op.sql
        if transform is not None and op.kind == "query":
            sql = transform(sql)
        repeats = config.repeat if op.kind == "query" else 1
        first: Optional[Outcome] = None
        for run in range(repeats):
            outcome = _minidb_one(
                database, config, prepared_cache, op.kind, sql, op.params
            )
            if first is None:
                first = outcome
            elif outcome.signature() != first.signature():
                intra.append(
                    f"op[{position}] config={config.name} run {run + 1} "
                    f"disagrees with its first run: "
                    f"{outcome.brief()} != {first.brief()} :: {sql}"
                )
        outcomes.append(first)  # type: ignore[arg-type]
    return outcomes, intra


def _minidb_one(
    database: Any,
    config: MiniConfig,
    prepared_cache: Dict[str, Any],
    kind: str,
    sql: str,
    params: Tuple[Any, ...],
) -> Outcome:
    bound = [MINIDB_DIALECT.bind(value) for value in params]
    try:
        if kind == "query":
            if config.prepared:
                statement = prepared_cache.get(sql)
                if statement is None:
                    statement = database.prepare(sql)
                    prepared_cache[sql] = statement
                result = statement.query(*bound)
            else:
                result = database.query(sql, bound or None)
            return Outcome(
                "rows",
                columns=len(result.columns),
                rows=normalize_rows(result.rows),
            )
        result = database.execute(sql, bound or None)
        if kind in ("insert", "update", "delete"):
            return Outcome("count", count=int(result))
        return Outcome("ok")
    except Exception as exc:  # noqa: BLE001 - error parity is the contract
        return Outcome("error", error=f"{type(exc).__name__}: {exc}")


def run_sqlite(script: RenderedScript) -> List[Outcome]:
    connection = sqlite3.connect(":memory:")
    try:
        for ddl in script.create:
            connection.execute(ddl)
        outcomes: List[Outcome] = []
        for op in script.ops:
            bound = [SQLITE_DIALECT.bind(value) for value in op.params]
            try:
                cursor = connection.execute(op.sql, bound)
                if op.kind == "query":
                    rows = cursor.fetchall()
                    columns = (
                        len(cursor.description) if cursor.description else 0
                    )
                    outcomes.append(
                        Outcome("rows", columns=columns,
                                rows=normalize_rows(rows))
                    )
                elif op.kind in ("insert", "update", "delete"):
                    outcomes.append(Outcome("count", count=cursor.rowcount))
                else:
                    outcomes.append(Outcome("ok"))
            except sqlite3.Error as exc:
                outcomes.append(
                    Outcome("error", error=f"{type(exc).__name__}: {exc}")
                )
        return outcomes
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass
class CaseReport:
    divergences: List[str] = field(default_factory=list)
    query_ops: int = 0
    error_ops: int = 0
    #: queries whose ``?`` rendering planned an index or primary-key
    #: access by bound value (coverage of :func:`check_bound_plans`)
    bound_index_routes: int = 0
    #: derived-table queries whose outer WHERE the planner carried onto
    #: an index (coverage of :func:`check_derived_pushdown`)
    derived_pushes: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def run_rendered(
    rendered: RenderedCase,
    sweep: Sequence[MiniConfig] = SWEEP,
    mini_transform: Optional[Callable[[str], str]] = None,
) -> CaseReport:
    """Run one rendered case through the full sweep vs the oracle."""
    report = CaseReport(query_ops=rendered.query_count)
    expected = run_sqlite(rendered.sqlite)
    error_positions = {
        index for index, outcome in enumerate(expected)
        if outcome.kind == "error"
    }
    for config in sweep:
        got, intra = run_minidb(rendered.minidb, config, mini_transform)
        report.divergences.extend(intra)
        for index, (mine, theirs) in enumerate(zip(got, expected)):
            if mine.kind == "error":
                error_positions.add(index)
            if mine.signature() != theirs.signature():
                sql = rendered.minidb.ops[index].sql
                report.divergences.append(
                    f"op[{index}] config={config.name}: minidb "
                    f"{mine.brief()} != sqlite {theirs.brief()} :: {sql}"
                )
    report.error_ops = len(error_positions)
    return report


#: what differs between a query's two renderings in EXPLAIN text: a
#: ``?``/``?N`` on one side, the literal it binds on the other
_CONSTANT = re.compile(
    r"\?\d*|DATE '[^']*'|'(?:[^']|'')*'|\b\d+(?:\.\d+)?(?:e[+-]?\d+)?\b"
    r"|\bTRUE\b|\bFALSE\b"
)
_BOUND_ROUTE = re.compile(r"IndexScan\([^\n]*\?\d")


def _plan_and_rows(
    database: Any, sql: str, params: Optional[List[Any]]
) -> Tuple[str, Any]:
    """``(EXPLAIN text, rows)`` of one rendering; an error is an outcome."""
    try:
        plan = database.query("EXPLAIN " + sql, params).column("QUERY PLAN")
        rows = database.query(sql, params).rows
    except Exception as exc:  # noqa: BLE001 - error parity is the contract
        return type(exc).__name__, None
    return "\n".join(plan).replace(" [cached]", ""), rows


def _replayed_queries(case: Case):
    """A fresh minidb loaded with ``case``: yields ``(position, database,
    query)`` per query op, executing every other op as it is reached."""
    from repro.minidb import Database

    database = Database()
    for ddl in render_case(case).minidb.create:
        database.execute(ddl)
    for position, op in enumerate(case.ops):
        if isinstance(op, QueryOp):
            yield position, database, op.query
            continue
        for rendered in render_op(op, MINIDB):
            try:
                database.execute(rendered.sql, list(rendered.params) or None)
            except Exception:  # noqa: BLE001 - the sweep reports these
                pass


def check_bound_plans(case: Case) -> Tuple[int, List[str]]:
    """Replay ``case`` on a fresh minidb, holding every query's ``?``
    rendering to its literal rendering: same plan shape, same rows.

    Returns ``(bound index routes seen, divergences)``.
    """
    routes = 0
    divergences: List[str] = []
    for position, database, query in _replayed_queries(case):
        literal = with_literals(query)
        params: List[Any] = []
        bound_sql = render_query(with_parameters(literal), MINIDB, params)
        if not params:
            continue
        literal_sql = render_query(literal, MINIDB)
        params = [MINIDB_DIALECT.bind(value) for value in params]
        literal_plan, literal_rows = _plan_and_rows(database, literal_sql, None)
        bound_plan, bound_rows = _plan_and_rows(database, bound_sql, params)
        if _BOUND_ROUTE.search(bound_plan):
            routes += 1
        where = f"op[{position}]: ?-rendering vs literal rendering"
        if _CONSTANT.sub("#", bound_plan) != _CONSTANT.sub("#", literal_plan):
            divergences.append(
                f"{where} plan differently:\n{bound_plan}\n--- vs "
                f"---\n{literal_plan}\n:: {bound_sql} {params!r}"
            )
        elif bound_rows != literal_rows:
            divergences.append(
                f"{where} answer differently: {bound_rows!r} != "
                f"{literal_rows!r} :: {bound_sql} {params!r}"
            )
    return routes, divergences


#: a LIMIT no generated table reaches: it leaves a derived body's rows
#: and their order alone, and the planner never pushes into it
_NEVER_REACHED = 2 ** 31 - 1


def _pushable(body: Any) -> bool:
    """Whether the planner may push an outer WHERE into ``body``."""
    return not (
        body.distinct
        or body.limit is not None
        or body.group_by
        or any(isinstance(expr, Agg) for expr, _alias in body.items or ())
    )


def check_derived_pushdown(case: Case) -> Tuple[int, List[str]]:
    """Replay ``case`` on a fresh minidb, holding every query over a
    derived body (``Source.body``) to its unpushed twin: the same rows in
    the same order, or an error on both.
    The plan must say whether the push fired: no Filter on the body's
    columns above a projecting or joining body, one above a grouping,
    DISTINCT or LIMIT body.

    Returns ``(pushes that reached an index, divergences)``.
    """
    pushes = 0
    divergences: List[str] = []
    for position, database, query in _replayed_queries(case):
        body = query.source.body
        if body is None or query.where is None:
            continue
        params: List[Any] = []
        sql = render_query(query, MINIDB, params)
        params = [MINIDB_DIALECT.bind(value) for value in params]
        pushable = _pushable(body)
        barrier = replace(body, limit=_NEVER_REACHED)
        twin = replace(query, source=replace(query.source, body=barrier))
        twin_sql = render_query(twin, MINIDB)
        scan = f"SubqueryScan(AS {query.source.alias})"
        column = f"{query.source.alias}."
        plan, rows = _plan_and_rows(database, sql, params)
        twin_rows = _plan_and_rows(database, twin_sql, params)[1]
        where = f"op[{position}]"
        if pushable and rows != twin_rows:
            divergences.append(
                f"{where}: pushed and unpushed answer differently: "
                f"{rows!r} != {twin_rows!r} :: {sql} vs {twin_sql} "
                f"{params!r}"
            )
        if rows is None:
            continue  # an error on both sides: nothing planned to read
        lines = plan.split("\n")
        above = next(
            (lines[:i] for i, line in enumerate(lines) if scan in line), None
        )
        filtered = above is not None and any(
            line.strip().startswith("Filter(") and column in line
            for line in above
        )
        if above is None or filtered == pushable:
            divergences.append(
                f"{where}: the outer WHERE should "
                f"{'move into' if pushable else 'stay above'} the "
                f"{scan}:\n{plan}\n:: {sql}"
            )
        elif pushable and "IndexScan(" in plan:
            pushes += 1
    return pushes, divergences


def run_case(
    case: Case,
    sweep: Sequence[MiniConfig] = SWEEP,
    mini_transform: Optional[Callable[[str], str]] = None,
) -> CaseReport:
    report = run_rendered(render_case(case), sweep, mini_transform)
    report.bound_index_routes, bound = check_bound_plans(case)
    report.divergences.extend(bound)
    report.derived_pushes, pushed = check_derived_pushdown(case)
    report.divergences.extend(pushed)
    return report


def case_fails(
    sweep: Sequence[MiniConfig] = SWEEP,
    mini_transform: Optional[Callable[[str], str]] = None,
) -> Callable[[Case], bool]:
    """A ``fails(case) -> bool`` predicate for the shrinker."""

    def fails(case: Case) -> bool:
        return not run_case(case, sweep, mini_transform).ok

    return fails


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------


@dataclass
class CaseFailure:
    seed: int
    case: Case
    report: CaseReport


@dataclass
class DifferentialReport:
    cases: int = 0
    query_ops: int = 0
    error_ops: int = 0
    failures: List[CaseFailure] = field(default_factory=list)


def run_differential(
    min_query_ops: int = 200,
    base_seed: int = 0,
    caps: Optional[Capabilities] = None,
    sweep: Sequence[MiniConfig] = SWEEP,
    mini_transform: Optional[Callable[[str], str]] = None,
    max_cases: int = 10_000,
    stop_on_failure: bool = False,
) -> DifferentialReport:
    """Generate and check cases until ``min_query_ops`` query executions
    have been compared against the oracle (each counted once per case,
    not per sweep config)."""
    report = DifferentialReport()
    seed = base_seed
    while report.query_ops < min_query_ops and report.cases < max_cases:
        case = CaseGenerator(seed, caps).case()
        case_report = run_case(case, sweep, mini_transform)
        report.cases += 1
        report.query_ops += case_report.query_ops
        report.error_ops += case_report.error_ops
        if not case_report.ok:
            report.failures.append(CaseFailure(seed, case, case_report))
            if stop_on_failure:
                break
        seed += 1
    return report


def load_seed(path: Any) -> RenderedCase:
    """Load a corpus seed written by :func:`repro.testkit.minimize.write_repro`."""
    import json
    import pathlib

    from repro.testkit.dialects import rendered_from_dict

    data = json.loads(pathlib.Path(path).read_text())
    return rendered_from_dict(data)
