"""Physical planning for SELECT statements.

The planner turns a parsed :class:`SelectStatement` into a tree of plan
nodes, applying three classic optimizations:

* **predicate pushdown** — WHERE conjuncts that reference a single base
  table move into that table's scan (and can then use an index),
  conjuncts on a derived table's plain columns move into its body first,
  and a hash join's ON conjuncts on its right input alone filter that
  input before the build;
* **index selection** — a pushed equality conjunct on an indexed column
  becomes an index lookup; range conjuncts use a sorted index;
* **hash joins** — INNER/LEFT joins whose ON condition contains
  equi-conjuncts between the two sides build a hash table on the right
  input instead of a nested loop.

Rows flowing through the plan are *environments*: dicts mapping column
names (``binding.column`` and, when unambiguous, bare ``column``) to
values, plus the reserved ``__functions__`` registry entry.  This uniform
representation keeps expression evaluation identical across scans, joins,
aggregation and sorting.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence
from typing import Set, Tuple, Union

from repro.errors import (
    AmbiguousColumnError,
    PlannerError,
    UnknownColumnError,
)
from repro.minidb.expressions import (
    AMBIGUOUS,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Env,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Parameter,
    UnaryOp,
    _compare,
    conjoin,
    conjuncts,
    order_key,
)
from repro.minidb.sql.ast import (
    AggregateRef,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    SubqueryRef,
    TableRef,
)

Row = Tuple[Any, ...]

def _env_columns(
    keys: Sequence[Tuple[int, str, Optional[str]]]
) -> List[Tuple[int, str]]:
    """``(row_index, env_key)`` pairs for :func:`_emit_row`, from
    ``(row_index, qualified_name, bare_name_or_None)`` triples: each
    column under its qualified name and, when unambiguous, its bare
    name.  Row indices need not be contiguous (pruned scans skip columns
    nothing references)."""
    columns: List[Tuple[int, str]] = []
    for index, qualified, bare in keys:
        columns.append((index, qualified))
        if bare:
            columns.append((index, bare))
    return columns


def _emit_row(base_env: Env, columns: List[Tuple[int, str]], row: Row) -> Env:
    """A fresh env for ``row``: the scope's base env plus its columns."""
    env = base_env.copy()
    for index, name in columns:
        env[name] = row[index]
    return env


def _equi_key(expressions: Sequence[Expression]) -> Callable[[Env], Any]:
    """An env's equi-join key: the one expression's value, or the tuple of
    all of them — None when any part is NULL, which never equi-joins."""
    if len(expressions) == 1:
        return expressions[0].evaluate

    def key(env: Env) -> Optional[Tuple[Any, ...]]:
        parts = tuple([expression.evaluate(env) for expression in expressions])
        return None if None in parts else parts

    return key


class Binding:
    """One FROM-clause input: its name and the columns it exposes."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = list(columns)
        self.column_set = {column.lower() for column in columns}


class PlanNode:
    """Base class for physical plan operators."""

    #: env keys this subtree contributes (used for LEFT-join NULL padding)
    env_keys: List[str]


class ScanNode(PlanNode):
    """Sequential or index-assisted scan of a base table."""

    def __init__(
        self,
        table: Any,
        binding: Binding,
        base_env: Env,
        bare_columns: Set[str],
        predicate: Optional[Expression] = None,
        access: Optional["IndexAccess"] = None,
        needed: Optional[Set[str]] = None,
    ) -> None:
        self.table = table
        self.binding = binding
        self.base_env = base_env
        self.predicate = predicate
        self.access = access
        prefix = binding.name.lower() + "."
        self._keys = []
        for index, column in enumerate(table.schema.column_names):
            lowered = column.lower()
            qualified = prefix + lowered
            if (
                needed is not None
                and qualified not in needed
                and lowered not in needed
            ):
                continue  # nothing in the statement can touch this column
            bare = lowered if lowered in bare_columns else None
            if bare and needed is not None and lowered not in needed:
                bare = None  # only qualified references exist
            self._keys.append((index, qualified, bare))
        self.env_keys = [qualified for _index, qualified, _bare in self._keys] + [
            bare for _index, _qualified, bare in self._keys if bare
        ]
        self.columns = _env_columns(self._keys)

    def rows(self) -> Iterator[Env]:
        base_env = self.base_env
        source = (
            self.access.rows(self.table, base_env)
            if self.access is not None
            else self.table.rows()
        )
        columns = self.columns
        predicate = self.predicate
        for row in source:
            env = _emit_row(base_env, columns, row)
            if predicate is None or predicate.evaluate(env) is True:
                yield env

    def describe(self) -> List[str]:
        if self.access is not None:
            line = f"IndexScan({self.table.name} AS {self.binding.name} {self.access.describe()})"
        else:
            line = f"SeqScan({self.table.name} AS {self.binding.name})"
        if self.predicate is not None:
            line += f" filter={self.predicate.to_sql()}"
        return [line]


def _operand_text(operand: Expression) -> str:
    """An index-key operand as EXPLAIN shows it: ``?N`` or the literal."""
    if isinstance(operand, Parameter):
        return f"?{operand.index + 1}"
    return operand.to_sql()


def _key_text(operands: Sequence[Expression]) -> str:
    return "(" + ", ".join(_operand_text(operand) for operand in operands) + ")"


def _resolve_key(
    operands: Sequence[Expression], env: Env
) -> Optional[Tuple[Any, ...]]:
    """This execution's key values, or None when any of them is NULL.

    The conjunct behind each operand was consumed by the access path, and
    ``col = NULL`` (``<``, ``>``...) is never TRUE: a NULL-bound key
    matches nothing.
    """
    key = tuple(operand.evaluate(env) for operand in operands)
    if any(part is None for part in key):
        return None
    return key


def _tightest_bound(
    bounds: Sequence[Tuple[Expression, bool]], env: Env, tighter: str
) -> Optional[Tuple[Tuple[Any, ...], bool]]:
    """``(key, inclusive)`` of the tightest of one side's range bounds
    this execution (``tighter`` is ``>`` for lower bounds, ``<`` for
    upper), or None when one is NULL — then nothing can match."""
    best: Any = None
    best_inclusive = True
    for operand, inclusive in bounds:
        value = operand.evaluate(env)
        if value is None:
            return None
        if best is None or _compare(tighter, value, best):
            best, best_inclusive = value, inclusive
        elif value == best:
            best_inclusive = best_inclusive and inclusive
    return (best,), best_inclusive


class IndexAccess:
    """An access path through a secondary index.

    Key operands are expressions — literals or ``?`` parameters —
    resolved from the scope's base env on every execution, so one cached
    plan serves every binding.  ``lows``/``highs`` hold *every* consumed
    range conjunct on the column as ``(operand, inclusive)``; the tighter
    bound per side is picked per execution.
    """

    def __init__(
        self,
        index_info: Any,
        equal_key: Optional[Tuple[Expression, ...]] = None,
        lows: Sequence[Tuple[Expression, bool]] = (),
        highs: Sequence[Tuple[Expression, bool]] = (),
    ) -> None:
        self.index_info = index_info
        self.equal_key = equal_key
        self.lows = list(lows)
        self.highs = list(highs)

    def rowids(self, env: Env) -> List[int]:
        """Matching rowids in ascending order, which is scan order (see
        :mod:`repro.minidb.table`): the rows a full scan plus the consumed
        conjuncts would keep, in the order it would keep them."""
        index = self.index_info.index
        if self.equal_key is not None:
            key = _resolve_key(self.equal_key, env)
            return [] if key is None else list(index.find(key))
        low = high = None
        low_inclusive = high_inclusive = True
        if self.lows:
            bound = _tightest_bound(self.lows, env, ">")
            if bound is None:
                return []
            low, low_inclusive = bound
        if self.highs:
            bound = _tightest_bound(self.highs, env, "<")
            if bound is None:
                return []
            high, high_inclusive = bound
        return sorted(index.range(low, high, low_inclusive, high_inclusive))

    def rows(self, table: Any, env: Env) -> Iterator[Row]:
        for rowid in self.rowids(env):
            yield table.get(rowid)

    def describe(self) -> str:
        name = self.index_info.name
        if self.equal_key is not None:
            return f"using {name} = {_key_text(self.equal_key)}"
        bounds = [
            f"{'>=' if inclusive else '>'} {_key_text((operand,))}"
            for operand, inclusive in self.lows
        ] + [
            f"{'<=' if inclusive else '<'} {_key_text((operand,))}"
            for operand, inclusive in self.highs
        ]
        return f"using {name} range {' and '.join(bounds)}"


class PrimaryKeyAccess:
    """Point lookup through the table's primary-key map."""

    def __init__(self, key: Tuple[Expression, ...]) -> None:
        self.key = key

    def rows(self, table: Any, env: Env) -> Iterator[Row]:
        key = _resolve_key(self.key, env)
        if key is not None:
            row = table.lookup_pk(key)
            if row is not None:
                yield row

    def describe(self) -> str:
        return f"using primary key = {_key_text(self.key)}"


class SubqueryScanNode(PlanNode):
    """Executes a planned sub-select and streams its rows as env fragments."""

    def __init__(
        self,
        plan: "QueryPlan",
        binding: Binding,
        base_env: Env,
        bare_columns: Set[str],
    ) -> None:
        self.plan = plan
        self.binding = binding
        self.base_env = base_env
        prefix = binding.name.lower() + "."
        self._keys = []
        for index, column in enumerate(binding.columns):
            lowered = column.lower()
            bare = lowered if lowered in bare_columns else None
            self._keys.append((index, prefix + lowered, bare))
        self.env_keys = [qualified for _index, qualified, _bare in self._keys] + [
            bare for _index, _qualified, bare in self._keys if bare
        ]
        self.columns = _env_columns(self._keys)

    def rows(self) -> Iterator[Env]:
        _names, rows = self.plan.run()
        base_env = self.base_env
        columns = self.columns
        for row in rows:
            yield _emit_row(base_env, columns, row)

    def describe(self) -> List[str]:
        inner = ["  " + line for line in self.plan.describe()]
        return [f"SubqueryScan(AS {self.binding.name})"] + inner


def _describe_equi_join(kind: str, node: Any) -> List[str]:
    """EXPLAIN lines of a keyed join (``HashJoinNode``, ``LookupJoinNode``)."""
    keys = ", ".join(
        f"{l.to_sql()}={r.to_sql()}"
        for l, r in zip(node.left_keys, node.right_keys)
    )
    line = f"{'Left' if node.left_outer else ''}{kind}(on {keys})"
    if node.residual is not None:
        line += f" residual={node.residual.to_sql()}"
    return [line] + [
        "  " + inner for inner in node.left.describe() + node.right.describe()
    ]


class HashJoinNode(PlanNode):
    """Equi-join: builds a hash table on the right, probes with the left."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: List[Expression],
        right_keys: List[Expression],
        residual: Optional[Expression],
        left_outer: bool,
    ) -> None:
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.left_outer = left_outer
        self.env_keys = left.env_keys + right.env_keys

    def rows(self) -> Iterator[Env]:
        table: Dict[Any, List[Env]] = {}
        build_key = _equi_key(self.right_keys)
        for env in self.right.rows():
            key = build_key(env)
            if key is None:
                continue  # NULL never equi-joins
            bucket = table.get(key)
            if bucket is None:
                table[key] = [env]
            else:
                bucket.append(env)
        padding = {key: None for key in self.right.env_keys}
        probe_key = _equi_key(self.left_keys)
        residual = self.residual
        for left_env in self.left.rows():
            key = probe_key(left_env)
            matched = False
            if key is not None:
                for right_env in table.get(key, ()):
                    merged = {**left_env, **right_env}
                    if residual is None or residual.evaluate(merged) is True:
                        matched = True
                        yield merged
            if not matched and self.left_outer:
                yield {**left_env, **padding}

    def describe(self) -> List[str]:
        return _describe_equi_join("HashJoin", self)


class PrimaryKeyLookupNode(PlanNode):
    """The right side of a :class:`LookupJoinNode`: the bare table scan it
    replaces, probed by primary key instead of read.  Not a row source —
    it has ``lookup``, not ``rows`` — but a plan node all the same, so
    EXPLAIN shows the table and EXPLAIN ANALYZE counts its probes and
    its matches (``probes=`` and ``out=``)."""

    def __init__(self, scan: ScanNode) -> None:
        self.table = scan.table
        self.binding = scan.binding
        #: ``(row index, env key)`` per emitted column name
        self.columns = scan.columns
        self.env_keys = scan.env_keys

    def lookup(self, key: Tuple[Any, ...]) -> Optional[Row]:
        return self.table.lookup_pk(key)

    def describe(self) -> List[str]:
        return [f"PrimaryKeyLookup({self.table.name} AS {self.binding.name})"]


class LookupJoinNode(PlanNode):
    """Equi-join on the right table's whole primary key: one ``lookup_pk``
    per left row instead of a hash built over the table.

    At most one right row matches a probe, so everything observable is
    :class:`HashJoinNode`'s: left-major emission, a NULL key part never
    joins, the residual runs on the merged row, LEFT OUTER pads what
    found nothing.  ``left_keys`` are in primary-key column order.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PrimaryKeyLookupNode,
        left_keys: List[Expression],
        right_keys: List[Expression],
        residual: Optional[Expression],
        left_outer: bool,
    ) -> None:
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.left_outer = left_outer
        self.env_keys = left.env_keys + right.env_keys

    def rows(self) -> Iterator[Env]:
        lookup = self.right.lookup
        right_columns = self.right.columns
        padding = {key: None for key in self.right.env_keys}
        left_keys = self.left_keys
        residual = self.residual
        for left_env in self.left.rows():
            key = tuple(expr.evaluate(left_env) for expr in left_keys)
            matched = False
            if not any(part is None for part in key):
                row = lookup(key)
                if row is not None:
                    merged = _emit_row(left_env, right_columns, row)
                    if residual is None or residual.evaluate(merged) is True:
                        matched = True
                        yield merged
            if not matched and self.left_outer:
                yield {**left_env, **padding}

    def describe(self) -> List[str]:
        return _describe_equi_join("LookupJoin", self)


class NestedLoopJoinNode(PlanNode):
    """General join: materializes the right side, loops per left row."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Optional[Expression],
        left_outer: bool,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition
        self.left_outer = left_outer
        self.env_keys = left.env_keys + right.env_keys

    def rows(self) -> Iterator[Env]:
        right_rows = list(self.right.rows())
        padding = {key: None for key in self.right.env_keys}
        condition = self.condition
        for left_env in self.left.rows():
            matched = False
            for right_env in right_rows:
                merged = {**left_env, **right_env}
                if condition is None or condition.evaluate(merged) is True:
                    matched = True
                    yield merged
            if not matched and self.left_outer:
                yield {**left_env, **padding}

    def describe(self) -> List[str]:
        kind = "LeftNestedLoopJoin" if self.left_outer else "NestedLoopJoin"
        line = kind + (
            f"(on {self.condition.to_sql()})" if self.condition is not None else "(cross)"
        )
        return [line] + [
            "  " + inner for inner in self.left.describe() + self.right.describe()
        ]


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate
        self.env_keys = child.env_keys

    def rows(self) -> Iterator[Env]:
        predicate = self.predicate
        for env in self.child.rows():
            if predicate.evaluate(env) is True:
                yield env

    def describe(self) -> List[str]:
        return [f"Filter({self.predicate.to_sql()})"] + [
            "  " + line for line in self.child.describe()
        ]


class SingleRowNode(PlanNode):
    """FROM-less SELECT: one empty row carrying only the base env."""

    def __init__(self, base_env: Env) -> None:
        self.base_env = base_env
        self.env_keys = []

    def rows(self) -> Iterator[Env]:
        yield dict(self.base_env)

    def describe(self) -> List[str]:
        return ["SingleRow"]


class AggregateNode(PlanNode):
    """Hash aggregation over optional GROUP BY expressions.

    With no GROUP BY, a single global group is produced even over empty
    input (COUNT(*) of an empty table is 0).  Non-aggregated select
    expressions over grouped rows see a representative (first) row of each
    group, MySQL-style; the application schemas never rely on this.
    """

    def __init__(
        self,
        child: PlanNode,
        group_exprs: List[Expression],
        aggregate_calls: List[Any],
        base_env: Env,
        functions: Any,
    ) -> None:
        self.child = child
        self.group_exprs = group_exprs
        self.aggregate_calls = aggregate_calls
        self.base_env = base_env
        self.functions = functions
        self.env_keys = child.env_keys + [
            f"__agg_{index}" for index in range(len(aggregate_calls))
        ]

    def rows(self) -> Iterator[Env]:
        groups: Dict[Any, Dict[str, Any]] = {}
        order: List[Any] = []
        group_exprs = self.group_exprs
        arguments = [call.argument for call in self.aggregate_calls]
        for env in self.child.rows():
            key = tuple([expr.evaluate(env) for expr in group_exprs])
            state = groups.get(key)
            if state is None:
                state = (
                    env,
                    [
                        self.functions.aggregate(call.name)
                        for call in self.aggregate_calls
                    ],
                    [
                        set() if call.distinct else None
                        for call in self.aggregate_calls
                    ],
                )
                groups[key] = state
                order.append(key)
            for argument, accumulator, seen in zip(
                arguments, state[1], state[2]
            ):
                if argument is None:  # COUNT(*)
                    value: Any = 1
                else:
                    value = argument.evaluate(env)
                if seen is not None:
                    if value is None or value in seen:
                        continue
                    seen.add(value)
                accumulator.add(value)
        if not groups and not self.group_exprs:
            # Global aggregate over empty input.
            env = dict(self.base_env)
            for index, call in enumerate(self.aggregate_calls):
                accumulator = self.functions.aggregate(call.name)
                env[f"__agg_{index}"] = accumulator.result()
            yield env
            return
        for key in order:
            first_env, accumulators, _seen = groups[key]
            env = dict(first_env)
            for index, accumulator in enumerate(accumulators):
                env[f"__agg_{index}"] = accumulator.result()
            yield env

    def describe(self) -> List[str]:
        groups = ", ".join(expr.to_sql() for expr in self.group_exprs) or "<global>"
        calls = ", ".join(call.to_sql() for call in self.aggregate_calls)
        return [f"Aggregate(group by {groups}; {calls})"] + [
            "  " + line for line in self.child.describe()
        ]


class SortNode(PlanNode):
    def __init__(self, child: PlanNode, order_items: List[OrderItem]) -> None:
        self.child = child
        self.order_items = order_items
        self.env_keys = child.env_keys

    def rows(self) -> Iterator[Env]:
        materialized = list(self.child.rows())
        descending = [item.descending for item in self.order_items]
        keys = [item.expression for item in self.order_items]
        materialized.sort(
            key=lambda env: order_key(
                [expr.evaluate(env) for expr in keys],
                descending,
            )
        )
        return iter(materialized)

    def describe(self) -> List[str]:
        spec = ", ".join(item.to_sql() for item in self.order_items)
        return [f"Sort({spec})"] + ["  " + line for line in self.child.describe()]


class LimitNode(PlanNode):
    def __init__(
        self, child: PlanNode, limit: Optional[int], offset: Optional[int]
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.env_keys = child.env_keys

    def rows(self) -> Iterator[Env]:
        if self.limit is not None and self.limit <= 0:
            return
        produced = 0
        skipped = 0
        for env in self.child.rows():
            if skipped < self.offset:
                skipped += 1
                continue
            produced += 1
            yield env
            # Stop *before* pulling another row from the child, so scans
            # under a LIMIT terminate as early as possible.
            if self.limit is not None and produced >= self.limit:
                return

    def describe(self) -> List[str]:
        return [f"Limit({self.limit} offset {self.offset})"] + [
            "  " + line for line in self.child.describe()
        ]


class QueryPlan:
    """A complete plan: the env pipeline plus the output projection.

    Plans are reusable: the plan cache hands the same instance back for
    repeated executions of one query, and :meth:`bind_parameters` installs
    fresh ``?`` bindings into every scope's base env before each run.
    """

    def __init__(
        self,
        root: PlanNode,
        output: List[Tuple[str, Expression]],
        distinct: bool,
        base_env: Optional[Env] = None,
        post_limit: Optional[int] = None,
        post_offset: Optional[int] = None,
    ) -> None:
        self.root = root
        self.output = output
        self.distinct = distinct
        # LIMIT/OFFSET of a DISTINCT query truncate the *deduplicated*
        # stream, so they apply here rather than as a LimitNode.
        self.post_limit = post_limit
        self.post_offset = post_offset or 0
        self.base_env = base_env if base_env is not None else {}
        #: base tables referenced anywhere in this plan tree (cache keys)
        self.tables: Tuple[Any, ...] = ()
        #: True when planning baked IN/EXISTS subquery *data* into literals
        self.uses_snapshot = False
        self._param_envs: Optional[List[Env]] = None
        #: serializes bind_parameters+run: cached plans are shared
        #: mutable objects, so two threads executing the same cached
        #: query must not interleave their parameter bindings
        self.exec_lock = threading.Lock()

    @property
    def column_names(self) -> List[str]:
        return [name for name, _expr in self.output]

    def bind_parameters(self, params: Sequence[Any]) -> None:
        """Install ``?`` bindings into every scope of the plan tree.

        Nodes within one planner scope share a single base-env dict, so
        one write reaches every row env copied from it; nested subquery
        plans carry their own.  Called on *every* execution (with ``()``
        when no parameters were supplied) so bindings never leak from a
        prior run.
        """
        if self._param_envs is None:
            envs: List[Env] = []
            # Envs are dicts, so they are keyed by id(); each one is
            # appended to ``envs`` when first seen, which keeps it alive
            # (and its id unique) for as long as ``seen_ids`` exists.
            seen_ids: Set[int] = set()

            def record(env: Optional[Env]) -> None:
                if env is not None and id(env) not in seen_ids:
                    seen_ids.add(id(env))
                    envs.append(env)

            def walk(node: Any) -> None:
                record(getattr(node, "base_env", None))
                for attribute in ("child", "left", "right"):
                    branch = getattr(node, attribute, None)
                    if branch is not None:
                        walk(branch)
                inner = getattr(node, "plan", None)
                if inner is not None:
                    record(inner.base_env)
                    walk(inner.root)

            record(self.base_env)
            walk(self.root)
            self._param_envs = envs
        bound = tuple(params)
        for env in self._param_envs:
            env["__params__"] = bound

    def run(self) -> Tuple[List[str], List[Row]]:
        expressions = [expr for _name, expr in self.output]

        def project(env: Env) -> Row:
            return tuple([expr.evaluate(env) for expr in expressions])

        if self.distinct:
            if self.post_limit is not None and self.post_limit <= 0:
                return self.column_names, []
            rows: List[Row] = []
            seen: Set[Row] = set()
            skipped = 0
            for env in self.root.rows():
                row = project(env)
                if row in seen:
                    continue
                seen.add(row)
                if skipped < self.post_offset:
                    skipped += 1
                    continue
                rows.append(row)
                if self.post_limit is not None and len(rows) >= self.post_limit:
                    break
        else:
            rows = [project(env) for env in self.root.rows()]
        return self.column_names, rows

    def head_line(self) -> str:
        """The projection head line of :meth:`describe` (no tree, no Limit)."""
        spec = ", ".join(
            f"{expr.to_sql()} AS {name}" for name, expr in self.output
        )
        head = f"Project({spec})"
        if self.distinct:
            head = "Distinct " + head
        return head

    def describe(self) -> List[str]:
        lines = [self.head_line()] + [
            "  " + line for line in self.root.describe()
        ]
        if self.post_limit is not None or self.post_offset:
            lines = [f"Limit({self.post_limit} offset {self.post_offset})"] + [
                "  " + line for line in lines
            ]
        return lines


def plan_children(node: PlanNode) -> Iterator[PlanNode]:
    """Direct children of a physical plan node (incl. subquery roots)."""
    for attribute in ("child", "left", "right"):
        value = getattr(node, attribute, None)
        if isinstance(value, PlanNode):
            yield value
    inner = getattr(node, "plan", None)
    if isinstance(inner, QueryPlan):
        yield inner.root


def walk_plan(node: PlanNode) -> Iterator[PlanNode]:
    """Pre-order traversal of a plan tree, descending into subplans."""
    yield node
    for child in plan_children(node):
        yield from walk_plan(child)


def _rebuild(
    expression: Expression, swap: Callable[[Expression], Optional[Expression]]
) -> Expression:
    """``expression`` with every node ``swap`` answers for replaced by that
    answer (and not descended into); unchanged subtrees are returned
    as-is."""
    swapped = swap(expression)
    if swapped is not None:
        return swapped
    if isinstance(expression, BinaryOp):
        left = _rebuild(expression.left, swap)
        right = _rebuild(expression.right, swap)
        if left is expression.left and right is expression.right:
            return expression
        return BinaryOp(expression.op, left, right)
    if isinstance(expression, UnaryOp):
        operand = _rebuild(expression.operand, swap)
        if operand is expression.operand:
            return expression
        return UnaryOp(expression.op, operand)
    if isinstance(expression, IsNull):
        operand = _rebuild(expression.operand, swap)
        if operand is expression.operand:
            return expression
        return IsNull(operand, negated=expression.negated)
    if isinstance(expression, InList):
        operand = _rebuild(expression.operand, swap)
        items = [_rebuild(item, swap) for item in expression.items]
        if operand is expression.operand and all(
            new is old for new, old in zip(items, expression.items)
        ):
            return expression
        return InList(operand, items, negated=expression.negated)
    if isinstance(expression, Between):
        operand = _rebuild(expression.operand, swap)
        low = _rebuild(expression.low, swap)
        high = _rebuild(expression.high, swap)
        if (
            operand is expression.operand
            and low is expression.low
            and high is expression.high
        ):
            return expression
        return Between(operand, low, high, negated=expression.negated)
    if isinstance(expression, Like):
        operand = _rebuild(expression.operand, swap)
        pattern = _rebuild(expression.pattern, swap)
        if operand is expression.operand and pattern is expression.pattern:
            return expression
        return Like(
            operand,
            pattern,
            negated=expression.negated,
            case_insensitive=expression.case_insensitive,
        )
    if isinstance(expression, Case):
        branches = [
            (_rebuild(condition, swap), _rebuild(value, swap))
            for condition, value in expression.branches
        ]
        default = (
            None
            if expression.default is None
            else _rebuild(expression.default, swap)
        )
        if default is expression.default and all(
            new[0] is old[0] and new[1] is old[1]
            for new, old in zip(branches, expression.branches)
        ):
            return expression
        return Case(branches, default)
    if isinstance(expression, FunctionCall):
        arguments = [_rebuild(argument, swap) for argument in expression.arguments]
        if all(new is old for new, old in zip(arguments, expression.arguments)):
            return expression
        return FunctionCall(expression.name, arguments)
    return expression


def _substituted(
    expression: Expression, items: Dict[str, Optional[Expression]]
) -> Optional[Expression]:
    """``expression`` with each column replaced by ``items[column]``, or
    None when some column has no replacement."""
    missing: List[ColumnRef] = []

    def swap(node: Expression) -> Optional[Expression]:
        if not isinstance(node, ColumnRef):
            return None
        item = items.get(node.column.lower())
        if item is None:
            missing.append(node)
            return node
        return item

    rebuilt = _rebuild(expression, swap)
    return None if missing else rebuilt


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def plan_select(database: Any, statement: SelectStatement) -> QueryPlan:
    """Build a :class:`QueryPlan` for a SELECT statement.

    The returned plan carries the metadata the plan cache validates on
    every hit: the base tables it touches and whether planning snapshotted
    subquery data into literals.
    """
    context = _PlanContext()
    plan = _Planner(database, context).plan(statement)
    plan.tables = tuple(context.tables)
    plan.uses_snapshot = context.uses_snapshot
    return plan


class _PlanContext:
    """Metadata accumulated across a whole plan tree (incl. subplans)."""

    def __init__(self) -> None:
        self.tables: List[Any] = []
        # Every id here belongs to a table held by ``self.tables``, so no
        # key can outlive its table and be reused by another object.
        self._table_ids: Set[int] = set()
        self.uses_snapshot = False

    def record_table(self, table: Any) -> None:
        if id(table) not in self._table_ids:
            self._table_ids.add(id(table))
            self.tables.append(table)


class _Planner:
    def __init__(
        self, database: Any, context: Optional[_PlanContext] = None
    ) -> None:
        self.database = database
        self._context = context if context is not None else _PlanContext()

    # -- binding resolution -------------------------------------------------

    def _binding_for(self, item: Union[TableRef, SubqueryRef]) -> Tuple[Binding, Any]:
        """Resolve a FROM item to (binding, payload).

        Payload is the Table for base tables, or a planned QueryPlan for
        subqueries and views (a view behaves like an inlined subquery).
        """
        if isinstance(item, TableRef):
            if self.database.has_view(item.name):
                view_plan = _Planner(self.database, self._context).plan(
                    self.database.view(item.name)
                )
                return Binding(item.binding, view_plan.column_names), view_plan
            table = self.database.table(item.name)
            self._context.record_table(table)
            return Binding(item.binding, table.schema.column_names), table
        flattened = self._flatten_subquery(item.query)
        if flattened is not None:
            self._context.record_table(flattened)
            return (
                Binding(item.binding, flattened.schema.column_names),
                flattened,
            )
        sub_plan = _Planner(self.database, self._context).plan(item.query)
        return Binding(item.binding, sub_plan.column_names), sub_plan

    def _flatten_subquery(self, query: SelectStatement) -> Optional[Any]:
        """The base table behind a trivial ``SELECT <all columns> FROM t``.

        The FlexRecs compiler wraps every table access in exactly this
        shape; scanning the table directly skips a SubqueryScan
        re-materialization per row (and lets pushed predicates reach the
        table's indexes).  Returns None when the subquery is anything
        more than a full-width, order-preserving projection.
        """
        if (
            not isinstance(query, SelectStatement)
            or query.distinct
            or query.joins
            or query.where is not None
            or query.group_by
            or query.having is not None
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or query.aggregates
            or not isinstance(query.from_item, TableRef)
            or self.database.has_view(query.from_item.name)
            or not self.database.has_table(query.from_item.name)
        ):
            return None
        table = self.database.table(query.from_item.name)
        schema_columns = table.schema.column_names
        if len(query.items) != len(schema_columns):
            return None
        binding_name = query.from_item.binding.lower()
        for item, column in zip(query.items, schema_columns):
            expression = item.expression
            if (
                item.star_qualifier is not None
                or not isinstance(expression, ColumnRef)
                or expression.column.lower() != column.lower()
                or (
                    expression.qualifier is not None
                    and expression.qualifier.lower() != binding_name
                )
                or (item.alias is not None and item.alias.lower() != column.lower())
            ):
                return None
        return table

    def plan(self, statement: SelectStatement) -> QueryPlan:
        base_env: Env = {"__functions__": self.database.functions}

        # Uncorrelated IN/EXISTS subqueries are resolved once, here, into
        # literal lists/booleans.  The statement itself is never mutated
        # (views keep their stored form and re-resolve on every use).
        where = self._resolve_subqueries(statement.where)
        having = self._resolve_subqueries(statement.having)

        from_items: List[Union[TableRef, SubqueryRef]] = []
        join_specs: List[JoinClause] = []
        if statement.from_item is not None:
            from_items.append(statement.from_item)
            join_specs = [
                JoinClause(
                    join_type=join.join_type,
                    table=join.table,
                    condition=self._resolve_subqueries(join.condition),
                )
                for join in statement.joins
            ]
            from_items.extend(join.table for join in join_specs)

        resolved: List[Tuple[Binding, Any]] = [
            self._binding_for(item) for item in from_items
        ]
        bindings = [binding for binding, _payload in resolved]

        names_seen: Set[str] = set()
        for binding in bindings:
            lowered = binding.name.lower()
            if lowered in names_seen:
                raise PlannerError(
                    f"duplicate table alias {binding.name!r}; use AS to rename"
                )
            names_seen.add(lowered)

        # Bare column names usable without qualification.
        column_owners: Dict[str, int] = {}
        for binding in bindings:
            for column in binding.column_set:
                column_owners[column] = column_owners.get(column, 0) + 1
        unambiguous = {
            column for column, count in column_owners.items() if count == 1
        }
        for column, count in column_owners.items():
            if count > 1:
                base_env[column] = AMBIGUOUS

        # Which bindings sit on the NULL-padded side of a LEFT join?
        nullable_bindings: Set[str] = set()
        for join in join_specs:
            if join.join_type == "LEFT":
                nullable_bindings.add(join.table.binding.lower())

        # WHERE pushdown bookkeeping.
        where_conjuncts = conjuncts(where)
        pushed: Dict[str, List[Expression]] = {}
        remaining: List[Expression] = []
        for conjunct in where_conjuncts:
            targets = self._referenced_bindings(conjunct, bindings, unambiguous)
            if len(targets) == 1:
                target = next(iter(targets))
                if target not in nullable_bindings:
                    pushed.setdefault(target, []).append(conjunct)
                    continue
            remaining.append(conjunct)

        # Build leaf nodes.
        needed = self._pruned_columns(statement, where, having, join_specs)
        leaves: Dict[str, PlanNode] = {}
        for (binding, payload), item in zip(resolved, from_items):
            key = binding.name.lower()
            local = pushed.get(key, [])
            if isinstance(payload, QueryPlan):
                # Subquery or view: scan its planned output.
                if local and isinstance(item, SubqueryRef):
                    payload, local = self._push_into_derived(
                        item.query, payload, local
                    )
                node: PlanNode = SubqueryScanNode(
                    payload, binding, base_env, unambiguous
                )
                predicate = conjoin(local)
                if predicate is not None:
                    node = FilterNode(node, predicate)
            else:
                node = self._build_scan(
                    payload, binding, base_env, unambiguous, local, needed
                )
            leaves[key] = node

        # Join tree, left-deep in syntactic order.
        if not bindings:
            current: PlanNode = SingleRowNode(base_env)
        else:
            current = leaves[bindings[0].name.lower()]
            covered = {bindings[0].name.lower()}
            for join in join_specs:
                right_key = join.table.binding.lower()
                right = leaves[right_key]
                current = self._build_join(
                    current, right, covered, right_key, join, bindings, unambiguous
                )
                covered.add(right_key)

        predicate = conjoin(remaining)
        if predicate is not None:
            current = FilterNode(current, predicate)

        # Aggregation.
        if statement.aggregates or statement.group_by:
            current = AggregateNode(
                current,
                statement.group_by,
                statement.aggregates,
                base_env,
                self.database.functions,
            )
        if having is not None:
            current = FilterNode(current, having)

        # Output projection spec (before sort so aliases can be resolved).
        output = self._output_spec(statement, bindings)

        if statement.order_by:
            items = [
                OrderItem(
                    self._resolve_order_expression(
                        item.expression, output, bindings
                    ),
                    item.descending,
                )
                for item in statement.order_by
            ]
            current = SortNode(current, items)
        post_limit = post_offset = None
        if statement.limit is not None or statement.offset is not None:
            if statement.distinct:
                # SQL truncates *after* deduplication (DISTINCT, then
                # ORDER BY, then LIMIT/OFFSET).  The dedup happens at
                # projection time in QueryPlan.run, so the truncation
                # has to move above it too; a LimitNode here would cut
                # pre-dedup rows and under-produce.
                post_limit, post_offset = statement.limit, statement.offset
            else:
                current = LimitNode(current, statement.limit, statement.offset)

        return QueryPlan(
            current,
            output,
            statement.distinct,
            base_env=base_env,
            post_limit=post_limit,
            post_offset=post_offset,
        )

    def _push_into_derived(
        self,
        query: SelectStatement,
        plan: QueryPlan,
        local: List[Expression],
    ) -> Tuple[QueryPlan, List[Expression]]:
        """Move a derived table's WHERE conjuncts into its body.

        A conjunct moves when every column it names is a plain column item
        of the body (each is rewritten to that item's expression), and only
        into a body whose rows are a filtered stream of its FROM clause: no
        aggregate, GROUP BY, HAVING, DISTINCT, LIMIT or OFFSET (the grammar
        has no UNION in FROM).  Appended after the body's own WHERE, it
        meets the ordinary pushdown there, which carries it to the scan
        that owns the column and on to that scan's index; an index emits
        scan order, so the body yields the rows the filter above it would
        have kept, in the same order.  Returns the plan to scan —
        re-planned when anything moved — and the conjuncts left outside.
        """
        if (
            query.aggregates
            or query.group_by
            or query.having is not None
            or query.distinct
            or query.limit is not None
            or query.offset is not None
        ):
            return plan, local
        items: Dict[str, Optional[Expression]] = {}
        for name, expression in plan.output:
            lowered = name.lower()
            # A repeated output name is not one column: nothing moves on it.
            plain = isinstance(expression, ColumnRef) and lowered not in items
            items[lowered] = expression if plain else None
        moved: List[Expression] = []
        kept: List[Expression] = []
        for conjunct in local:
            rewritten = _substituted(conjunct, items)
            if rewritten is None:
                kept.append(conjunct)
            else:
                moved.append(rewritten)
        if not moved:
            return plan, local
        body = dataclasses.replace(
            query, where=conjoin(conjuncts(query.where) + moved)
        )
        return _Planner(self.database, self._context).plan(body), kept

    # -- scan construction ----------------------------------------------------

    def _build_scan(
        self,
        table: Any,
        binding: Binding,
        base_env: Env,
        unambiguous: Set[str],
        local_conjuncts: List[Expression],
        needed: Optional[Set[str]] = None,
    ) -> PlanNode:
        access, residual = self._choose_access(table, binding, local_conjuncts)
        predicate = conjoin(residual)
        return ScanNode(
            table,
            binding,
            base_env,
            unambiguous,
            predicate=predicate,
            access=access,
            needed=needed,
        )

    def _pruned_columns(
        self,
        statement: SelectStatement,
        where: Optional[Expression],
        having: Optional[Expression],
        join_specs: List[JoinClause],
    ) -> Optional[Set[str]]:
        """Every column name the statement can touch, or None to keep all.

        Scans then emit only the columns something references.  ``SELECT
        *`` disables pruning; collection is conservative — a bare name
        keeps that column in every table that has it.
        """
        refs: List[str] = []
        for item in statement.items:
            if item.is_star:
                return None
            item.expression._collect_columns(refs)
        for call in statement.aggregates:
            if call.argument is not None:
                call.argument._collect_columns(refs)
        for expression in statement.group_by:
            expression._collect_columns(refs)
        if where is not None:
            where._collect_columns(refs)
        if having is not None:
            having._collect_columns(refs)
        for join in join_specs:
            if join.condition is not None:
                join.condition._collect_columns(refs)
        for order in statement.order_by:
            order.expression._collect_columns(refs)
        return {name.lower() for name in refs}

    def _choose_access(
        self,
        table: Any,
        binding: Binding,
        local_conjuncts: List[Expression],
    ) -> Tuple[Optional[IndexAccess], List[Expression]]:
        """Pick an index access path from pushed-down conjuncts."""
        indexes = self.database.indexes_on(table.name)
        single_column = {
            info.columns[0].lower(): info
            for info in indexes
            if len(info.columns) == 1
        }

        def column_of(expr: Expression) -> Optional[str]:
            if isinstance(expr, ColumnRef):
                qualifier_ok = (
                    expr.qualifier is None
                    or expr.qualifier.lower() == binding.name.lower()
                )
                if qualifier_ok:
                    return expr.column.lower()
            return None

        def operand_of(expr: Expression) -> Optional[Expression]:
            """``expr`` when an index can be probed with it: a ``?`` (its
            value arrives per execution) or a non-NULL literal."""
            if isinstance(expr, Parameter) or (
                isinstance(expr, Literal) and expr.value is not None
            ):
                return expr
            return None

        # Primary-key point lookup: equalities covering the whole key.
        pk = tuple(name.lower() for name in table.schema.primary_key)
        if pk:
            equalities: Dict[str, Tuple[int, Expression]] = {}
            for position, conjunct in enumerate(local_conjuncts):
                if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                    for lhs, rhs in (
                        (conjunct.left, conjunct.right),
                        (conjunct.right, conjunct.left),
                    ):
                        column = column_of(lhs)
                        operand = operand_of(rhs)
                        if (
                            column in pk
                            and operand is not None
                            and column not in equalities
                        ):
                            equalities[column] = (position, operand)
            if len(equalities) == len(pk):
                used_positions = {position for position, _v in equalities.values()}
                residual = [
                    conjunct
                    for position, conjunct in enumerate(local_conjuncts)
                    if position not in used_positions
                ]
                key = tuple(equalities[column][1] for column in pk)
                return PrimaryKeyAccess(key), residual

        if not single_column:
            return None, local_conjuncts

        # Equality first: col = operand.
        for position, conjunct in enumerate(local_conjuncts):
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                for lhs, rhs in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    column = column_of(lhs)
                    operand = operand_of(rhs)
                    if column in single_column and operand is not None:
                        residual = (
                            local_conjuncts[:position]
                            + local_conjuncts[position + 1 :]
                        )
                        access = IndexAccess(
                            single_column[column], equal_key=(operand,)
                        )
                        return access, residual

        # Then ranges over a sorted index: every bound on the column is
        # consumed, and the tighter one per side is picked per execution.
        for column, info in single_column.items():
            if info.kind != "sorted":
                continue
            lows: List[Tuple[Expression, bool]] = []
            highs: List[Tuple[Expression, bool]] = []
            used: Set[int] = set()
            for position, conjunct in enumerate(local_conjuncts):
                if not (
                    isinstance(conjunct, BinaryOp)
                    and conjunct.op in (">", ">=", "<", "<=")
                ):
                    continue
                operator = conjunct.op
                operand = operand_of(conjunct.right)
                if column_of(conjunct.left) != column or operand is None:
                    # Try the flipped form: operand OP column.
                    operand = operand_of(conjunct.left)
                    if column_of(conjunct.right) != column or operand is None:
                        continue
                    operator = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[operator]
                side = lows if operator in (">", ">=") else highs
                side.append((operand, operator in (">=", "<=")))
                used.add(position)
            if used:
                residual = [
                    conjunct
                    for position, conjunct in enumerate(local_conjuncts)
                    if position not in used
                ]
                return IndexAccess(info, lows=lows, highs=highs), residual
        return None, local_conjuncts

    # -- join construction ------------------------------------------------------

    def _build_join(
        self,
        left: PlanNode,
        right: PlanNode,
        covered: Set[str],
        right_key: str,
        join: JoinClause,
        bindings: List[Binding],
        unambiguous: Set[str],
    ) -> PlanNode:
        left_outer = join.join_type == "LEFT"
        if join.join_type == "CROSS" or join.condition is None:
            return NestedLoopJoinNode(left, right, None, left_outer=False)
        equi_left: List[Expression] = []
        equi_right: List[Expression] = []
        residual: List[Expression] = []
        for conjunct in conjuncts(join.condition):
            pair = self._equi_pair(
                conjunct, covered, right_key, bindings, unambiguous
            )
            if pair is not None:
                equi_left.append(pair[0])
                equi_right.append(pair[1])
            else:
                residual.append(conjunct)
        if equi_left:
            pk_order = self._lookup_key_order(left, right, equi_right)
            if pk_order is not None:
                return LookupJoinNode(
                    left,
                    PrimaryKeyLookupNode(right),
                    [equi_left[position] for position in pk_order],
                    [equi_right[position] for position in pk_order],
                    conjoin(residual),
                    left_outer,
                )
            # A residual conjunct on the right input alone filters that
            # input before the build: fewer rows hashed and merged, the
            # same matches in the same order (LEFT OUTER pads alike).
            on_right: List[Expression] = []
            mixed: List[Expression] = []
            for conjunct in residual:
                owners = self._referenced_bindings(conjunct, bindings, unambiguous)
                (on_right if owners == {right_key} else mixed).append(conjunct)
            if on_right:
                if isinstance(right, ScanNode):  # built for this join alone
                    right.predicate = conjoin(
                        conjuncts(right.predicate) + on_right
                    )
                else:
                    right = FilterNode(right, conjoin(on_right))
                residual = mixed
            return HashJoinNode(
                left,
                right,
                equi_left,
                equi_right,
                conjoin(residual),
                left_outer,
            )
        return NestedLoopJoinNode(left, right, join.condition, left_outer)

    @staticmethod
    def _lookup_key_order(
        left: PlanNode, right: PlanNode, right_keys: List[Expression]
    ) -> Optional[List[int]]:
        """Positions of ``right_keys`` in primary-key column order when
        the join qualifies for :class:`LookupJoinNode`, else None.

        Three conditions, all read off the plan (no statistics): the right
        side is a bare base-table scan (no access path, no pushed
        predicate — a probe would skip them); its join keys are plain
        column references naming each primary-key column exactly once; and
        the left subtree's driving scan goes through an index or
        primary-key access, i.e. the statement selects a handful of left
        rows by key.  A left side that reads its whole table keeps the
        hash join: one build beats a probe per row.
        """
        if not (
            isinstance(right, ScanNode)
            and right.access is None
            and right.predicate is None
        ):
            return None
        pk = [name.lower() for name in right.table.schema.primary_key]
        if not pk or len(right_keys) != len(pk):
            return None
        columns: List[str] = []
        for key in right_keys:
            if not isinstance(key, ColumnRef):
                return None
            columns.append(key.column.lower())
        if sorted(columns) != sorted(pk):
            return None
        driving: Any = left
        while not isinstance(driving, ScanNode):
            # What a join or filter streams from; a sub-select has neither.
            driving = getattr(driving, "left", None) or getattr(
                driving, "child", None
            )
            if driving is None:
                return None
        if driving.access is None:
            return None
        return [columns.index(name) for name in pk]

    def _equi_pair(
        self,
        conjunct: Expression,
        covered: Set[str],
        right_key: str,
        bindings: List[Binding],
        unambiguous: Set[str],
    ) -> Optional[Tuple[Expression, Expression]]:
        """If ``conjunct`` is left_expr = right_expr across the join, split it."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left_refs = self._referenced_bindings(conjunct.left, bindings, unambiguous)
        right_refs = self._referenced_bindings(conjunct.right, bindings, unambiguous)
        if left_refs <= covered and right_refs == {right_key}:
            return conjunct.left, conjunct.right
        if right_refs <= covered and left_refs == {right_key}:
            return conjunct.right, conjunct.left
        return None

    # -- helpers -----------------------------------------------------------

    def _referenced_bindings(
        self,
        expression: Expression,
        bindings: List[Binding],
        unambiguous: Set[str],
    ) -> Set[str]:
        result: Set[str] = set()
        for reference in expression.columns_referenced():
            if "." in reference:
                qualifier, column = reference.split(".", 1)
                lowered = qualifier.lower()
                match = next(
                    (b for b in bindings if b.name.lower() == lowered), None
                )
                if match is None:
                    raise UnknownColumnError(
                        f"unknown table alias {qualifier!r} in {reference!r}"
                    )
                if column.lower() not in match.column_set:
                    raise UnknownColumnError(
                        f"table {qualifier!r} has no column {column!r}"
                    )
                result.add(lowered)
            else:
                lowered = reference.lower()
                owners = [
                    binding
                    for binding in bindings
                    if lowered in binding.column_set
                ]
                if not owners:
                    raise UnknownColumnError(f"unknown column {reference!r}")
                if len(owners) > 1:
                    raise AmbiguousColumnError(
                        f"column {reference!r} is ambiguous; qualify it"
                    )
                result.add(owners[0].name.lower())
        return result

    def _output_spec(
        self,
        statement: SelectStatement,
        bindings: List[Binding],
    ) -> List[Tuple[str, Expression]]:
        output: List[Tuple[str, Expression]] = []
        for item in statement.items:
            if item.is_star:
                targets = (
                    bindings
                    if item.star_qualifier == ""
                    else [
                        binding
                        for binding in bindings
                        if binding.name.lower() == item.star_qualifier.lower()
                    ]
                )
                if item.star_qualifier != "" and not targets:
                    raise PlannerError(
                        f"unknown alias {item.star_qualifier!r} in select list"
                    )
                if not bindings:
                    raise PlannerError("SELECT * requires a FROM clause")
                for binding in targets:
                    for column in binding.columns:
                        output.append(
                            (
                                column,
                                ColumnRef(column=column, qualifier=binding.name),
                            )
                        )
                continue
            # Validate column references now so bad selects fail at plan
            # time (views rely on this for create-time validation).
            self._referenced_bindings(item.expression, bindings, set())
            name = item.alias
            if name is None:
                if isinstance(item.expression, ColumnRef):
                    name = item.expression.column
                elif isinstance(item.expression, AggregateRef):
                    name = item.expression.call.name
                else:
                    name = item.expression.to_sql()
            output.append((name, item.expression))
        return output

    def _resolve_subqueries(
        self, expression: Optional[Expression]
    ) -> Optional[Expression]:
        """Replace uncorrelated IN/EXISTS subqueries with their values.

        ``x IN (SELECT ...)`` becomes an :class:`InList` of literals (the
        subquery must yield exactly one column) and ``EXISTS (SELECT
        ...)`` becomes a boolean literal, wherever they nest; unchanged
        subtrees are returned as-is (no needless copying).
        """
        if expression is None:
            return None
        return _rebuild(expression, self._resolve_subquery)

    def _resolve_subquery(self, expression: Expression) -> Optional[Expression]:
        if isinstance(expression, InSubquery):
            if expression.has_parameters:
                raise PlannerError(
                    "parameters (?) are not supported inside IN (SELECT ...) "
                    "subqueries: the subquery is resolved at plan time, "
                    "before bindings exist; inline the value or rewrite as "
                    "a join"
                )
            sub_plan = _Planner(self.database, self._context).plan(
                expression.query
            )
            self._context.uses_snapshot = True
            columns, rows = sub_plan.run()
            if len(columns) != 1:
                raise PlannerError(
                    "IN (SELECT ...) must yield exactly one column, got "
                    f"{len(columns)}"
                )
            return InList(
                _rebuild(expression.operand, self._resolve_subquery),
                [Literal(row[0]) for row in rows],
                negated=expression.negated,
            )
        if isinstance(expression, ExistsSubquery):
            if expression.has_parameters:
                raise PlannerError(
                    "parameters (?) are not supported inside EXISTS "
                    "(SELECT ...) subqueries: the subquery is resolved at "
                    "plan time, before bindings exist; inline the value or "
                    "rewrite as a join"
                )
            sub_plan = _Planner(self.database, self._context).plan(
                expression.query
            )
            self._context.uses_snapshot = True
            exists = False
            for _env in sub_plan.root.rows():
                exists = True
                break
            return Literal(exists != expression.negated)
        return None

    def _resolve_order_expression(
        self,
        expression: Expression,
        output: List[Tuple[str, Expression]],
        bindings: List[Binding],
    ) -> Expression:
        """ORDER BY may name a select alias or a 1-based output position.

        A bare name that is also a base column resolves to the base column;
        otherwise it resolves to the matching select-list expression.
        """
        if isinstance(expression, ColumnRef) and expression.qualifier is None:
            lowered = expression.column.lower()
            resolvable = any(
                lowered in binding.column_set for binding in bindings
            )
            if not resolvable:
                for name, expr in output:
                    if name.lower() == lowered:
                        return expr
        if isinstance(expression, Literal) and isinstance(expression.value, int):
            position = expression.value
            if 1 <= position <= len(output):
                return output[position - 1][1]
            raise PlannerError(f"ORDER BY position {position} out of range")
        return expression
