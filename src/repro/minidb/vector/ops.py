"""Batch-vectorized physical operators and the dual-path plan router.

``build_vector_plan`` walks an existing logical :class:`QueryPlan` and
mirrors it with vector operators (:class:`VScan`, :class:`VFilter`,
:class:`VHashJoin`, :class:`VAggregate`, :class:`VSort`, :class:`VLimit`,
:class:`VSubqueryScan`).  Any node the batch path cannot run —
nested-loop joins, expressions with scalar function calls — is wrapped
in a :class:`VRowSource` *row-emit boundary*: the node's entire subtree
executes on the untouched iterator path and its env dicts are packed
into batches, so operators above it stay vectorized.  The capability
check happens once at plan time; execution never probes.

Equivalence rules the builder enforces (beyond kernel-level semantics):

* **Scan → batches, index → rows.**  A plan that reads any table through
  an index or its primary key is not routed at all: it selects a handful
  of rows by key, which the row tree serves without first building (or,
  after a write, rebuilding) the table's column store.  Batches serve
  whole-table scans.  Sub-selects route themselves.

* ``LimitNode`` vectorizes only above a fully-materializing child
  (:class:`VSort` / :class:`VAggregate`).  Anywhere else the row path's
  early-exit stops evaluating expressions the batch path would have
  evaluated a whole batch of — a spurious-error hazard — so the subtree
  stays on the row path.
* DISTINCT plans with a ``post_limit`` vectorize only when the root is
  materializing *and* the projection is pure column/aggregate
  references, for the same reason (the dedup loop stops early).
* A plan whose root boundary is a row source is not routed at all
  (``build_vector_plan`` returns ``None``): there is nothing to
  vectorize and EXPLAIN must not claim otherwise.

Operators preserve the row path's emission order *exactly* — hash joins
probe left-major with build-insertion bucket order, aggregation emits
groups in first-seen order, sorts run the same stable comparator over
the same key values — so ORDER BY ... LIMIT and DISTINCT answers are
bit-identical, floats included.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.minidb.expressions import AMBIGUOUS, order_key
from repro.minidb.functions import (
    AvgAccumulator,
    CountAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
)
from repro.minidb.sql.ast import AggregateRef
from repro.minidb.expressions import ColumnRef
from repro.minidb.vector import batch as _batch
from repro.minidb.vector.batch import ColumnBatch, iter_batches, table_store
from repro.minidb.vector.kernels import (
    Kernel,
    KernelUnsupported,
    compile_kernel,
)
from repro.obs import OBS

__all__ = ["VectorPlan", "build_vector_plan"]


class VOp:
    """Base vector operator: yields :class:`ColumnBatch` instances.

    ``node`` is the logical plan node this operator mirrors (EXPLAIN
    ANALYZE keys its per-node stats on it); ``vectorized`` is False only
    for the :class:`VRowSource` boundary.
    """

    vectorized = True

    def __init__(self, node: Any, ctx: Dict[str, Any]) -> None:
        self.node = node
        self.ctx = ctx
        self.children: List["VOp"] = []

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError


class VRowSource(VOp):
    """Row-emit boundary: runs a subtree on the iterator path and packs
    its env dicts into batches.  The wrapped node's own ``rows()`` is the
    untouched row pipeline, so semantics (laziness included) are exactly
    the row path's."""

    vectorized = False

    def batches(self) -> Iterator[ColumnBatch]:
        keys = self.node.env_keys
        size = _batch.BATCH_SIZE
        columns: Dict[str, List[Any]] = {key: [] for key in keys}
        count = 0
        for env in self.node.rows():
            for key in keys:
                columns[key].append(env[key])
            count += 1
            if count >= size:
                yield ColumnBatch(columns, count)
                columns = {key: [] for key in keys}
                count = 0
        if count:
            yield ColumnBatch(columns, count)


class VScan(VOp):
    """Sequential scan over the cached columnar projection of a table,
    pruned to the plan's needed columns, with an optional vectorized
    filter pushed into the scan."""

    def __init__(self, node: Any, ctx: Dict[str, Any],
                 predicate: Optional[Kernel]) -> None:
        super().__init__(node, ctx)
        self.predicate = predicate

    def batches(self) -> Iterator[ColumnBatch]:
        store = table_store(self.node.table)
        length = store.length
        columns: Dict[str, List[Any]] = {}
        for index, qualified, bare in self.node._keys:
            column = store.columns[index]
            columns[qualified] = column
            if bare:
                columns[bare] = column  # zero-copy alias
        predicate = self.predicate
        ctx = self.ctx
        observe = OBS.enabled
        emitted = 0
        for chunk in iter_batches(columns, length):
            if predicate is not None:
                flags = predicate(ctx, chunk.columns, range(chunk.length))
                sel = [pos for pos, flag in enumerate(flags) if flag is True]
                if observe and chunk.length:
                    OBS.metrics.observe(
                        "minidb.vector.filter.selectivity",
                        len(sel) / chunk.length,
                    )
                if not sel:
                    continue
                if len(sel) != chunk.length:
                    chunk = chunk.gather(sel)
            emitted += 1
            yield chunk
        if observe and emitted:
            OBS.metrics.inc("minidb.vector.batches", emitted)


class VSubqueryScan(VOp):
    """Scans a planned sub-select's materialized output column-wise.
    The inner plan routes through its own vector plan when it has one."""

    def batches(self) -> Iterator[ColumnBatch]:
        _columns, rows = self.node.plan.run()
        length = len(rows)
        columns: Dict[str, List[Any]] = {}
        for index, qualified, bare in self.node._keys:
            column = [row[index] for row in rows]
            columns[qualified] = column
            if bare:
                columns[bare] = column
        yield from iter_batches(columns, length)


class VFilter(VOp):
    """Selection-vector filter: keeps rows whose predicate is TRUE."""

    def __init__(self, child: VOp, node: Any, ctx: Dict[str, Any],
                 predicate: Kernel) -> None:
        super().__init__(node, ctx)
        self.child = child
        self.children = [child]
        self.predicate = predicate

    def batches(self) -> Iterator[ColumnBatch]:
        predicate = self.predicate
        ctx = self.ctx
        observe = OBS.enabled
        for chunk in self.child.batches():
            flags = predicate(ctx, chunk.columns, range(chunk.length))
            sel = [pos for pos, flag in enumerate(flags) if flag is True]
            if observe and chunk.length:
                OBS.metrics.observe(
                    "minidb.vector.filter.selectivity",
                    len(sel) / chunk.length,
                )
            if not sel:
                continue
            if len(sel) == chunk.length:
                yield chunk
            else:
                yield chunk.gather(sel)


class VHashJoin(VOp):
    """Equi-join over batches — single or composite key, inner or LEFT
    OUTER, with an optional residual predicate on merged rows.

    The build side is materialized column-wise with buckets of row
    indices; probing walks each left batch in row order and emits
    left-major output, matching the row path's emission order exactly.
    Composite keys reduce to one per-row value — a tuple, or ``None``
    when *any* part is NULL — so NULL-key semantics (a NULL part never
    equi-joins, exactly the row path's ``any(part is None)`` skip) and
    bucket/probe order are identical to the single-key path.  Unmatched
    left rows of an outer join emit a NULL-padded right side.
    """

    def __init__(self, left: VOp, right: VOp, node: Any,
                 ctx: Dict[str, Any], left_key_kernels: List[Kernel],
                 right_key_kernels: List[Kernel],
                 residual: Optional[Kernel]) -> None:
        super().__init__(node, ctx)
        self.left = left
        self.right = right
        self.children = [left, right]
        self.left_key_kernels = left_key_kernels
        self.right_key_kernels = right_key_kernels
        self.residual = residual

    def _key_values(self, kernels: List[Kernel],
                    chunk: ColumnBatch) -> List[Any]:
        """One join-key value per row: the bare value (single key) or a
        tuple collapsed to ``None`` when any part is NULL."""
        sel = range(chunk.length)
        if len(kernels) == 1:
            return kernels[0](self.ctx, chunk.columns, sel)
        parts = [kernel(self.ctx, chunk.columns, sel) for kernel in kernels]
        return [
            None if any(part is None for part in row) else row
            for row in zip(*parts)
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        node = self.node
        ctx = self.ctx
        right_keys = node.right.env_keys
        left_keys = node.left.env_keys
        if OBS.enabled and len(self.left_key_kernels) > 1:
            OBS.metrics.inc("minidb.vector.multikey_join.count")
        right_columns: Dict[str, List[Any]] = {key: [] for key in right_keys}
        buckets: Dict[Any, List[int]] = {}
        base = 0
        right_key_kernels = self.right_key_kernels
        for chunk in self.right.batches():
            values = self._key_values(right_key_kernels, chunk)
            for key in right_keys:
                right_columns[key].extend(chunk.columns[key])
            for pos, value in enumerate(values):
                if value is None:
                    continue  # NULL never equi-joins
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [base + pos]
                else:
                    bucket.append(base + pos)
            base += chunk.length
        left_key_kernels = self.left_key_kernels
        residual = self.residual
        outer = node.left_outer
        buckets_get = buckets.get
        for chunk in self.left.batches():
            values = self._key_values(left_key_kernels, chunk)
            pair_left: List[int] = []
            pair_right: List[int] = []
            counts = [0] * chunk.length
            for pos, value in enumerate(values):
                if value is None:
                    continue
                bucket = buckets_get(value)
                if bucket:
                    counts[pos] = len(bucket)
                    for row in bucket:
                        pair_left.append(pos)
                        pair_right.append(row)
            mask: Optional[List[bool]] = None
            if residual is not None and pair_left:
                merged = self._merge(
                    chunk, left_keys, pair_left, right_columns, right_keys,
                    pair_right,
                )
                mask = [
                    flag is True
                    for flag in residual(ctx, merged, range(len(pair_left)))
                ]
            if not outer:
                if not pair_left:
                    continue
                if mask is None:
                    yield ColumnBatch(
                        self._merge(chunk, left_keys, pair_left,
                                    right_columns, right_keys, pair_right),
                        len(pair_left),
                    )
                else:
                    sel = [pos for pos, keep in enumerate(mask) if keep]
                    if not sel:
                        continue
                    out_left = [pair_left[pos] for pos in sel]
                    out_right = [pair_right[pos] for pos in sel]
                    yield ColumnBatch(
                        self._merge(chunk, left_keys, out_left,
                                    right_columns, right_keys, out_right),
                        len(out_left),
                    )
                continue
            # LEFT OUTER: walk left rows in order; rows with no surviving
            # match emit a NULL-padded right side, in place.
            out_left: List[int] = []
            out_right: List[Optional[int]] = []
            cursor = 0
            for pos in range(chunk.length):
                matched = False
                for pair in range(cursor, cursor + counts[pos]):
                    if mask is None or mask[pair]:
                        matched = True
                        out_left.append(pos)
                        out_right.append(pair_right[pair])
                cursor += counts[pos]
                if not matched:
                    out_left.append(pos)
                    out_right.append(None)
            if not out_left:
                continue
            columns: Dict[str, List[Any]] = {
                key: [chunk.columns[key][pos] for pos in out_left]
                for key in left_keys
            }
            for key in right_keys:
                source = right_columns[key]
                columns[key] = [
                    None if row is None else source[row] for row in out_right
                ]
            yield ColumnBatch(columns, len(out_left))

    @staticmethod
    def _merge(chunk: ColumnBatch, left_keys: List[str],
               pair_left: List[int], right_columns: Dict[str, List[Any]],
               right_keys: List[str],
               pair_right: List[int]) -> Dict[str, List[Any]]:
        merged: Dict[str, List[Any]] = {
            key: [chunk.columns[key][pos] for pos in pair_left]
            for key in left_keys
        }
        for key in right_keys:
            source = right_columns[key]
            merged[key] = [source[row] for row in pair_right]
        return merged


#: specialized accumulator dispatch codes (see VAggregate.batches)
_K_COUNT_STAR = 0
_K_COUNT = 1
_K_SUM = 2
_K_AVG = 3
_K_MIN = 4
_K_MAX = 5
_K_GENERIC = 9

_BUILTIN_ACCUMULATORS = {
    "count": (CountAccumulator, _K_COUNT),
    "sum": (SumAccumulator, _K_SUM),
    "avg": (AvgAccumulator, _K_AVG),
    "min": (MinAccumulator, _K_MIN),
    "max": (MaxAccumulator, _K_MAX),
}


class VAggregate(VOp):
    """Hash group/aggregate over batches.

    COUNT/SUM/AVG/MIN/MAX without DISTINCT run as inlined accumulation
    loops that mirror the builtin accumulators' exact update order and
    arithmetic (so float results stay bit-identical); DISTINCT and
    registry-defined aggregates fall through to the real accumulator
    objects.  Groups are emitted in first-seen order with a
    representative first row, exactly like the row path.
    """

    def __init__(self, child: VOp, node: Any, ctx: Dict[str, Any],
                 group_kernels: List[Kernel],
                 argument_kernels: List[Optional[Kernel]],
                 kinds: List[int]) -> None:
        super().__init__(node, ctx)
        self.child = child
        self.children = [child]
        self.group_kernels = group_kernels
        self.argument_kernels = argument_kernels
        self.kinds = kinds

    def _fresh_states(self) -> List[Any]:
        node = self.node
        states: List[Any] = []
        for kind, call in zip(self.kinds, node.aggregate_calls):
            if kind == _K_COUNT_STAR or kind == _K_COUNT:
                states.append([0])
            elif kind == _K_SUM or kind == _K_MIN or kind == _K_MAX:
                states.append([None])
            elif kind == _K_AVG:
                states.append([0.0, 0])
            else:
                states.append(
                    (
                        node.functions.aggregate(call.name),
                        set() if call.distinct else None,
                    )
                )
        return states

    def batches(self) -> Iterator[ColumnBatch]:
        node = self.node
        ctx = self.ctx
        child_keys = node.child.env_keys
        group_kernels = self.group_kernels
        argument_kernels = self.argument_kernels
        kinds = self.kinds
        call_range = range(len(kinds))
        single = group_kernels[0] if len(group_kernels) == 1 else None
        groups: Dict[Any, Tuple[List[Any], List[Any]]] = {}
        order: List[Any] = []
        for chunk in self.child.batches():
            sel = range(chunk.length)
            columns = chunk.columns
            if single is not None:
                keys = single(ctx, columns, sel)
            elif group_kernels:
                keys = list(
                    zip(*[kernel(ctx, columns, sel)
                          for kernel in group_kernels])
                )
            else:
                keys = [()] * chunk.length
            values = [
                kernel(ctx, columns, sel) if kernel is not None else None
                for kernel in argument_kernels
            ]
            first_columns = [columns[key] for key in child_keys]
            for row in range(chunk.length):
                key = keys[row]
                state = groups.get(key)
                if state is None:
                    state = (
                        [column[row] for column in first_columns],
                        self._fresh_states(),
                    )
                    groups[key] = state
                    order.append(key)
                states = state[1]
                for index in call_range:
                    kind = kinds[index]
                    cell = states[index]
                    if kind == _K_COUNT_STAR:
                        cell[0] += 1
                    elif kind == _K_COUNT:
                        if values[index][row] is not None:
                            cell[0] += 1
                    elif kind == _K_SUM:
                        value = values[index][row]
                        if value is not None:
                            total = cell[0]
                            cell[0] = value if total is None else total + value
                    elif kind == _K_AVG:
                        value = values[index][row]
                        if value is not None:
                            cell[0] += value
                            cell[1] += 1
                    elif kind == _K_MIN:
                        value = values[index][row]
                        if value is not None:
                            best = cell[0]
                            if best is None or value < best:
                                cell[0] = value
                    elif kind == _K_MAX:
                        value = values[index][row]
                        if value is not None:
                            best = cell[0]
                            if best is None or value > best:
                                cell[0] = value
                    else:
                        column = values[index]
                        value = 1 if column is None else column[row]
                        accumulator, seen = cell
                        if seen is not None:
                            if value is None or value in seen:
                                continue
                            seen.add(value)
                        accumulator.add(value)
        if not groups and not node.group_exprs:
            # Global aggregate over empty input: one result row carrying
            # only the aggregate columns (a projection that references a
            # child column errors exactly like the row path's empty env).
            yield ColumnBatch(
                {
                    f"__agg_{index}": [
                        node.functions.aggregate(call.name).result()
                    ]
                    for index, call in enumerate(node.aggregate_calls)
                },
                1,
            )
            return
        length = len(order)
        out: Dict[str, List[Any]] = {key: [] for key in child_keys}
        aggregates: List[List[Any]] = [[] for _ in kinds]
        for key in order:
            first, states = groups[key]
            for column_key, value in zip(child_keys, first):
                out[column_key].append(value)
            for index in call_range:
                kind = kinds[index]
                cell = states[index]
                if kind == _K_COUNT_STAR or kind == _K_COUNT:
                    result = cell[0]
                elif kind == _K_SUM or kind == _K_MIN or kind == _K_MAX:
                    result = cell[0]
                elif kind == _K_AVG:
                    result = None if cell[1] == 0 else cell[0] / cell[1]
                else:
                    result = cell[0].result()
                aggregates[index].append(result)
        for index in call_range:
            out[f"__agg_{index}"] = aggregates[index]
        yield from iter_batches(out, length)


class VSort(VOp):
    """Materializing sort: same key values, same stable sort, so the
    output permutation is identical to the row path's."""

    def __init__(self, child: VOp, node: Any, ctx: Dict[str, Any],
                 key_kernels: List[Kernel]) -> None:
        super().__init__(node, ctx)
        self.child = child
        self.children = [child]
        self.key_kernels = key_kernels

    def batches(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        collected: Optional[Dict[str, List[Any]]] = None
        key_columns: List[List[Any]] = [[] for _ in self.key_kernels]
        length = 0
        for chunk in self.child.batches():
            if collected is None:
                collected = {
                    key: list(column) for key, column in chunk.columns.items()
                }
            else:
                for key, column in chunk.columns.items():
                    collected[key].extend(column)
            sel = range(chunk.length)
            for keys, kernel in zip(key_columns, self.key_kernels):
                keys.extend(kernel(ctx, chunk.columns, sel))
            length += chunk.length
        if not length or collected is None:
            return
        descending = [item.descending for item in self.node.order_items]
        indices = sorted(
            range(length),
            key=lambda row: order_key(
                [keys[row] for keys in key_columns], descending
            ),
        )
        ordered = {
            key: [column[row] for row in indices]
            for key, column in collected.items()
        }
        yield from iter_batches(ordered, length)


class VLimit(VOp):
    """LIMIT/OFFSET over batches.  Only planned above a materializing
    child, where truncation cannot skip expression evaluation the row
    path would also have skipped."""

    def __init__(self, child: VOp, node: Any, ctx: Dict[str, Any]) -> None:
        super().__init__(node, ctx)
        self.child = child
        self.children = [child]

    def batches(self) -> Iterator[ColumnBatch]:
        node = self.node
        limit = node.limit
        if limit is not None and limit <= 0:
            return  # like the row path: the child is never pulled
        to_skip = node.offset
        remaining = limit
        for chunk in self.child.batches():
            if to_skip:
                if chunk.length <= to_skip:
                    to_skip -= chunk.length
                    continue
                chunk = ColumnBatch(
                    {
                        key: column[to_skip:]
                        for key, column in chunk.columns.items()
                    },
                    chunk.length - to_skip,
                )
                to_skip = 0
            if remaining is not None:
                if chunk.length >= remaining:
                    if chunk.length > remaining:
                        chunk = ColumnBatch(
                            {
                                key: column[:remaining]
                                for key, column in chunk.columns.items()
                            },
                            remaining,
                        )
                    yield chunk
                    return
                remaining -= chunk.length
            yield chunk


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


def _try_kernel(expression: Any) -> Optional[Kernel]:
    try:
        return compile_kernel(expression)
    except KernelUnsupported:
        return None


def _build_node(node: Any, ctx: Dict[str, Any]) -> VOp:
    """Mirror one logical node (falling back to a row source boundary)."""
    from repro.minidb import planner as _planner

    if isinstance(node, _planner.ScanNode):
        predicate: Optional[Kernel] = None
        if node.predicate is not None:
            predicate = _try_kernel(node.predicate)
            if predicate is None:
                return VRowSource(node, ctx)
        return VScan(node, ctx, predicate)
    if isinstance(node, _planner.SubqueryScanNode):
        return VSubqueryScan(node, ctx)
    if isinstance(node, _planner.FilterNode):
        predicate = _try_kernel(node.predicate)
        if predicate is None:
            return VRowSource(node, ctx)
        return VFilter(_build_node(node.child, ctx), node, ctx, predicate)
    if isinstance(node, _planner.HashJoinNode):
        left_key_kernels: List[Kernel] = []
        right_key_kernels: List[Kernel] = []
        for left_expr, right_expr in zip(node.left_keys, node.right_keys):
            left_key = _try_kernel(left_expr)
            right_key = _try_kernel(right_expr)
            if left_key is None or right_key is None:
                return VRowSource(node, ctx)
            left_key_kernels.append(left_key)
            right_key_kernels.append(right_key)
        residual: Optional[Kernel] = None
        if node.residual is not None:
            residual = _try_kernel(node.residual)
            if residual is None:
                return VRowSource(node, ctx)
        return VHashJoin(
            _build_node(node.left, ctx), _build_node(node.right, ctx),
            node, ctx, left_key_kernels, right_key_kernels, residual,
        )
    if isinstance(node, _planner.AggregateNode):
        group_kernels: List[Kernel] = []
        for expression in node.group_exprs:
            kernel = _try_kernel(expression)
            if kernel is None:
                return VRowSource(node, ctx)
            group_kernels.append(kernel)
        argument_kernels: List[Optional[Kernel]] = []
        kinds: List[int] = []
        for call in node.aggregate_calls:
            if call.argument is None:
                argument_kernels.append(None)
            else:
                kernel = _try_kernel(call.argument)
                if kernel is None:
                    return VRowSource(node, ctx)
                argument_kernels.append(kernel)
            kinds.append(_call_kind(node.functions, call))
        return VAggregate(
            _build_node(node.child, ctx), node, ctx,
            group_kernels, argument_kernels, kinds,
        )
    if isinstance(node, _planner.SortNode):
        key_kernels: List[Kernel] = []
        for item in node.order_items:
            kernel = _try_kernel(item.expression)
            if kernel is None:
                return VRowSource(node, ctx)
            key_kernels.append(kernel)
        return VSort(_build_node(node.child, ctx), node, ctx, key_kernels)
    if isinstance(node, _planner.LimitNode):
        child = _build_node(node.child, ctx)
        if isinstance(child, (VSort, VAggregate)):
            return VLimit(child, node, ctx)
        # Any lazier child would make batch-eager evaluation observable
        # (see module docstring); keep the whole subtree on the row path.
        return VRowSource(node, ctx)
    # NestedLoopJoinNode, SingleRowNode, and anything newer.
    return VRowSource(node, ctx)


def _call_kind(functions: Any, call: Any) -> int:
    """Dispatch code for one aggregate call.

    Specialization applies only when the registry still maps the name to
    the builtin accumulator class — a re-registered aggregate keeps the
    generic (object-based) path and its exact semantics.
    """
    if call.distinct:
        return _K_GENERIC
    if call.argument is None:
        name = call.name.lower()
        if name == "count":
            try:
                if type(functions.aggregate("count")) is CountAccumulator:
                    return _K_COUNT_STAR
            except Exception:
                pass
        return _K_GENERIC
    entry = _BUILTIN_ACCUMULATORS.get(call.name.lower())
    if entry is None:
        return _K_GENERIC
    expected, kind = entry
    try:
        if type(functions.aggregate(call.name)) is expected:
            return kind
    except Exception:
        return _K_GENERIC
    return _K_GENERIC


# ---------------------------------------------------------------------------
# the vector plan
# ---------------------------------------------------------------------------


class VectorPlan:
    """The vectorized twin of a :class:`QueryPlan`.

    ``op_index`` maps ``id(logical node) -> vector operator`` for every
    genuinely vectorized node (EXPLAIN ANALYZE instruments these);
    ``fallback_nodes`` counts row-emit boundaries in the tree.
    """

    def __init__(self, plan: Any, root: VOp,
                 project: Callable[[ColumnBatch], Iterator[Tuple[Any, ...]]],
                 pure_projection: bool) -> None:
        self.plan = plan
        self.root = root
        self._project = project
        self.pure_projection = pure_projection
        self.op_index: Dict[int, VOp] = {}
        self.fallback_nodes = 0
        stack = [root]
        while stack:
            op = stack.pop()
            if op.vectorized:
                self.op_index[id(op.node)] = op
            else:
                self.fallback_nodes += 1
            stack.extend(op.children)

    def run(self) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        plan = self.plan
        columns = plan.column_names
        project = self._project
        if OBS.enabled:
            OBS.metrics.inc("minidb.vector.select.count")
            if self.fallback_nodes:
                OBS.metrics.inc(
                    "minidb.vector.fallback.nodes", self.fallback_nodes
                )
        if plan.distinct:
            if plan.post_limit is not None and plan.post_limit <= 0:
                return columns, []
            rows: List[Tuple[Any, ...]] = []
            seen: set = set()
            skipped = 0
            post_offset = plan.post_offset
            post_limit = plan.post_limit
            for chunk in self.root.batches():
                for row in project(chunk):
                    if row in seen:
                        continue
                    seen.add(row)
                    if skipped < post_offset:
                        skipped += 1
                        continue
                    rows.append(row)
                    if post_limit is not None and len(rows) >= post_limit:
                        return columns, rows
            return columns, rows
        rows = []
        for chunk in self.root.batches():
            rows.extend(project(chunk))
        return columns, rows


def _pure_projection(plan: Any) -> Optional[List[Tuple[str, Any]]]:
    """``(env key, expression)`` per output column when the projection is
    purely column/aggregate references, else None.  Bare columns bound to
    the AMBIGUOUS sentinel go through the kernels so the runtime error is
    preserved."""
    pairs: List[Tuple[str, Any]] = []
    for _name, expression in plan.output:
        if not isinstance(expression, (ColumnRef, AggregateRef)):
            return None
        if plan.base_env.get(expression.key) is AMBIGUOUS:
            return None
        pairs.append((expression.key, expression))
    return pairs or None


def _build_projection(
    plan: Any,
) -> Tuple[Optional[Callable[[ColumnBatch], Iterator[Tuple[Any, ...]]]], bool]:
    ctx = plan.base_env
    pairs = _pure_projection(plan)
    if pairs is not None:

        def project_pure(chunk: ColumnBatch) -> Iterator[Tuple[Any, ...]]:
            length = chunk.length
            gathered: List[List[Any]] = []
            for key, expression in pairs:
                column = chunk.columns.get(key)
                if column is None:
                    # Not a batch column: the scope's base env holds it,
                    # or the reference evaluator raises the row path's
                    # own error for a name nothing bound.
                    column = (
                        [expression.evaluate(ctx)] * length if length else []
                    )
                gathered.append(column)
            return zip(*gathered)

        return project_pure, True
    kernels: List[Kernel] = []
    for _name, expression in plan.output:
        kernel = _try_kernel(expression)
        if kernel is None:
            return None, False
        kernels.append(kernel)

    def project_kernels(chunk: ColumnBatch) -> Iterator[Tuple[Any, ...]]:
        sel = range(chunk.length)
        return zip(*[kernel(ctx, chunk.columns, sel) for kernel in kernels])

    return project_kernels, False


def _reads_by_key(node: Any) -> bool:
    """Whether ``node``'s own tree (sub-selects excluded) reads a table
    through an index or primary-key access path, or probes one by
    primary key (a lookup join)."""
    from repro.minidb import planner as _planner

    if isinstance(node, _planner.LookupJoinNode):
        return True
    if isinstance(node, _planner.ScanNode) and node.access is not None:
        return True
    return any(
        _reads_by_key(getattr(node, attribute))
        for attribute in ("child", "left", "right")
        if isinstance(getattr(node, attribute, None), _planner.PlanNode)
    )


def build_vector_plan(plan: Any) -> Optional[VectorPlan]:
    """Build the vectorized twin of ``plan``, or ``None`` to stay row-wise."""
    twin = _vector_twin(plan)
    if OBS.enabled:
        OBS.metrics.inc(
            "minidb.vector.plan."
            + ("row_path" if twin is None else "routed")
        )
    return twin


def _vector_twin(plan: Any) -> Optional[VectorPlan]:
    if _reads_by_key(plan.root):
        return None
    root = _build_node(plan.root, plan.base_env)
    if not root.vectorized:
        return None
    project, pure = _build_projection(plan)
    if project is None:
        return None
    if plan.distinct and plan.post_limit is not None:
        # The dedup loop stops pulling early; only a materializing root
        # plus an error-free projection keeps evaluation sets identical.
        if not (isinstance(root, (VSort, VAggregate)) and pure):
            return None
    return VectorPlan(plan, root, project, pure)
