"""Direct (in-memory) evaluation of FlexRecs workflows.

This is the reference semantics: tuples are dicts, extend attributes are
real Python sets/dicts on those tuples, and the recommend operator loops
over (target, reference) pairs calling the comparator.  The compiled-SQL
path (:mod:`repro.core.compiler`) must produce rank-identical output; the
property tests in ``tests/core/test_dual_path.py`` enforce that.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ExecutionError, FlexRecsError, WorkflowValidationError
from repro.core import similarity
from repro.core.extendcache import extend_vectors, stats_of
from repro.core.library import _get
from repro.core.operators import (
    Extend,
    GraphRecommend,
    Join,
    MaterializedSource,
    Operator,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
)
from repro.core.workflow import Recommendation, RecommendStats, Workflow
from repro.minidb.catalog import Database
from repro.minidb.sql.parser import parse_expression
from repro.minidb.types import sort_key
from repro.obs import COUNT_EDGES, OBS

#: Kill-switch for the recommend fast path (extend-vector cache, candidate
#: pruning, stats-aware measures, bounded-heap top-k).  ``False`` restores
#: the naive pre-fast-path pipeline — the benchmarks flip it to measure
#: the cold baseline, and the property tests flip it to prove the two
#: pipelines emit tuple-for-tuple identical recommendations.
FAST_RECOMMEND = True

#: library measures with a combined single-pass, stats-consuming variant;
#: keyed by the measure *function* so a subclass with a custom measure can
#: never be routed to the wrong math.
_STATS_MEASURES = {
    similarity.pearson: similarity.pearson_with_stats,
    similarity.cosine: similarity.cosine_with_stats,
}


class _Relation:
    """Intermediate result: columns plus dict-rows (with extend attrs)."""

    def __init__(self, columns: List[str], rows: List[Dict[str, Any]]) -> None:
        self.columns = columns
        self.rows = rows


def execute_workflow(workflow: Workflow, database: Database) -> Recommendation:
    """Evaluate a (validated) workflow directly."""
    executor = _Executor(database)
    relation = executor.evaluate(workflow.root)
    # Strip extend attributes from the output rows: the public result is
    # relational, matching what the compiled SQL path returns.
    visible = relation.columns
    rows = [{column: row[column] for column in visible} for row in relation.rows]
    return Recommendation(
        columns=list(visible),
        rows=rows,
        stats=executor.recommend_stats,
        converged=executor.converged,
    )


def execute_workflow_on(workflow: Workflow, backend: Any) -> Recommendation:
    """Execute a workflow on a named or instantiated execution backend.

    ``backend`` is a :class:`repro.backends.Backend` or a registered
    backend name (``"minidb"``, ``"sqlite3"``, ...), in which case a
    fresh driver is created bound to the workflow-owning catalog the
    caller passes separately via :meth:`Workflow.run_backend`.  The
    compiled path renders for the backend's dialect, so recommend /
    extend / filter / blend operators run as SQL on the target engine
    instead of being interpreted row by row here.
    """
    return backend.execute_workflow(workflow)


def graph_recommend_rows(
    engine: Any,
    node: GraphRecommend,
    schema: Any,
    courses_of: Callable[[Any], Optional[Any]],
) -> Tuple[List[str], List[Dict[str, Any]], bool]:
    """Rank on ``engine`` and fetch the ranked courses: (columns, rows, converged).

    ``schema`` is the ``Courses`` schema and ``courses_of(course_id)`` the
    ``Courses`` table holding that id (None when nothing does).  Each of
    the ≤ ``top_k`` ranked ids is one primary-key lookup; an id with no
    row is skipped.
    """
    if [name.lower() for name in schema.primary_key] != ["courseid"]:
        raise FlexRecsError("GraphRecommend needs Courses keyed by CourseID")
    ranked = engine.rank_courses(
        node.preference,
        top_k=node.top_k,
        exclude_seed=node.exclude_seed,
        damping=node.damping,
        epsilon=node.epsilon,
        max_iters=node.max_iters,
        preference_weight=node.preference_weight,
    )
    columns = list(schema.column_names)
    rows: List[Dict[str, Any]] = []
    for course_id, score in ranked:
        table = courses_of(course_id)
        course = None if table is None else table.lookup_pk((course_id,))
        if course is None:
            continue
        row = dict(zip(columns, course))
        row[node.score_column] = score
        rows.append(row)
    return columns + [node.score_column], rows, ranked.converged


class _Executor:
    def __init__(self, database: Database) -> None:
        self.database = database
        self._condition_cache: Dict[str, Any] = {}
        self.recommend_stats: List[RecommendStats] = []
        self._extend_hits = 0
        self._extend_misses = 0
        #: cleared by a GraphRecommend whose ranking hit ``max_iters``
        self.converged = True

    # -- dispatch -----------------------------------------------------------

    def evaluate(self, node: Operator) -> _Relation:
        if isinstance(node, Source):
            return self._eval_source(node)
        if isinstance(node, MaterializedSource):
            table = self.database.table(node.table)
            columns = [name for name, _dtype in node.schema_pairs]
            rows = [dict(zip(columns, row)) for row in table.rows()]
            return _Relation(columns, rows)
        if isinstance(node, SqlSource):
            return self._eval_sql_source(node)
        if isinstance(node, Select):
            return self._eval_select(node)
        if isinstance(node, Project):
            return self._eval_project(node)
        if isinstance(node, Join):
            return self._eval_join(node)
        if isinstance(node, Extend):
            return self._eval_extend(node)
        if isinstance(node, Recommend):
            return self._eval_recommend(node)
        if isinstance(node, GraphRecommend):
            return self._eval_graph_recommend(node)
        if isinstance(node, TopK):
            return self._eval_topk(node)
        raise FlexRecsError(f"unknown operator {type(node).__name__}")

    # -- leaves ----------------------------------------------------------

    def _eval_source(self, node: Source) -> _Relation:
        table = self.database.table(node.table)
        columns = list(table.schema.column_names)
        rows = [dict(zip(columns, row)) for row in table.rows()]
        return _Relation(columns, rows)

    def _eval_sql_source(self, node: SqlSource) -> _Relation:
        result = self.database.query(node.sql)
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        return _Relation(list(result.columns), rows)

    def _eval_graph_recommend(self, node: GraphRecommend) -> _Relation:
        from repro.graphrank.engine import GraphRankEngine

        table = self.database.table("Courses")
        columns, rows, converged = graph_recommend_rows(
            GraphRankEngine.for_database(self.database),
            node,
            table.schema,
            lambda course_id: table,
        )
        self.converged = self.converged and converged
        return _Relation(columns, rows)

    # -- unary relational operators -------------------------------------------

    def _eval_select(self, node: Select) -> _Relation:
        child = self.evaluate(node.child)
        predicate = self._condition(node.condition)
        kept = []
        for row in child.rows:
            env = self._env(row)
            if predicate.evaluate(env) is True:
                kept.append(row)
        return _Relation(child.columns, kept)

    def _eval_project(self, node: Project) -> _Relation:
        child = self.evaluate(node.child)
        columns = node.output_columns(self.database)
        attr_names = [
            info.attribute
            for info in node.extend_infos(self.database)
        ]
        rows = []
        seen = set() if node.distinct else None
        for row in child.rows:
            projected = {column: _get(row, column) for column in columns}
            if seen is not None:
                key = tuple(_freeze(projected[column]) for column in columns)
                if key in seen:
                    continue
                seen.add(key)
            for attribute in attr_names:
                projected[attribute] = row[attribute]
            rows.append(projected)
        return _Relation(columns, rows)

    def _eval_topk(self, node: TopK) -> _Relation:
        child = self.evaluate(node.child)
        by = _resolve_column(child.columns, node.by_column)
        rows = sorted(
            child.rows,
            key=lambda row: (sort_key(row[by]),),
            reverse=node.descending,
        )
        return _Relation(child.columns, rows[: node.k])

    # -- join ------------------------------------------------------------

    def _eval_join(self, node: Join) -> _Relation:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        columns = node.output_columns(self.database)
        left_on = _resolve_column(left.columns, node.left_on)
        right_on = _resolve_column(right.columns, node.right_on)
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for row in right.rows:
            key = row[right_on]
            if key is None:
                continue
            buckets.setdefault(key, []).append(row)
        rows = []
        for left_row in left.rows:
            key = left_row[left_on]
            if key is None:
                continue
            for right_row in buckets.get(key, ()):
                merged = dict(left_row)
                merged.update(right_row)
                rows.append(merged)
        return _Relation(columns, rows)

    # -- extend ------------------------------------------------------------

    def _eval_extend(self, node: Extend) -> _Relation:
        child = self.evaluate(node.child)
        info = node.info
        if FAST_RECOMMEND:
            # Cached, version-keyed materialization (with per-vector stats
            # attached); a write to the source table makes the entry's key
            # unreachable, so stale reads are impossible by construction.
            grouped, was_hit = extend_vectors(self.database, info)
            if was_hit:
                self._extend_hits += 1
            else:
                self._extend_misses += 1
        else:
            table = self.database.table(info.source_table)
            schema = table.schema
            key_position = schema.column_position(info.source_key)
            value_position = schema.column_position(info.value_column)
            map_position = (
                schema.column_position(info.map_column)
                if info.map_column is not None
                else None
            )
            grouped = {}
            for row in table.rows():
                key = row[key_position]
                value = row[value_position]
                if key is None or value is None:
                    continue
                if map_position is not None:
                    map_key = row[map_position]
                    if map_key is None:
                        continue
                    grouped.setdefault(key, {})[map_key] = value
                else:
                    grouped.setdefault(key, set()).add(value)
        empty: Any = {} if info.is_vector else set()
        key_column = _resolve_column(child.columns, info.key_column)
        rows = []
        for row in child.rows:
            extended = dict(row)
            extended[info.attribute] = grouped.get(row[key_column], empty)
            rows.append(extended)
        return _Relation(child.columns, rows)

    # -- recommend -----------------------------------------------------------

    def _eval_recommend(self, node: Recommend) -> _Relation:
        started = time.perf_counter()
        hits_before = self._extend_hits
        misses_before = self._extend_misses
        target = self.evaluate(node.target)
        reference = self.evaluate(node.reference)
        columns = node.output_columns(self.database)
        key = _resolve_column(target.columns, node.target_key)
        exclude = None
        if node.exclude_self is not None:
            exclude = (
                _resolve_column(target.columns, node.exclude_self[0]),
                _resolve_column(reference.columns, node.exclude_self[1]),
            )
        stats = RecommendStats(
            comparator=node.comparator.describe(),
            aggregate=node.aggregate,
            targets=len(target.rows),
            references=len(reference.rows),
        )
        if FAST_RECOMMEND:
            scored = self._score_fast(node, target, reference, exclude, stats)
        else:
            scored = self._score_naive(node, target, reference, exclude, stats)

        def order(row: Dict[str, Any]):
            return (-row[node.score_column], sort_key(row[key]))

        if FAST_RECOMMEND and node.top_k is not None and node.top_k < len(scored):
            # heapq.nsmallest(k, it, key=f) is documented equivalent to
            # sorted(it, key=f)[:k] (both stable), so the bounded heap
            # returns exactly the slice the full sort would.
            scored = heapq.nsmallest(node.top_k, scored, key=order)
        else:
            scored.sort(key=order)
            if node.top_k is not None:
                scored = scored[: node.top_k]
        stats.cache_hits = self._extend_hits - hits_before
        stats.cache_misses = self._extend_misses - misses_before
        stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.recommend_stats.append(stats)
        if OBS.enabled:
            # The spans/metrics are views over the finished RecommendStats
            # record — one measurement site, two surfaces.
            OBS.tracer.record(
                "flexrecs.recommend",
                stats.elapsed_ms,
                attrs={
                    "comparator": stats.comparator,
                    "targets": stats.targets,
                    "references": stats.references,
                    "pruned": stats.pruned,
                    "cache_hits": stats.cache_hits,
                },
            )
            OBS.metrics.inc("flexrecs.recommend.count")
            OBS.metrics.inc("flexrecs.recommend.cache_hits", stats.cache_hits)
            OBS.metrics.inc(
                "flexrecs.recommend.cache_misses", stats.cache_misses
            )
            OBS.metrics.observe("flexrecs.recommend.ms", stats.elapsed_ms)
            OBS.metrics.observe(
                "flexrecs.recommend.pruned", stats.pruned, edges=COUNT_EDGES
            )
        return _Relation(columns, scored)

    def _score_naive(self, node, target, reference, exclude, stats) -> List[Dict[str, Any]]:
        """Reference scoring: full pairwise comparator calls, no cache."""
        comparator = node.comparator
        n_reference = len(reference.rows)
        scored: List[Dict[str, Any]] = []
        for target_row in target.rows:
            pair_scores: List[float] = []
            for reference_row in reference.rows:
                if exclude is not None:
                    left = target_row[exclude[0]]
                    right = reference_row[exclude[1]]
                    if left is not None and left == right:
                        continue
                value = comparator.score(target_row, reference_row)
                if value is not None:
                    pair_scores.append(value)
            stats.candidates += n_reference
            stats.scored += len(pair_scores)
            if not pair_scores:
                continue
            out = dict(target_row)
            out[node.score_column] = _aggregate(node.aggregate, pair_scores)
            scored.append(out)
        return scored

    def _score_fast(self, node, target, reference, exclude, stats) -> List[Dict[str, Any]]:
        """Dispatch to a pruned/hoisted scorer; falls back per comparator.

        Every branch produces the same pair scores, aggregated in the
        same (reference-row) order, as :meth:`_score_naive` — the
        property tests in ``tests/core/test_fast_recommend.py`` assert
        tuple-for-tuple equality.
        """
        comparator = node.comparator
        if not target.rows or not reference.rows:
            return []
        if comparator.requires_overlap:
            if comparator.kind in ("vector", "set"):
                return self._score_overlap(node, target, reference, exclude, stats)
            if comparator.kind == "lookup":
                return self._score_lookup(node, target, reference, exclude, stats)
        return self._score_pairwise(node, target, reference, exclude, stats)

    def _score_pairwise(self, node, target, reference, exclude, stats) -> List[Dict[str, Any]]:
        """Scalar/udf (and custom) comparators: nothing is prunable, but
        attribute resolution and value extraction hoist out of the O(n·m)
        pair loop when the comparator exposes a ``pair_function``."""
        comparator = node.comparator
        pair = comparator.pair_function()
        n_reference = len(reference.rows)
        scored: List[Dict[str, Any]] = []
        if pair is not None:
            target_key = _attr_key(target.rows[0], comparator.target_attribute)
            reference_key = _attr_key(
                reference.rows[0], comparator.reference_attribute
            )
            reference_values = [row[reference_key] for row in reference.rows]
        for target_row in target.rows:
            exclude_left = target_row[exclude[0]] if exclude is not None else None
            pair_scores: List[float] = []
            if pair is not None:
                target_value = target_row[target_key]
                for index, reference_row in enumerate(reference.rows):
                    if exclude_left is not None and (
                        exclude_left == reference_row[exclude[1]]
                    ):
                        continue
                    value = pair(target_value, reference_values[index])
                    if value is not None:
                        pair_scores.append(value)
            else:
                for reference_row in reference.rows:
                    if exclude_left is not None and (
                        exclude_left == reference_row[exclude[1]]
                    ):
                        continue
                    value = comparator.score(target_row, reference_row)
                    if value is not None:
                        pair_scores.append(value)
            stats.candidates += n_reference
            stats.scored += len(pair_scores)
            if not pair_scores:
                continue
            out = dict(target_row)
            out[node.score_column] = _aggregate(node.aggregate, pair_scores)
            scored.append(out)
        return scored

    def _score_overlap(self, node, target, reference, exclude, stats) -> List[Dict[str, Any]]:
        """Vector/set comparators: postings-map candidate pruning.

        Sound because ``requires_overlap`` guarantees the measure scores
        ``None`` for pairs sharing no key/element — pruned pairs would
        have contributed nothing to any aggregate (including count).
        Candidates are visited in reference-row order so float
        aggregation (sum/avg) adds in the naive path's order.
        """
        comparator = node.comparator
        is_vector = comparator.kind == "vector"
        measure = type(comparator).measure
        stats_measure = _STATS_MEASURES.get(measure) if is_vector else None
        target_key = _attr_key(target.rows[0], comparator.target_attribute)
        reference_key = _attr_key(
            reference.rows[0], comparator.reference_attribute
        )
        reference_rows = reference.rows
        n_reference = len(reference_rows)
        first_target_value = target.rows[0][target_key]
        reference_values: List[Any] = []
        for row in reference_rows:
            value = row[reference_key]
            if is_vector:
                if not isinstance(value, Mapping):
                    raise FlexRecsError(
                        f"{comparator.name} requires vector (extend-map) "
                        f"attributes; got {type(first_target_value).__name__} "
                        f"and {type(value).__name__}"
                    )
                reference_values.append(value)
            else:
                if isinstance(value, Mapping):
                    raise FlexRecsError(
                        f"{comparator.name} requires set attributes, "
                        f"not vectors"
                    )
                reference_values.append(frozenset(value))
        postings: Dict[Any, List[int]] = {}
        for index, value in enumerate(reference_values):
            for element in value:
                bucket = postings.get(element)
                if bucket is None:
                    postings[element] = [index]
                else:
                    bucket.append(index)
        scored: List[Dict[str, Any]] = []
        for target_row in target.rows:
            target_value = target_row[target_key]
            if is_vector:
                if not isinstance(target_value, Mapping):
                    raise FlexRecsError(
                        f"{comparator.name} requires vector (extend-map) "
                        f"attributes; got {type(target_value).__name__} "
                        f"and {type(reference_values[0]).__name__}"
                    )
            elif isinstance(target_value, Mapping):
                raise FlexRecsError(
                    f"{comparator.name} requires set attributes, not vectors"
                )
            candidate_ids: set = set()
            for element in target_value:
                bucket = postings.get(element)
                if bucket is not None:
                    candidate_ids.update(bucket)
            stats.candidates += len(candidate_ids)
            stats.pruned += n_reference - len(candidate_ids)
            if not candidate_ids:
                continue
            exclude_left = target_row[exclude[0]] if exclude is not None else None
            if is_vector:
                target_stats = stats_of(target_value)
            else:
                frozen_target = frozenset(target_value)
            pair_scores: List[float] = []
            for index in sorted(candidate_ids):
                if exclude_left is not None and (
                    exclude_left == reference_rows[index][exclude[1]]
                ):
                    continue
                reference_value = reference_values[index]
                if not is_vector:
                    value = measure(frozen_target, reference_value)
                elif stats_measure is not None:
                    value = stats_measure(
                        target_value,
                        reference_value,
                        target_stats,
                        stats_of(reference_value),
                    )
                else:
                    value = measure(target_value, reference_value)
                if value is not None:
                    pair_scores.append(value)
            stats.scored += len(pair_scores)
            if not pair_scores:
                continue
            out = dict(target_row)
            out[node.score_column] = _aggregate(node.aggregate, pair_scores)
            scored.append(out)
        return scored

    def _score_lookup(self, node, target, reference, exclude, stats) -> List[Dict[str, Any]]:
        """Lookup comparator: prune references to the probed key's holders.

        A reference whose vector lacks the probe key scores ``None``
        (``vector.get`` misses), so only the postings bucket for the
        target's key value can contribute pair scores.
        """
        comparator = node.comparator
        target_key = _attr_key(target.rows[0], comparator.target_attribute)
        reference_key = _attr_key(
            reference.rows[0], comparator.reference_attribute
        )
        reference_rows = reference.rows
        n_reference = len(reference_rows)
        reference_vectors: List[Mapping[Any, Any]] = []
        for row in reference_rows:
            vector = row[reference_key]
            if not isinstance(vector, Mapping):
                raise FlexRecsError(
                    f"{comparator.name} requires a vector reference attribute"
                )
            reference_vectors.append(vector)
        postings: Dict[Any, List[int]] = {}
        for index, vector in enumerate(reference_vectors):
            for element in vector:
                bucket = postings.get(element)
                if bucket is None:
                    postings[element] = [index]
                else:
                    bucket.append(index)
        scored: List[Dict[str, Any]] = []
        for target_row in target.rows:
            probe = target_row[target_key]
            bucket = postings.get(probe) if probe is not None else None
            count = len(bucket) if bucket is not None else 0
            stats.candidates += count
            stats.pruned += n_reference - count
            if not bucket:
                continue
            exclude_left = target_row[exclude[0]] if exclude is not None else None
            pair_scores: List[float] = []
            # buckets are built in reference-row order already
            for index in bucket:
                if exclude_left is not None and (
                    exclude_left == reference_rows[index][exclude[1]]
                ):
                    continue
                pair_scores.append(float(reference_vectors[index][probe]))
            stats.scored += len(pair_scores)
            if not pair_scores:
                continue
            out = dict(target_row)
            out[node.score_column] = _aggregate(node.aggregate, pair_scores)
            scored.append(out)
        return scored

    # -- helpers -----------------------------------------------------------

    def _condition(self, text: str):
        expression = self._condition_cache.get(text)
        if expression is None:
            expression = parse_expression(text)
            self._condition_cache[text] = expression
        return expression

    def _env(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        env: Dict[str, Any] = {"__functions__": self.database.functions}
        for column, value in row.items():
            env[column.lower()] = value
        return env


def _aggregate(name: str, values: List[float]):
    if name == "max":
        return max(values)
    if name == "min":
        return min(values)
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "count":
        return len(values)
    raise ExecutionError(f"unknown aggregate {name!r}")  # pragma: no cover


def _attr_key(row: Mapping[str, Any], attribute: str) -> str:
    """The actual dict key holding ``attribute`` in this relation's rows.

    All rows of a relation share one key set, so resolving once against
    the first row replaces a per-pair ``_get`` call with a plain dict
    lookup.  Mirrors ``_get``'s case-insensitive fallback and error.
    """
    if attribute in row:
        return attribute
    lowered = attribute.lower()
    for key in row:
        if key.lower() == lowered:
            return key
    raise FlexRecsError(
        f"tuple has no attribute {attribute!r}; available: {sorted(row)}"
    )


def _resolve_column(columns: List[str], name: str) -> str:
    lowered = name.lower()
    for column in columns:
        if column.lower() == lowered:
            return column
    raise WorkflowValidationError(
        f"unknown column {name!r}; available: {columns}"
    )


def _freeze(value: Any):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, set):
        return frozenset(value)
    return value
