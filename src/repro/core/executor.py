"""Direct (in-memory) evaluation of FlexRecs workflows.

The production engine: what ``Workflow.run`` and the site's default
recommendation path execute.  Tuples are dicts, extend attributes are
real Python sets/dicts on those tuples, and the recommend operator
scores (target, reference) pairs with the comparator.  A recommend costs
its candidates: the request-invariant half of a workflow (base relations
and the extends over them) is evaluated once per data version and kept
in :mod:`repro.core.extendcache`, an ``<column> = <literal>`` σ reads an
index held on that relation, and scoring probes postings held on the
target relation.  The compiled-SQL paths (:mod:`repro.core.compiler`)
must produce rank-identical output (``tests/core/test_dual_path.py``),
and ``repro.testkit.reference_recommend`` — plain nested loops, no cache
— must produce tuple-identical output with exact floats
(``tests/core/test_fast_recommend.py``).
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ExecutionError, FlexRecsError, WorkflowValidationError
from repro.core import similarity
from repro.core.extendcache import cached_relation, extend_vectors, stats_of
from repro.core.library import Comparator, _get
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
    tables_read,
)
from repro.core.workflow import Recommendation, RecommendStats, Workflow
from repro.minidb.catalog import Database
from repro.minidb.expressions import BinaryOp, ColumnRef, Literal
from repro.minidb.sql.parser import parse_expression
from repro.minidb.types import sort_key
from repro.obs import COUNT_EDGES, OBS

#: library measures with a combined single-pass, stats-consuming variant;
#: keyed by the measure *function* so a subclass with a custom measure can
#: never be routed to the wrong math.
_STATS_MEASURES = {
    similarity.pearson: similarity.pearson_with_stats,
    similarity.cosine: similarity.cosine_with_stats,
}

#: aggregates under which an all-zero target scores the least and any
#: positive pair lifts a target above it; text Jaccard scores only the
#: targets sharing a token under these (``min`` and ``count`` count zeros)
_ZERO_FLOOR_AGGREGATES = frozenset(("max", "sum", "avg"))


class _Relation:
    """Intermediate result: columns plus dict-rows (with extend attrs).

    A relation evaluated from a request-invariant subtree is cached and
    then shared by every request and thread of its database, under the
    service's *read* lock.  So nothing mutates ``rows`` or a row after
    construction (operators that change rows copy them), and a derived
    structure is built into a local and published by one assignment: two
    threads may both build it, none can see it half built.
    """

    __slots__ = ("columns", "rows", "_derived")

    def __init__(self, columns: List[str], rows: List[Dict[str, Any]]) -> None:
        self.columns = columns
        self.rows = rows
        self._derived: Dict[Any, Any] = {}

    def derived(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per relation (lazily) under ``key``."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def index(self, column: str) -> Dict[Any, List[Dict[str, Any]]]:
        """``{value: [rows holding it in ``column``, in relation order]}``.

        NULLs are not indexed: ``=`` never matches them.
        """

        def build() -> Dict[Any, List[Dict[str, Any]]]:
            index: Dict[Any, List[Dict[str, Any]]] = {}
            for row in self.rows:
                value = row[column]
                if value is not None:
                    index.setdefault(value, []).append(row)
            return index

        return self.derived(("index", column), build)


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
        max_iters=node.max_iters,
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
        #: running totals under their RecommendStats field names; each
        #: recommend reports its own share as a before/after difference
        self._counts = dict.fromkeys(
            ("cache_hits", "cache_misses", "relation_hits", "keyed_selects"), 0
        )
        #: cleared by a GraphRecommend whose ranking hit ``max_iters``
        self.converged = True

    # -- dispatch -----------------------------------------------------------

    def evaluate(self, node: Operator) -> _Relation:
        if not _request_invariant(node):
            return self._evaluate(node)
        relation, was_hit = cached_relation(
            self.database, node, tables_read(node), lambda: self._evaluate(node)
        )
        self._count_lookup(was_hit)
        self._counts["relation_hits"] += was_hit
        return relation

    def _count_lookup(self, was_hit: bool) -> None:
        self._counts["cache_hits" if was_hit else "cache_misses"] += 1

    def _evaluate(self, node: Operator) -> _Relation:
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
        keyed = _equality_key(predicate, child.columns)
        if keyed is not None:
            # `=` is Python `==` (expressions._compare), which is what a
            # dict probe does for an int or str literal.
            column, value = keyed
            self._counts["keyed_selects"] += 1
            return _Relation(child.columns, child.index(column).get(value, []))

        def scan() -> _Relation:
            kept = []
            for row in child.rows:
                env = self._env(row)
                if predicate.evaluate(env) is True:
                    kept.append(row)
            return _Relation(child.columns, kept)

        if _request_invariant(node.child):
            # A filter of a shared relation is as shared as it is, and a
            # recommend over it keeps its postings on the one result.
            return child.derived(("select", node.condition), scan)
        return scan()

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
        buckets = right.index(right_on)
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
        # Version-keyed materialization (with per-vector stats attached);
        # a write to the source table makes the entry's key unreachable,
        # so stale reads are impossible by construction.
        grouped, was_hit = extend_vectors(self.database, info)
        self._count_lookup(was_hit)
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
        before = dict(self._counts)
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
        # {target position: score}, in target-row order
        scores, zeros = self._scores(node, target, reference, key, exclude, stats)
        rows = target.rows

        def order(position: int):
            return (-scores[position], sort_key(rows[position][key]))

        top_k = node.top_k
        if top_k is not None and top_k < len(scores):
            # heapq.nsmallest(k, it, key=f) is documented equivalent to
            # sorted(it, key=f)[:k] (both stable), so the bounded heap
            # returns exactly the slice the full sort would.
            ranked = heapq.nsmallest(top_k, scores, key=order)
        else:
            ranked = sorted(scores, key=order)
        if top_k is None or len(ranked) < top_k:
            # Targets left out of ``scores`` because every pair scores 0.0
            # rank after all of them, by key then position.
            for position in itertools.islice(
                zeros, None if top_k is None else top_k - len(ranked)
            ):
                scores[position] = 0.0
                ranked.append(position)
        scored = []
        for position in ranked:
            out = dict(rows[position])
            out[node.score_column] = scores[position]
            scored.append(out)
        for name, was in before.items():
            setattr(stats, name, self._counts[name] - was)
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
                    "relation_hits": stats.relation_hits,
                    "keyed_select": stats.keyed_selects,
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

    def _scores(
        self, node, target, reference, key, exclude, stats
    ) -> Tuple[Dict[int, Any], Iterable[int]]:
        """``({target position: aggregate score}, zero fill)``.

        The scores are in target-row order; a target without a pair score
        is absent.  Every scorer produces the pair scores a nested loop
        over (target, reference) would, in that loop's per-target order,
        so float aggregation (sum/avg) adds in the same order —
        ``tests/core/test_fast_recommend.py`` holds this tuple-for-tuple
        against ``repro.testkit.reference_recommend``.  The zero fill
        yields, in ``(sort_key(key), position)`` order, the targets left
        out of the scores although every pair of theirs scores 0.0; only
        the shared-token scorer leaves any out.
        """
        if not target.rows or not reference.rows:
            return {}, ()
        if node.aggregate in _ZERO_FLOOR_AGGREGATES and _counts_shared_tokens(
            node.comparator
        ):
            return self._score_shared_tokens(
                node, target, reference, key, exclude, stats
            )
        comparator = node.comparator
        if comparator.requires_overlap and comparator.kind in (
            "vector", "set", "lookup",
        ):
            score = self._score_overlap
        else:
            score = self._score_pairwise
        pair_scores = score(comparator, target, reference, exclude, stats)
        stats.scored = sum(map(len, pair_scores.values()))
        return {
            position: _aggregate(node.aggregate, values)
            for position, values in sorted(pair_scores.items())
        }, ()

    def _score_pairwise(
        self, comparator, target, reference, exclude, stats
    ) -> Dict[int, List[float]]:
        """Scalar/udf comparators: nothing is prunable, but attribute
        resolution, value extraction and ``prepare`` hoist out of the
        O(n·m) pair loop through the comparator's ``pair_function`` — the
        target side onto the relation."""
        rows = target.rows
        pair = comparator.pair_function()
        prepare = comparator.prepare or _identity
        target_key = _attr_key(rows[0], comparator.target_attribute)
        reference_key = _attr_key(
            reference.rows[0], comparator.reference_attribute
        )
        target_values = target.derived(
            ("values", target_key, prepare),
            lambda: [prepare(row[target_key]) for row in rows],
        )
        reference_values = [
            prepare(row[reference_key]) for row in reference.rows
        ]
        references = list(zip(reference.rows, reference_values))
        scores: Dict[int, List[float]] = {}
        for position, target_value in enumerate(target_values):
            left = rows[position][exclude[0]] if exclude is not None else None
            values = []
            for reference_row, reference_value in references:
                if left is not None and left == reference_row[exclude[1]]:
                    continue
                value = pair(target_value, reference_value)
                if value is not None:
                    values.append(value)
            if values:
                scores[position] = values
        stats.candidates = len(rows) * len(references)
        return scores

    def _score_overlap(
        self, comparator, target, reference, exclude, stats
    ) -> Dict[int, List[float]]:
        """Vector/set/lookup comparators: postings-map candidate pruning.

        Sound because ``requires_overlap`` guarantees the measure scores
        ``None`` for pairs sharing no key/element — pruned pairs would
        have contributed nothing to any aggregate (including count).
        The postings are over the *target* side (for a lookup, over its
        probe column), which is the side that does not depend on the
        request, so they are built once per relation; each reference row
        probes them in reference-row order and appends to its
        candidates' score lists.
        """
        kind = comparator.kind
        rows = target.rows
        target_key = _attr_key(rows[0], comparator.target_attribute)
        reference_key = _attr_key(
            reference.rows[0], comparator.reference_attribute
        )
        target_values, postings = target.derived(
            ("postings", target_key, kind),
            lambda: _postings(comparator, rows, target_key),
        )
        if kind == "lookup":
            def pair(probe, vector):
                return float(vector[probe])
        else:
            pair = type(comparator).measure
            with_stats = _STATS_MEASURES.get(pair) if kind == "vector" else None
            if with_stats is not None:
                def pair(left, right):
                    return with_stats(left, right, stats_of(left), stats_of(right))
        scores: Dict[int, List[float]] = {}
        for reference_row in reference.rows:
            reference_value = _shaped(
                comparator, reference_row[reference_key], kind != "set"
            )
            candidates: set = set()
            for element in reference_value:
                bucket = postings.get(element)
                if bucket is not None:
                    candidates.update(bucket)
            stats.candidates += len(candidates)
            right = reference_row[exclude[1]] if exclude is not None else None
            for position in candidates:
                if right is not None and rows[position][exclude[0]] == right:
                    continue
                value = pair(target_values[position], reference_value)
                if value is not None:
                    scores.setdefault(position, []).append(value)
        stats.pruned = len(rows) * len(reference.rows) - stats.candidates
        return scores

    def _score_shared_tokens(
        self, node, target, reference, key, exclude, stats
    ) -> Tuple[Dict[int, float], Iterable[int]]:
        """Text Jaccard under ``max``/``sum``/``avg``: score only the
        targets that share a token with a reference row.

        A disjoint pair scores 0.0, not None, so no pair is prunable; but
        a target whose every pair scores 0.0 aggregates to 0.0, the least
        score any target can have, and a positive pair lifts it above
        that.  So the targets sharing a token are scored and ranked, and
        the all-zero ones come back as the zero fill, only as far as the
        ranking reads it.  Each reference row counts its shared tokens per
        target position through the postings of the (cached) target side;
        ``shared / (|t| + |r| - shared)`` is the division
        ``similarity.jaccard`` does, so the floats are its floats.  Adding
        a 0.0 changes no float sum, and ``avg`` divides by the number of
        pairs that score at all, zeros included, so every aggregate is the
        nested loop's to the bit.
        """
        comparator = node.comparator
        rows = target.rows
        target_key = _attr_key(rows[0], comparator.target_attribute)
        reference_key = _attr_key(
            reference.rows[0], comparator.reference_attribute
        )

        def build():
            token_sets = [similarity.token_set(row[target_key]) for row in rows]
            return token_sets, _positions(token_sets)

        # row i's token set, and each token's ascending row positions
        token_sets, postings = target.derived(("tokens", target_key), build)
        # (tokens, exclude-self value) of each reference row that scores a
        # pair at all: a NULL or token-less title scores None
        references = []
        for row in reference.rows:
            tokens = similarity.token_set(row[reference_key])
            if tokens:
                references.append(
                    (tokens, row[exclude[1]] if exclude is not None else None)
                )
        pair_scores: Dict[int, List[float]] = {}
        for tokens, right in references:
            shared = Counter()
            for token in tokens:
                bucket = postings.get(token)
                if bucket is not None:
                    shared.update(bucket)
            stats.candidates += len(shared)
            size = len(tokens)
            for position, count in shared.items():
                if exclude is not None:
                    left = rows[position][exclude[0]]
                    if left is not None and left == right:
                        continue
                pair_scores.setdefault(position, []).append(
                    count / (len(token_sets[position]) + size - count)
                )
        stats.pruned = len(rows) * len(reference.rows) - stats.candidates
        stats.scored = sum(map(len, pair_scores.values()))

        def pairs(position: int) -> int:
            """How many references score a pair with this target."""
            left = rows[position][exclude[0]] if exclude is not None else None
            if left is None:
                return len(references)
            return sum(1 for _tokens, right in references if not left == right)

        aggregate = node.aggregate
        scores = {
            position: (
                sum(values) / pairs(position)
                if aggregate == "avg"
                else _aggregate(aggregate, values)
            )
            for position, values in sorted(pair_scores.items())
        }

        def key_order() -> List[int]:
            return sorted(
                range(len(rows)), key=lambda position: sort_key(rows[position][key])
            )

        def zeros():
            for position in target.derived(("key order", key), key_order):
                if (
                    token_sets[position]
                    and position not in pair_scores
                    and pairs(position)
                ):
                    yield position

        return scores, zeros()

    # -- helpers -----------------------------------------------------------

    def _condition(self, text: str):
        expression = self._condition_cache.get(text)
        if expression is None:
            expression = parse_expression(text)
            self._condition_cache[text] = expression
        return expression

    def _env(self, row: Mapping) -> Dict[str, Any]:
        env: Dict[str, Any] = {"__functions__": self.database.functions}
        for column, value in row.items():
            env[column.lower()] = value
        return env


def _request_invariant(node: Operator) -> bool:
    """A subtree of ``Source`` and ``Extend`` only: no request parameter
    can reach it, so its relation is a function of the tables it reads."""
    while isinstance(node, Extend):
        node = node.child
    return isinstance(node, Source)


def _equality_key(predicate: Any, columns: List[str]) -> Optional[Tuple[str, Any]]:
    """``(column, literal)`` when ``predicate`` is ``<column> = <int or
    str literal>`` over an unqualified column of ``columns``, else None
    (the σ scans: any other shape, and a bool/float/NULL literal)."""
    if not (
        isinstance(predicate, BinaryOp)
        and predicate.op == "="
        and isinstance(predicate.left, ColumnRef)
        and predicate.left.qualifier is None
        and isinstance(predicate.right, Literal)
        and type(predicate.right.value) in (int, str)
    ):
        return None
    for column in columns:
        if column.lower() == predicate.left.key:
            return column, predicate.right.value
    return None


def _shaped(comparator: Comparator, value: Any, vector: bool) -> Any:
    """``value`` in the shape the measure takes, or a type error."""
    if isinstance(value, Mapping) != vector:
        raise FlexRecsError(
            f"{comparator.name} requires "
            f"{'vector (extend-map)' if vector else 'set'} attributes; "
            f"got {type(value).__name__}"
        )
    return value if vector else frozenset(value)


def _postings(comparator: Comparator, rows: List[Dict[str, Any]], key: str):
    """``(values, postings)`` of a recommend's target side.

    ``values[i]`` is row *i*'s attribute as the measure takes it (the
    probe scalar for a lookup) and ``postings`` maps each element/key of
    it to the ascending positions of the rows holding it.
    """
    kind = comparator.kind
    if kind == "lookup":
        values = [row[key] for row in rows]
        return values, _positions(
            () if value is None else (value,) for value in values
        )
    values = [_shaped(comparator, row[key], kind == "vector") for row in rows]
    return values, _positions(values)


def _positions(element_lists: Iterable[Iterable[Any]]) -> Dict[Any, List[int]]:
    """Each element's ascending positions in ``element_lists``."""
    postings: Dict[Any, List[int]] = {}
    for position, elements in enumerate(element_lists):
        for element in elements:
            bucket = postings.get(element)
            if bucket is None:
                postings[element] = [position]
            else:
                bucket.append(position)
    return postings


def _counts_shared_tokens(comparator: Comparator) -> bool:
    """Whether ``comparator`` is text Jaccard: keyed by the functions,
    like ``_STATS_MEASURES``, so a subclass with its own math is never
    scored as if it were."""
    return (
        comparator.prepare is similarity.token_set
        and comparator.pair_function() is similarity.token_jaccard
    )


def _identity(value: Any) -> Any:
    return value


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


def _attr_key(row: Mapping, attribute: str) -> str:
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
