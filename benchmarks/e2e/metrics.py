"""Metric names, units, and how each is computed from a run's raw data.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's whole vocabulary;
``BENCHMARK.json`` declares the same names (``test_smoke.py`` checks).
Every workload reports every name: a layer a workload never enters
reports 0, which is itself the claim the workload was chosen to make.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from spans import END, FIELDS, LAYER, LAYERS, NAME, OP, PARENT, START, self_times
from workloads import KIND_LABEL, Op

END_TO_END: Dict[str, str] = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "service.self_ms_per_op": "ms",
    "service.build_s": "s",
    "service.response_cache_hit_pct": "%",
    "service.recommend_memo_hit_pct": "%",
    "service.search_p50_ms": "ms",
    "service.session_p50_ms": "ms",
    "service.page_p50_ms": "ms",
    "service.recommend_p50_ms": "ms",
    "service.graphrank_p50_ms": "ms",
    "service.cubewalk_p50_ms": "ms",
    "service.comment_p50_ms": "ms",
    "courserank.self_ms_per_op": "ms",
    "courserank.calls_per_op": "count",
    "search.self_ms_per_op": "ms",
    "search.calls_per_op": "count",
    "search.candidates_per_query": "count",
    "search.scored_per_query": "count",
    "search.result_cache_hit_pct": "%",
    "search.refresh_ms_per_write": "ms",
    "clouds.self_ms_per_op": "ms",
    "clouds.calls_per_op": "count",
    "clouds.terms_per_cloud": "count",
    "clouds.narrowed_share_pct": "%",
    "core.self_ms_per_op": "ms",
    "core.compile_ms_per_recommend": "ms",
    "core.compile_calls_per_recommend": "count",
    "minidb.self_ms_per_op": "ms",
    "minidb.statements_per_op": "count",
    "minidb.statements_per_page": "count",
    "minidb.statements_per_recommend": "count",
    "minidb.plan_cache_hit_pct": "%",
    "graphrank.self_ms_per_op": "ms",
    "graphrank.refresh_ms": "ms",
    "graphrank.power_iteration_ms_per_call": "ms",
    "graphrank.power_iterations_per_op": "count",
    "graphrank.iterations_per_rank": "count",
    "graphrank.converged_pct": "%",
    "graphrank.rank_memo_hit_pct": "%",
    "graphrank.nodes": "count",
    "graphrank.edges": "count",
    "datagen.generate_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
}

_STATEMENT_SPANS = ("Database.execute", "PreparedStatement.execute")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_pct(delta: Dict[str, int], prefix: str) -> float:
    hits = delta[f"{prefix}.hits"]
    return 100.0 * _ratio(hits, hits + delta[f"{prefix}.misses"])


def end_to_end(
    best_ns: Sequence[int], setups: Sequence[float], peak_rss_mb: float
) -> Dict[str, float]:
    """The user-visible numbers, from per-op best-of-K latencies."""
    millis = [value / 1e6 for value in best_ns]
    return {
        "ops_per_s": len(best_ns) / (sum(best_ns) / 1e9),
        "op_p50_ms": percentile(millis, 0.50),
        "op_p90_ms": percentile(millis, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setups),
    }


def per_layer(
    trace: Sequence[Op],
    spans: Sequence[Sequence[Any]],
    best_ns: Sequence[int],
    traced_ns: Sequence[int],
    untraced_sums_ns: Sequence[int],
    counters: Dict[str, int],
    build_s: float,
    datagen_s: float,
) -> Dict[str, float]:
    """Every per-layer metric, from one traced pass plus the untraced ones.

    ``counters`` is the traced pass's change in the program's own cache
    counters (``graph.nodes``/``graph.edges`` are absolute).
    """
    ops = len(trace)
    kinds = [op[0] for op in trace]
    own = self_times(spans)
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name_ns: Dict[str, int] = {}
    by_name_calls: Dict[str, int] = {}
    statements_by_kind: Dict[str, int] = {}
    has_facade_child = set()
    refresh_setup_ns = 0
    fields: Dict[str, List[Dict[str, Any]]] = {}
    for span, self_time in zip(spans, own):
        name, duration = span[NAME], span[END] - span[START]
        if span[OP] < 0:
            # Set-up: only the cold adjacency build is reported from here.
            outermost = span[PARENT] < 0 or not spans[span[PARENT]][
                NAME
            ].endswith(".refresh")
            if name.endswith(".refresh") and outermost:
                refresh_setup_ns += duration
            continue
        self_ns[span[LAYER]] += self_time
        calls[span[LAYER]] += 1
        by_name_ns[name] = by_name_ns.get(name, 0) + duration
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
        if name in _STATEMENT_SPANS:
            kind = kinds[span[OP]]
            statements_by_kind[kind] = statements_by_kind.get(kind, 0) + 1
        if span[LAYER] == "courserank" and span[PARENT] >= 0:
            has_facade_child.add(span[PARENT])
        if span[FIELDS]:
            fields.setdefault(name, []).append(span[FIELDS])

    def count(kind: str) -> int:
        return sum(1 for each in kinds if each == kind)

    def mean_field(name: str, field: str) -> float:
        rows = fields.get(name, [])
        return _ratio(sum(row[field] for row in rows), len(rows))

    recommend_spans = [
        index
        for index, span in enumerate(spans)
        if span[OP] >= 0 and span[NAME] == "CourseRankService.recommend"
    ]
    memo_hits = sum(
        1 for index in recommend_spans if index not in has_facade_child
    )
    statements = sum(statements_by_kind.values())
    searches = fields.get("SearchEngine.search", [])
    scatter_gathers = by_name_calls.get("CorpusStats.merged", 0)
    iterations = fields.get("ranker.power_iteration", [])
    power_calls = by_name_calls.get("ranker.power_iteration", 0)
    traced_sum = sum(traced_ns)

    metrics = {
        f"{layer}.self_ms_per_op": self_ns[layer] / 1e6 / ops
        for layer in LAYERS
    }
    for layer in ("courserank", "search", "clouds"):
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    for label in set(KIND_LABEL.values()):
        millis = [
            value / 1e6
            for value, kind in zip(best_ns, kinds)
            if KIND_LABEL[kind] == label
        ]
        metrics[f"service.{label}_p50_ms"] = (
            percentile(millis, 0.50) if millis else 0.0
        )
    metrics.update(
        {
            "service.build_s": build_s,
            "service.response_cache_hit_pct": _hit_pct(counters, "response"),
            "service.recommend_memo_hit_pct": 100.0
            * _ratio(memo_hits, len(recommend_spans)),
            "search.candidates_per_query": _ratio(
                sum(row["candidates"] for row in searches), scatter_gathers
            ),
            "search.scored_per_query": _ratio(
                sum(row["scored"] for row in searches), scatter_gathers
            ),
            "search.result_cache_hit_pct": _hit_pct(counters, "search"),
            "search.refresh_ms_per_write": _ratio(
                by_name_ns.get("SearchEngine.refresh_document", 0) / 1e6,
                count("comment"),
            ),
            "clouds.terms_per_cloud": mean_field(
                "CloudBuilder.build_from_stats", "terms"
            ),
            "clouds.narrowed_share_pct": 100.0
            * _ratio(
                by_name_calls.get("TermSource.gather_narrowed", 0),
                by_name_calls.get("TermSource.partial_gather", 0),
            ),
            "core.compile_ms_per_recommend": _ratio(
                by_name_ns.get("compiler.compile_workflow", 0) / 1e6,
                count("recommend"),
            ),
            "core.compile_calls_per_recommend": _ratio(
                by_name_calls.get("compiler.compile_workflow", 0),
                count("recommend"),
            ),
            "minidb.statements_per_op": statements / ops,
            "minidb.statements_per_page": _ratio(
                statements_by_kind.get("page", 0), count("page")
            ),
            "minidb.statements_per_recommend": _ratio(
                statements_by_kind.get("recommend", 0), count("recommend")
            ),
            "minidb.plan_cache_hit_pct": _hit_pct(counters, "plan"),
            "graphrank.refresh_ms": refresh_setup_ns / 1e6,
            "graphrank.power_iteration_ms_per_call": _ratio(
                by_name_ns.get("ranker.power_iteration", 0) / 1e6, power_calls
            ),
            "graphrank.power_iterations_per_op": power_calls / ops,
            "graphrank.iterations_per_rank": mean_field(
                "ranker.power_iteration", "iterations"
            ),
            "graphrank.converged_pct": 100.0
            * _ratio(
                sum(1 for row in iterations if row["converged"]),
                len(iterations),
            ),
            "graphrank.rank_memo_hit_pct": _hit_pct(counters, "rank"),
            "graphrank.nodes": float(counters["graph.nodes"]),
            "graphrank.edges": float(counters["graph.edges"]),
            "datagen.generate_s": datagen_s,
            "trace.overhead_pct": 100.0
            * (_ratio(traced_sum, statistics.median(untraced_sums_ns)) - 1.0),
            "trace.attributed_pct": 100.0
            * _ratio(traced_sum - self_ns["service"], traced_sum),
        }
    )
    return metrics


def unattributed_pct(
    spans: Sequence[Sequence[Any]], traced_ns: Sequence[int]
) -> float:
    """How far the layers' self times fall short of the traced op time."""
    inside = sum(
        self_time
        for span, self_time in zip(spans, self_times(spans))
        if span[OP] >= 0
    )
    return 100.0 * (1.0 - _ratio(inside, sum(traced_ns)))
