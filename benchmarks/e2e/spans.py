"""Layer spans installed from outside the program.

``tracing()`` replaces a fixed list of public callables — the boundaries
between the service, facade, search, cloud, FlexRecs, SQL and graph
layers — with timing wrappers, and puts the originals back on exit.
Nothing in ``src/`` knows it is being traced.  One span is
``{name, layer, op_id, parent, start_ns, end_ns}`` plus a few result
fields the program already exposes (``SearchResult.candidate_count``,
``RankResult.iterations`` ...); spans live in memory until the pass ends.

A layer's *self time* is its spans' duration minus the part their direct
children cover, so the layers' self times add up to the time inside the
outermost (service) spans.  Nothing per-row or per-cache-probe is
wrapped: cache counts come from the program's public ``*_info()`` calls.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LAYERS = (
    "service", "courserank", "search", "clouds", "core", "minidb", "graphrank",
)

#: op_id of spans recorded while a pass builds and warms its service
SETUP_OP = -1


def _search_fields(result: Any) -> Dict[str, Any]:
    return {
        "candidates": result.candidate_count,
        "scored": result.scored_count,
        "cache_hit": result.cache_hit,
    }


def _rank_fields(result: Any) -> Dict[str, Any]:
    return {"iterations": result.iterations, "converged": result.converged}


def _cloud_fields(cloud: Any) -> Dict[str, Any]:
    return {"terms": len(cloud.terms)}


#: (layer, module, class or None for a module-level function, attributes)
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("service", "repro.service.frontend", "CourseRankService",
     ("search", "session", "recommend", "course_page", "comment_on_course",
      "cube")),
    ("service", "repro.service.frontend", "ServiceSession", ("refine",)),
    # Cube navigation happens on the object service.cube() returns; without
    # these a cube walk's time would belong to no span at all.
    ("service", "repro.service.cube", "ServiceCube",
     ("cell", "dimension_values", "slice", "roll_up")),
    ("courserank", "repro.courserank.app", "CourseRank",
     ("course_page", "comment_on_course")),
    ("courserank", "repro.courserank.recommendations",
     "RecommendationService", ("run", "build")),
    ("search", "repro.search.engine", "SearchEngine",
     ("search", "parse_query", "refresh_document")),
    ("search", "repro.search.stats", "CorpusStats", ("local", "merged")),
    ("clouds", "repro.clouds.scoring", "TermSource",
     ("partial_gather", "gather_narrowed", "corpus_document_frequencies")),
    ("clouds", "repro.clouds.cloud", "CloudBuilder", ("build_from_stats",)),
    ("core", "repro.core.workflow", "Workflow",
     ("run_sql", "compiled_for", "validate")),
    ("core", "repro.core.compiler", None, ("compile_workflow",)),
    ("minidb", "repro.minidb.catalog", "Database",
     ("query", "execute", "prepare")),
    ("minidb", "repro.minidb.plancache", "PreparedStatement", ("execute",)),
    ("graphrank", "repro.graphrank.engine", "GraphRankEngine",
     ("refresh", "baseline", "rank", "rank_courses")),
    # The service's engine overrides refresh() to merge shard adjacencies.
    ("graphrank", "repro.service.graph", "ShardedGraphRank", ("refresh",)),
    ("graphrank", "repro.graphrank.ranker", None, ("power_iteration",)),
)

#: result fields copied onto the span, by span name
CAPTURES: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "SearchEngine.search": _search_fields,
    "ranker.power_iteration": _rank_fields,
    "CloudBuilder.build_from_stats": _cloud_fields,
}

# Span record layout (a list, appended to on the hot path).
NAME, LAYER, OP, PARENT, START, END, FIELDS = range(7)


class Tracer:
    """Collects spans; ``op_id`` is set by the harness before each op."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.op_id = SETUP_OP
        self._stack: List[int] = []

    def wrap(self, name: str, layer: str, function: Callable) -> Callable:
        spans, stack, capture = self.spans, self._stack, CAPTURES.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [
                name, layer, self.op_id, stack[-1] if stack else -1, 0, 0, None,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if capture is not None:
                record[FIELDS] = capture(result)
            return result

        return traced


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the span wrappers; restore every original on exit."""
    tracer = Tracer()
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, module_name, class_name, attributes in TARGETS:
            module = importlib.import_module(module_name)
            for attribute in attributes:
                if class_name is None:
                    _patch_function(tracer, undo, layer, module, attribute)
                else:
                    owner = getattr(module, class_name)
                    _patch_method(tracer, undo, layer, owner, attribute)
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def _patch_method(
    tracer: Tracer, undo: List, layer: str, owner: type, attribute: str
) -> None:
    raw = owner.__dict__[attribute]
    name = f"{owner.__name__}.{attribute}"
    if isinstance(raw, staticmethod):
        patched: Any = staticmethod(tracer.wrap(name, layer, raw.__func__))
    else:
        patched = tracer.wrap(name, layer, raw)
    undo.append((owner, attribute, raw))
    setattr(owner, attribute, patched)


def _patch_function(
    tracer: Tracer, undo: List, layer: str, module: Any, attribute: str
) -> None:
    """Patch a module-level function wherever ``repro`` has bound it.

    ``from x import f`` copies the binding, so the defining module alone
    is not enough: every loaded repro module holding the same function
    object gets the wrapper (and gets the original back afterwards).
    """
    original = getattr(module, attribute)
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attribute}"
    patched = tracer.wrap(name, layer, original)
    for holder_name, holder in list(sys.modules.items()):
        if holder is None or not holder_name.startswith("repro"):
            continue
        if holder.__dict__.get(attribute) is original:
            undo.append((holder, attribute, original))
            setattr(holder, attribute, patched)


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Per-span self time: duration minus the direct children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def write_chrome_trace(spans: Sequence[Sequence[Any]], path: Any) -> None:
    """Write the spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    origin = spans[0][START] if spans else 0
    events = []
    for index, span in enumerate(spans):
        arguments = {"op_id": span[OP], "span": index, "parent": span[PARENT]}
        if span[FIELDS]:
            arguments.update(span[FIELDS])
        events.append(
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "ts": (span[START] - origin) / 1000.0,
                "dur": (span[END] - span[START]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": arguments,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
