"""Unit tests for the obs components and the report pipeline.

Also pins the "single source of truth" contract: the metrics/spans the
instrumented layers emit are views over the numbers the public result
objects (``SearchResult``, ``RecommendStats``) already carry — both
surfaces must agree exactly.
"""

import json

import pytest

from repro.obs import (
    COUNT_EDGES,
    NOOP_SPAN,
    OBS,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
)
from repro.obs.report import (
    merge_snapshots,
    registry_from_snapshot,
    render_report,
)


# -- tracer -----------------------------------------------------------------


def test_ring_buffer_ages_out_oldest():
    tracer = Tracer(ring_size=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    names = [record.name for record in tracer.records()]
    assert names == ["s6", "s7", "s8", "s9"]
    assert len(tracer) == 4


def test_span_attrs_and_exception_marking():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom", {"k": 1}) as span:
            span.set(extra=2)
            raise ValueError("no")
    record = tracer.records()[-1]
    assert record.name == "boom"
    assert record.attrs["k"] == 1
    assert record.attrs["extra"] == 2
    assert record.attrs["error"] == "ValueError"
    assert record.duration_ms >= 0.0


def test_record_attaches_to_open_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.record("measured", 12.5, {"n": 3})
    records = {record.name: record for record in tracer.records()}
    assert records["measured"].parent == "outer"
    assert records["measured"].depth == 1
    assert records["measured"].duration_ms == 12.5


def test_export_round_trips_through_json():
    tracer = Tracer()
    with tracer.span("a", {"x": 1}):
        pass
    parsed = json.loads(tracer.to_json())
    assert parsed[0]["name"] == "a"
    assert parsed[0]["attrs"] == {"x": 1}


def test_obs_span_is_shared_noop_when_disabled():
    assert OBS.span("anything") is NOOP_SPAN
    with OBS.span("anything") as span:
        span.set(ignored=True)
    assert len(OBS.tracer) == 0
    OBS.enable()
    try:
        assert OBS.span("real") is not NOOP_SPAN
    finally:
        OBS.disable()


# -- slow log ---------------------------------------------------------------


def test_slow_log_threshold_and_eviction():
    log = SlowQueryLog(threshold_ms=5.0, top_k=3)
    assert not log.offer("fast", 1.0)
    for duration in (6.0, 7.0, 8.0, 9.0):
        assert log.offer(f"q{duration}", duration, plan="Plan")
    assert not log.offer("not slow enough now", 5.5)
    entries = log.entries()
    assert [entry.duration_ms for entry in entries] == [9.0, 8.0, 7.0]
    assert entries[0].plan == "Plan"
    stats = log.stats()
    assert stats["offered"] == 6
    assert stats["retained_now"] == 3


def test_slow_log_export_is_json_ready():
    log = SlowQueryLog(threshold_ms=0.0, top_k=2)
    log.offer("SELECT 1", 3.0, attrs={"rows": 1})
    json.dumps(log.export())


# -- snapshot / report ------------------------------------------------------


def _populated_registry():
    registry = MetricsRegistry()
    registry.inc("queries", 7)
    registry.set_gauge("tables", 4.0)
    registry.observe("ms", 0.75)
    registry.observe("ms", 12.0)
    registry.observe("candidates", 30.0, edges=COUNT_EDGES)
    return registry


def test_registry_snapshot_round_trip():
    registry = _populated_registry()
    rebuilt = registry_from_snapshot(registry.snapshot())
    assert rebuilt.snapshot() == registry.snapshot()


def test_merge_snapshots_adds_up():
    a, b = _populated_registry(), _populated_registry()
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged.counter("queries") == 14
    assert merged.gauge("tables") == 8.0
    assert merged.histogram("ms").count == 4


def test_render_report_mentions_everything():
    text = render_report(
        _populated_registry(),
        slow_queries=[
            {"sql": "SELECT slow", "duration_ms": 42.0, "plan": "SeqScan"}
        ],
    )
    assert "queries" in text
    assert "tables" in text
    assert "ms" in text and "p95=" in text
    assert "SELECT slow" in text
    assert "| SeqScan" in text


def test_obs_state_snapshot_is_json_serializable():
    OBS.enable()
    try:
        OBS.metrics.inc("x")
        OBS.slow_log.offer("SELECT 1", 999.0)
        with OBS.tracer.span("s"):
            pass
    finally:
        OBS.disable()
    json.dumps(OBS.snapshot())
    OBS.reset()
    empty = OBS.snapshot()
    assert empty["metrics"]["counters"] == {}
    assert empty["span_count"] == 0


def test_report_cli_merges_and_renders(tmp_path, capsys):
    from repro.obs.__main__ import main

    snapshot = {
        "metrics": _populated_registry().snapshot(),
        "slow_queries": [{"sql": "SELECT slow", "duration_ms": 42.0}],
    }
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    first.write_text(json.dumps(snapshot))
    second.write_text(json.dumps(snapshot))
    assert main(["report", str(first), str(second)]) == 0
    text = capsys.readouterr().out
    assert "queries" in text and "14" in text
    assert "SELECT slow" in text
    assert main(["report", "--json", str(first)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["counters"]["queries"] == 7


# -- single source of truth -------------------------------------------------


def _small_app():
    from repro.courserank import CourseRank
    from repro.datagen import generate_university

    return CourseRank(generate_university(scale="tiny", seed=11))


def test_search_metrics_mirror_result_fields():
    app = _small_app()
    app.cloudsearch.ensure_built()
    OBS.enable()
    try:
        result, _cloud = app.search_courses("introduction")
    finally:
        OBS.disable()
    stats = app.cloudsearch.query_stats(result)
    # query_stats is the result-object view; the metrics/spans must carry
    # the very same numbers (one measurement site, two surfaces).
    assert stats["candidate_count"] == result.candidate_count
    span = next(
        record
        for record in OBS.tracer.records()
        if record.name == "search.query"
    )
    assert span.attrs["candidates"] == result.candidate_count
    assert span.attrs["hits"] == len(result.hits)
    assert span.attrs["cache_hit"] == result.cache_hit
    assert OBS.metrics.counter("search.query.count") == 1
    histogram = OBS.metrics.histogram("search.query.candidates")
    assert histogram.count == 1
    assert histogram.total == float(result.candidate_count)


def test_recommend_metrics_mirror_recommend_stats():
    app = _small_app()
    OBS.enable()
    try:
        recommendation = app.recommendations.run(
            "related_courses", course_id=1, path="direct"
        )
    finally:
        OBS.disable()
    stats = recommendation.stats[-1]
    assert OBS.metrics.counter("flexrecs.recommend.count") == len(
        recommendation.stats
    )
    assert (
        OBS.metrics.counter("flexrecs.recommend.cache_hits")
        == sum(s.cache_hits for s in recommendation.stats)
    )
    span = next(
        record
        for record in OBS.tracer.records()
        if record.name == "flexrecs.recommend"
    )
    assert span.attrs["comparator"] == stats.comparator
    assert span.attrs["relation_hits"] == stats.relation_hits
    assert span.attrs["keyed_select"] == stats.keyed_selects == 1
    assert span.duration_ms == stats.elapsed_ms
    outer = next(
        record
        for record in OBS.tracer.records()
        if record.name == "recommend.run"
    )
    assert outer.attrs["path"] == "direct"


def test_slow_query_log_captures_plan_for_slow_select():
    from repro.minidb import Database

    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(10):
        db.execute("INSERT INTO t VALUES (?, ?)", [i, i])
    OBS.enable()
    OBS.slow_log.threshold_ms = 0.0  # everything is "slow"
    try:
        db.query("SELECT v FROM t WHERE id > 3 ORDER BY v")
    finally:
        OBS.disable()
        OBS.slow_log.threshold_ms = 10.0
    entries = OBS.slow_log.entries()
    assert entries
    assert "SELECT" in entries[0].sql
    assert "SeqScan" in (entries[0].plan or "")
    assert entries[0].attrs["rows"] == 6


def test_slow_log_and_span_say_which_binding_was_slow():
    """One SQL text per statement shape: without the bound values a slow
    ``… WHERE CourseID = ?`` could be any page."""
    import datetime

    from repro.minidb import Database

    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, day DATE)")
    db.execute(
        "INSERT INTO t VALUES (?, ?, ?)", [7, "it's", datetime.date(2008, 1, 5)]
    )
    sql = "SELECT id FROM t WHERE id = ? AND name = ? AND day = ?"
    params = [7, "it's", datetime.date(2008, 1, 5)]
    OBS.enable()
    OBS.slow_log.threshold_ms = 0.0
    try:
        assert db.query(sql, params).rows == [(7,)]
        db.query("SELECT id FROM t")
    finally:
        OBS.disable()
        OBS.slow_log.threshold_ms = 10.0
    by_sql = {entry.sql: entry for entry in OBS.slow_log.entries()}
    bound = next(entry for text, entry in by_sql.items() if "?" in text)
    # SQL literals, so the entry can be replayed; JSON-ready as they are.
    assert bound.attrs["params"] == ["7", "'it''s'", "DATE '2008-01-05'"]
    assert "using primary key = (?1)" in bound.plan
    assert by_sql["SELECT id FROM t"].attrs["params"] == []
    json.dumps(OBS.slow_log.export())
    spans = [
        record for record in OBS.tracer.records()
        if record.name == "minidb.select"
    ]
    assert [span.attrs["params"] for span in spans] == [
        ["7", "'it''s'", "DATE '2008-01-05'"], [],
    ]


def test_app_observability_keeps_the_plan_cache_keys():
    """``benchmarks/e2e/harness.py`` reads ``hits`` and ``misses``."""
    from repro.courserank import CourseRank
    from repro.datagen import generate_university

    app = CourseRank(generate_university(scale="tiny", seed=5))
    course_ids = app.db.query(
        "SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 6"
    ).column("CourseID")
    app.course_page(course_ids[0])
    before = app.observability()["caches"]["plan_cache"]
    assert set(before) == {"hits", "misses", "size"}
    for course_id in course_ids[1:]:
        app.course_page(course_id)
    after = app.observability()["caches"]["plan_cache"]
    # Five more pages, distinct courses: every statement is a shape the
    # first page already planned (bar the other grade-distribution source,
    # which a page reads only when its department differs in policy).
    assert after["misses"] <= before["misses"] + 1
    assert after["size"] <= before["size"] + 1
    assert after["hits"] >= before["hits"] + 5 * 9
