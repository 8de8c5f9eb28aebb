"""Experiment P3 — search latency vs catalog size; index vs scan.

Section 3 motivates "more powerful search and discovery mechanisms" over
18,605 courses.  We sweep catalog sizes and compare the inverted-index
engine against the SQL LIKE-scan a naive implementation would use
(scanning titles, descriptions, and comments).

Three engine rows per scale since the hot-path overhaul:

* ``cold``   — token/stem memos and norm tables emptied; the first query
  pays the full analysis + scoring pipeline;
* ``warm``   — steady-state ``SearchEngine.search``, which caches no
  answers (measures term-at-a-time scoring + O(1) statistics);
* ``cached`` — repeat ``CourseCloudSearch.search`` calls (hits and
  cloud) served from the facade navigator's epoch-keyed answer cache.

Shape targets: the index answers in roughly constant time per matched
document while the LIKE scan grows with corpus size; warm indexed search
beats the scan by ≥ 10x at the ``medium`` (~2,400-course) scale; the two
agree on the match set for title/description-only corpora.
"""

import time

import pytest
from conftest import write_bench_json, write_report

from repro.clouds import CloudNavigator
from repro.courserank.app import CourseRank
from repro.datagen import generate_university
from repro.search import tokenizer

SWEEP_SCALES = ("tiny", "small", "medium")
QUERY = "american"
WARM_SPEEDUP_FLOOR = 10.0  # acceptance: warm index ≥ 10x LIKE at medium


@pytest.fixture(scope="module")
def sweep_apps():
    apps = {}
    for scale in SWEEP_SCALES:
        app = CourseRank(generate_university(scale=scale, seed=2008))
        app.cloudsearch.build()
        apps[scale] = app
    return apps


def like_scan_count(db, word: str) -> int:
    return db.query(
        "SELECT COUNT(DISTINCT c.CourseID) FROM Courses c "
        "LEFT JOIN Comments cm ON cm.CourseID = c.CourseID "
        f"WHERE c.Title ILIKE '%{word}%' "
        f"OR c.Description ILIKE '%{word}%' "
        f"OR cm.Text ILIKE '%{word}%'"
    ).scalar()


def clear_engine_caches(engine) -> None:
    """Cold path: empty every memo the query pipeline can hit."""
    tokenizer._TOKEN_STREAMS.clear()
    tokenizer.stem.cache_clear()
    engine.index._norm_tables.clear()


def test_engine_search_latency(benchmark, bench_app):
    result = benchmark(bench_app.cloudsearch.engine.search, QUERY)
    assert len(result) > 0


def test_like_scan_latency(benchmark, bench_db):
    count = benchmark(like_scan_count, bench_db, QUERY)
    assert count > 0


def test_cached_equals_uncached_results(bench_app, benchmark):
    """The answer cache must be invisible: identical hits and clouds."""
    cloudsearch = bench_app.cloudsearch

    def compare():
        cloudsearch.search(QUERY)
        cached = cloudsearch.search(QUERY)
        uncached = CloudNavigator(cloudsearch.navigator.shards).answer(QUERY)
        return cached, uncached

    (cached, cached_cloud), uncached = benchmark(compare)
    assert cached.cache_hit and not uncached.result.cache_hit
    assert cached.hits == uncached.result.hits
    assert cached.hits == cloudsearch.engine.search(QUERY).hits
    assert cached_cloud.terms == uncached.cloud.terms


def test_index_vs_scan_agree_on_superset(bench_app, bench_db, benchmark):
    """Every LIKE-scan hit is found by the engine too.

    (The engine finds *more*: stemming bridges word forms, and instructor
    and department names are folded into the entity.)
    """

    def compare():
        engine_hits = bench_app.cloudsearch.engine.search(QUERY).doc_id_set()
        like_hits = set(
            bench_db.query(
                "SELECT DISTINCT c.CourseID FROM Courses c "
                "LEFT JOIN Comments cm ON cm.CourseID = c.CourseID "
                f"WHERE c.Title ILIKE '%{QUERY}%' "
                f"OR c.Description ILIKE '%{QUERY}%' "
                f"OR cm.Text ILIKE '%{QUERY}%'"
            ).column("CourseID")
        )
        return engine_hits, like_hits

    engine_hits, like_hits = benchmark(compare)
    assert like_hits <= engine_hits


def test_report_scaling_series(
    sweep_apps, bench_app, bench_db, scale_name, benchmark
):
    apps = dict(sweep_apps)
    apps[scale_name] = bench_app

    def measure():
        series = []
        for scale, app in apps.items():
            courses = app.db.query("SELECT COUNT(*) FROM Courses").scalar()
            engine = app.cloudsearch.engine

            # Cold: every memo emptied, first query pays the full
            # analysis pipeline plus norm-table builds.
            clear_engine_caches(engine)
            start = time.perf_counter()
            engine.search(QUERY)
            cold_ms = (time.perf_counter() - start) * 1000

            # Warm: steady-state scoring (the engine caches no answers).
            start = time.perf_counter()
            for _ in range(5):
                engine.search(QUERY)
            warm_ms = (time.perf_counter() - start) / 5 * 1000

            # Cached: repeat searches (hits and cloud) served from the
            # facade navigator's epoch-keyed answer cache.
            app.cloudsearch.search(QUERY)
            start = time.perf_counter()
            for _ in range(5):
                app.cloudsearch.search(QUERY)
            cached_ms = (time.perf_counter() - start) / 5 * 1000

            start = time.perf_counter()
            for _ in range(5):
                like_scan_count(app.db, QUERY)
            scan_ms = (time.perf_counter() - start) / 5 * 1000
            series.append(
                (scale, courses, cold_ms, warm_ms, cached_ms, scan_ms)
            )
        return series

    series = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"query={QUERY!r}; per-query latency (ms); cold = all memos empty, "
        "warm = 5-run avg of SearchEngine.search (uncached), "
        "cached = CourseCloudSearch.search answer-cache hits:",
        f"{'scale':>8} | {'courses':>8} | {'cold idx':>9} | {'warm idx':>9} "
        f"| {'cached':>9} | {'LIKE scan':>9} | {'warm x':>7} | {'cached x':>8}",
    ]
    speedups = {}
    for scale, courses, cold_ms, warm_ms, cached_ms, scan_ms in series:
        warm_x = scan_ms / warm_ms if warm_ms else float("inf")
        cached_x = scan_ms / cached_ms if cached_ms else float("inf")
        speedups[scale] = warm_x
        lines.append(
            f"{scale:>8} | {courses:>8} | {cold_ms:>9.2f} | {warm_ms:>9.2f} | "
            f"{cached_ms:>9.2f} | {scan_ms:>9.2f} | {warm_x:>6.1f}x | "
            f"{cached_x:>7.1f}x"
        )
    write_report("perf_search_scaling", lines)
    write_bench_json(
        "search_scaling",
        {
            "query": QUERY,
            "series": [
                {
                    "scale": scale,
                    "courses": courses,
                    "cold_ms": cold_ms,
                    "warm_ms": warm_ms,
                    "cached_ms": cached_ms,
                    "like_scan_ms": scan_ms,
                    "warm_qps": (1000.0 / warm_ms if warm_ms else None),
                    "cached_qps": (1000.0 / cached_ms if cached_ms else None),
                }
                for scale, courses, cold_ms, warm_ms, cached_ms, scan_ms
                in series
            ],
            "speedup": {
                f"{scale}_warm_vs_like_scan": value
                for scale, value in speedups.items()
            },
        },
    )
    # Shape: at the medium scale the warm index must dominate the scan.
    assert speedups["medium"] >= WARM_SPEEDUP_FLOOR


def test_index_build_cost(benchmark, bench_db):
    """One-time indexing cost (amortized over all queries)."""
    app = CourseRank(bench_db)
    indexed = benchmark(app.cloudsearch.build)
    assert indexed == bench_db.query("SELECT COUNT(*) FROM Courses").scalar()
