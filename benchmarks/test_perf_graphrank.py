"""Experiment P6 — FolkRank engine: warm adjacency vs cold rebuilds.

The graphrank engine's value proposition is incrementality: the layered
tripartite adjacency, the uniform baseline, and the per-preference
differential are all version-cached, so a persistent engine answers a
repeating preference stream (the Zipfian head every service workload
has) at memo-hit cost, while a cold system pays layer extraction +
merge + baseline iteration + biased iteration on every request.

Configurations over the same stream (each of ~8 user/course preferences
asked twice, as a Zipfian head would):

* ``cold``      — a fresh :class:`GraphRankEngine` per request.  A cold
  system's per-request cost is constant by construction (it keeps
  nothing), so the stream cost is the measured per-preference cost
  summed over the stream;
* ``warm``      — one persistent engine over the stream: first ask of a
  preference runs one biased power iteration against the cached
  adjacency + baseline, repeats are differential-memo hits;
* ``warm-iter`` — the persistent engine with the differential memo
  cleared before every request: prices the biased iteration alone.

Every configuration returns **bit-identical** rankings — the
determinism rules (integer edge weights, the CSR view's canonical column
order, ``math.fsum`` on the exact kernel) make warm vs cold a pure
performance choice on either kernel.

Acceptance (ISSUE 10): at ``REPRO_BENCH_SCALE=medium`` the warm engine
answers the stream >= 3x faster than cold rebuilds; the committed
``BENCH_graphrank.json`` records the measured ratio.
"""

import time

from conftest import BENCH_SCALE, write_bench_json, write_report

from repro.graphrank import GraphRankEngine

#: each preference is asked this many times in the stream
REPEATS = 2


def _preferences(database):
    users = [
        row[0]
        for row in database.query(
            "SELECT DISTINCT SuID FROM Enrollments ORDER BY SuID LIMIT 5"
        ).rows
    ]
    courses = [
        row[0]
        for row in database.query(
            "SELECT DISTINCT CourseID FROM Enrollments "
            "ORDER BY CourseID LIMIT 3"
        ).rows
    ]
    return [(("user", suid),) for suid in users] + [
        (("course", course_id),) for course_id in courses
    ]


def test_warm_engine_beats_cold_rebuild_on_a_repeating_stream(bench_db):
    preferences = _preferences(bench_db)
    assert len(preferences) >= 4
    stream = len(preferences) * REPEATS

    # -- cold: fresh engine (adjacency + baseline + iteration) per request.
    cold_rankings = []
    cold_unique_s = 0.0
    for preference in preferences:
        started = time.perf_counter()
        engine = GraphRankEngine(bench_db)
        cold_rankings.append(engine.rank_courses(preference, top_k=10))
        cold_unique_s += time.perf_counter() - started
    # A cold system re-pays the full cost on every repeat.
    cold_stream_s = cold_unique_s * REPEATS

    # -- warm: one persistent engine over the same stream.
    warm_engine = GraphRankEngine(bench_db)
    warm_passes = [[] for _ in range(REPEATS)]
    warm_stream_s = 0.0
    for index in range(REPEATS):
        for preference in preferences:
            started = time.perf_counter()
            ranking = warm_engine.rank_courses(preference, top_k=10)
            warm_stream_s += time.perf_counter() - started
            warm_passes[index].append(ranking)
    assert all(rankings == cold_rankings for rankings in warm_passes)
    info = warm_engine.cache_info()
    assert info["rank_hits"] >= len(preferences)  # repeats hit the memo

    # -- warm-iter: memo cleared per request; prices the iteration alone.
    iter_rankings = []
    iter_s = 0.0
    for preference in preferences:
        warm_engine.clear_rank_memo()
        started = time.perf_counter()
        iter_rankings.append(warm_engine.rank_courses(preference, top_k=10))
        iter_s += time.perf_counter() - started

    assert iter_rankings == cold_rankings  # bit-identical, per the ISSUE

    speedup = cold_stream_s / warm_stream_s if warm_stream_s else float("inf")
    iter_speedup = (
        cold_unique_s / iter_s if iter_s else float("inf")
    )
    unique = len(preferences)
    lines = [
        f"graphrank ranking cost, scale={BENCH_SCALE} "
        f"({info['nodes']} nodes, {info['edges']} edges; "
        f"{unique} preferences x{REPEATS} = {stream}-request stream)",
        f"{'config':>10} | {'stream ms':>10} | {'ms/request':>10} | "
        f"{'vs cold':>8}",
        "-" * 50,
        f"{'cold':>10} | {cold_stream_s * 1e3:>10.1f} | "
        f"{cold_stream_s / stream * 1e3:>10.2f} | {'1.00x':>8}",
        f"{'warm':>10} | {warm_stream_s * 1e3:>10.1f} | "
        f"{warm_stream_s / stream * 1e3:>10.2f} | {speedup:>7.2f}x",
        f"{'warm-iter':>10} | {iter_s * REPEATS * 1e3:>10.1f} | "
        f"{iter_s / unique * 1e3:>10.2f} | {iter_speedup:>7.2f}x",
        "",
        "warm-iter = memo cleared per request (pure biased iteration, "
        "warm adjacency + baseline)",
        "rankings bit-identical across all configurations",
    ]
    write_report("perf_graphrank", lines)
    write_bench_json(
        "graphrank",
        {
            "unique_preferences": unique,
            "stream_requests": stream,
            "nodes": info["nodes"],
            "edges": info["edges"],
            "cold_stream_ms": round(cold_stream_s * 1e3, 3),
            "warm_stream_ms": round(warm_stream_s * 1e3, 3),
            "warm_iter_ms_per_request": round(iter_s / unique * 1e3, 3),
            "speedup_warm_vs_cold": round(speedup, 2),
            "speedup_iteration_vs_cold": round(iter_speedup, 2),
            "rankings_bit_identical": True,
        },
    )
    assert speedup > 1.5
    if BENCH_SCALE == "medium":
        assert speedup >= 3.0  # the ISSUE's acceptance bar
