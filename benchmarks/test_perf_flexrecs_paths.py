"""Experiment P2 — FlexRecs execution paths (ablation).

Section 3.2 asks "how can we optimize the execution of workflows?".  We
compare three ways to run the Figure 5(b) CF strategy:

* **direct**   — the in-memory operator evaluator;
* **compiled** — FlexRecs' compile-to-SQL path (the paper's deployment);
* **hand SQL** — the query a developer would hand-write for the same
  semantics (the "recommendation logic embedded in application code"
  baseline the paper argues against).

All three must agree on the ranking; the interesting output is the cost
of declarativeness (compiled vs hand) and of the SQL detour (direct vs
compiled).
"""

import itertools
import time
from dataclasses import replace

import pytest
from conftest import write_bench_json, write_report

from repro.core import strategies
from repro.core.extendcache import clear_extend_cache
from repro.datagen import generate_university
from repro.minidb.plancache import clear_statement_cache
from repro.testkit import reference_recommend

NEIGHBOURS = 10
TOP_K = 10

#: distinct workflow names for the cold samples, across repeated runs
cold_names = itertools.count()


def hand_written_cf_sql(suid: int, neighbours: int, top_k: int) -> str:
    """The CF query a developer would write directly against the schema."""
    return f"""
    SELECT c.CourseID, c.DepID, c.Title, c.Description, c.Units, c.Url,
           AVG(CAST_FLOAT(cm.Rating)) AS score
    FROM Courses c
    JOIN Comments cm ON cm.CourseID = c.CourseID
      AND cm.Rating IS NOT NULL
    JOIN (
      SELECT o.SuID AS nid,
             1.0 / (1.0 + SQRT(SUM((o.Rating - m.Rating) * (o.Rating - m.Rating)))) AS sim
      FROM Comments o
      JOIN Comments m ON o.CourseID = m.CourseID
        AND m.SuID = {suid} AND m.Rating IS NOT NULL
      WHERE o.SuID <> {suid} AND o.Rating IS NOT NULL
      GROUP BY o.SuID
      ORDER BY sim DESC, o.SuID ASC
      LIMIT {neighbours}
    ) nb ON cm.SuID = nb.nid
    GROUP BY c.CourseID
    ORDER BY score DESC, c.CourseID ASC
    LIMIT {top_k}
    """


@pytest.fixture(scope="module")
def workflow(active_student):
    return strategies.collaborative_filtering(
        active_student, similar_students=NEIGHBOURS, top_k=TOP_K
    )


def test_direct_path(benchmark, bench_db, workflow):
    result = benchmark(workflow.run, bench_db)
    assert len(result) > 0


def test_compiled_path(benchmark, bench_db, workflow):
    result = benchmark(workflow.run_sql, bench_db)
    assert len(result) > 0


def test_hand_written_path(benchmark, bench_db, active_student):
    sql = hand_written_cf_sql(active_student, NEIGHBOURS, TOP_K)
    result = benchmark(bench_db.query, sql)
    assert len(result) > 0


def test_all_three_paths_agree(benchmark, bench_db, workflow, active_student):
    def run_all(db):
        direct = workflow.run(db)
        compiled = workflow.run_sql(db)
        hand = db.query(hand_written_cf_sql(active_student, NEIGHBOURS, TOP_K))
        return direct, compiled, hand

    direct, compiled, hand = benchmark(run_all, bench_db)
    assert direct.column("CourseID") == compiled.column("CourseID")
    assert direct.column("CourseID") == hand.column("CourseID")
    hand_scores = hand.column("score")
    for row, hand_score in zip(direct.rows, hand_scores):
        assert row["score"] == pytest.approx(hand_score)


def test_report_path_timings(bench_db, active_student, benchmark):
    sql = hand_written_cf_sql(active_student, NEIGHBOURS, TOP_K)

    def cold_path():
        """No caches: every run validates and compiles the workflow,
        parses and plans its SQL, and evaluates it — the cold path the
        warm repeat is measured against.

        Equal workflows share one compilation (the database's
        ``workflow.compiled`` memo), so each sample runs a workflow under
        a name no earlier run used: its memo key is new.
        """
        try:
            samples = []
            for _ in range(3):
                fresh = replace(
                    strategies.collaborative_filtering(
                        active_student,
                        similar_students=NEIGHBOURS,
                        top_k=TOP_K,
                    ),
                    name=f"cold sample {next(cold_names)}",
                )
                bench_db.clear_plan_cache()
                clear_statement_cache()
                start = time.perf_counter()
                fresh.run_sql(bench_db)
                samples.append(time.perf_counter() - start)
            # min-of-N: the least-disturbed sample estimates true cost
            return min(samples)
        finally:
            bench_db.clear_plan_cache()
            clear_statement_cache()

    def measure():
        timings = {}
        timings["compiled SQL (cold)"] = cold_path()
        warmed = strategies.collaborative_filtering(
            active_student, similar_students=NEIGHBOURS, top_k=TOP_K
        )
        runners = {
            "direct": lambda: warmed.run(bench_db),
            "compiled SQL (warm)": lambda: warmed.run_sql(bench_db),
            "hand-written SQL": lambda: bench_db.query(sql),
        }
        for name, runner in runners.items():
            runner()  # warm (UDF registration, caches)
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                runner()
                samples.append(time.perf_counter() - start)
            timings[name] = min(samples)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"Figure 5(b) CF, {NEIGHBOURS} neighbours, top {TOP_K} "
        f"(student {active_student}):"
    ]
    for name, seconds in sorted(timings.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>19}: {seconds * 1000:8.1f} ms")
    overhead = timings["compiled SQL (warm)"] / timings["hand-written SQL"]
    warm_speedup = (
        timings["compiled SQL (cold)"] / timings["compiled SQL (warm)"]
    )
    lines.append(
        f"declarativeness overhead (compiled vs hand-written): {overhead:.2f}x"
    )
    lines.append(
        f"fast-path speedup (cold run vs warm repeat): "
        f"{warm_speedup:.1f}x"
    )
    write_report("perf_flexrecs_paths", lines)
    write_bench_json(
        "flexrecs_paths",
        {
            "neighbours": NEIGHBOURS,
            "top_k": TOP_K,
            "timings_ms": {
                name: seconds * 1000.0 for name, seconds in timings.items()
            },
            "ops_per_sec": {
                name: (1.0 / seconds if seconds else None)
                for name, seconds in timings.items()
            },
            "speedup": {
                "warm_vs_cold": warm_speedup,
                "overhead_compiled_vs_hand_sql": overhead,
            },
        },
    )
    # Shape: a warm repeat skips compile/parse/plan entirely, and the
    # generated SQL costs at most a small factor over hand SQL.
    assert warm_speedup >= 1.5
    assert overhead < 1.5


def test_report_fastpath(benchmark):
    """Experiment P2b — the direct executor against its oracle (ablation).

    Three rows per scale for the Figure 5(b) CF strategy:

    * **oracle (nested loops)** — ``repro.testkit.reference_recommend``:
      full extend scans and all-pairs comparator calls, no cache;
    * **direct, cold cache** — pruning + hoisting, but the relation and
      extend-vector cache cleared before every run (first-request cost);
    * **direct, warm cache** — steady state: cached relations with their
      stats-carrying vectors and postings, bounded-heap top-k.

    All three produce tuple-identical output (asserted here and by the
    property tests), so the timings are a pure ablation.
    """
    fastpath_neighbours = 20

    def measure():
        results = {}
        for scale in ("small", "medium"):
            db = generate_university(scale=scale, seed=2008)
            student = db.query(
                "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
                "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
            ).scalar()
            workflow = strategies.collaborative_filtering(
                student, similar_students=fastpath_neighbours, top_k=TOP_K
            )

            def sample(runner, repeats):
                # min-of-N: the least-disturbed sample estimates true cost
                samples = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    runner()
                    samples.append(time.perf_counter() - start)
                return min(samples)

            naive_result = reference_recommend(workflow, db)
            naive = sample(lambda: reference_recommend(workflow, db), 3)

            def cold_run():
                clear_extend_cache(db)
                return workflow.run(db)

            cold_result = cold_run()
            cold = sample(cold_run, 3)
            warm_result = workflow.run(db)
            warm = sample(lambda: workflow.run(db), 5)
            assert naive_result.rows == cold_result.rows == warm_result.rows
            results[scale] = {
                "naive": naive,
                "cold": cold,
                "warm": warm,
                "stats": warm_result.stats,
                "student": student,
            }
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"Direct-path CF (Figure 5(b)), {fastpath_neighbours} neighbours, "
        f"top {TOP_K}:"
    ]
    for scale, data in results.items():
        speedup = data["naive"] / data["warm"]
        pairs = sum(s.candidates + s.pruned for s in data["stats"])
        pruned = sum(s.pruned for s in data["stats"])
        hits = sum(s.cache_hits for s in data["stats"])
        lines.append(f"  scale={scale} (student {data['student']}):")
        lines.append(
            f"    oracle (nested loops):       {data['naive'] * 1000:8.1f} ms"
        )
        lines.append(
            f"    direct, cold extend cache:   {data['cold'] * 1000:8.1f} ms"
        )
        lines.append(
            f"    direct, warm extend cache:   {data['warm'] * 1000:8.1f} ms"
        )
        lines.append(
            f"    oracle-over-warm ratio: {speedup:.1f}x; pruned "
            f"{pruned}/{pairs} candidate pairs; {hits} extend-cache hits"
        )
    write_report("perf_flexrecs_fastpath", lines)
    assert results["medium"]["naive"] / results["medium"]["warm"] >= 5.0
