"""Experiment P5 — compiled SQL on minidb vs the stdlib sqlite3 mirror.

The paper deploys FlexRecs by compiling workflows to SQL "executed by a
conventional DBMS".  The sqlite3 mirror makes that literal: the same
workflow object renders per dialect and runs on minidb or on an
in-memory sqlite3 copy of its catalog.  This experiment prices the
portability on the medium CF recommend workload:

* **minidb (warm)**    — the in-process engine, memoized compilation;
* **sqlite3 (cold)**   — first call: render + full snapshot mirror +
  execute on stdlib sqlite3;
* **sqlite3 (warm)**   — steady state: version-keyed sync finds every
  table fingerprint unchanged and copies nothing;
* **sqlite3 (resync)** — one table dirtied between calls, so the sync
  recopies exactly that table.

Both engines must return the identical ranking (the cross-backend
equivalence property, asserted here on the benchmark workload too).
"""

import time

import pytest
from conftest import write_bench_json, write_report

from repro.backends import Sqlite3Backend
from repro.core import strategies

NEIGHBOURS = 10
TOP_K = 10


@pytest.fixture(scope="module")
def workflow(active_student):
    return strategies.collaborative_filtering(
        active_student, similar_students=NEIGHBOURS, top_k=TOP_K
    )


def test_backends_agree_on_bench_workload(bench_db, workflow):
    via_minidb = workflow.run_sql(bench_db)
    with Sqlite3Backend(bench_db) as mirror:
        via_sqlite = mirror.run(workflow)
    assert via_minidb.columns == via_sqlite.columns
    assert via_minidb.column("CourseID") == via_sqlite.column("CourseID")
    for left, right in zip(via_minidb.rows, via_sqlite.rows):
        assert left["score"] == pytest.approx(right["score"], rel=1e-12)


def test_report_backend_timings(bench_db, workflow, benchmark):
    def measure():
        timings = {}
        workflow.run_sql(bench_db)  # warm the minidb plan/memo caches
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            workflow.run_sql(bench_db)
            samples.append(time.perf_counter() - start)
        timings["minidb (warm)"] = min(samples)

        cold_samples = []
        for _ in range(3):
            with Sqlite3Backend(bench_db) as mirror:
                start = time.perf_counter()
                mirror.run(workflow)
                cold_samples.append(time.perf_counter() - start)
        timings["sqlite3 (cold: mirror + execute)"] = min(cold_samples)

        mirror = Sqlite3Backend(bench_db)
        try:
            mirror.run(workflow)  # mirror established
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                mirror.run(workflow)
                samples.append(time.perf_counter() - start)
            timings["sqlite3 (warm: no-op sync)"] = min(samples)

            first_suid = bench_db.query(
                "SELECT MIN(SuID) FROM Students"
            ).scalar()
            samples = []
            for _ in range(3):
                # dirty one table so the version-keyed sync recopies it
                bench_db.execute(
                    "UPDATE Students SET Class = Class "
                    f"WHERE SuID = {first_suid}"
                )
                start = time.perf_counter()
                mirror.run(workflow)
                samples.append(time.perf_counter() - start)
            timings["sqlite3 (resync one table)"] = min(samples)
        finally:
            mirror.close()
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"Figure 5(b) CF on execution backends, {NEIGHBOURS} neighbours, "
        f"top {TOP_K}:"
    ]
    for name, seconds in sorted(timings.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>33}: {seconds * 1000:8.1f} ms")
    warm_ratio = timings["sqlite3 (warm: no-op sync)"] / timings["minidb (warm)"]
    sync_amortization = (
        timings["sqlite3 (cold: mirror + execute)"]
        / timings["sqlite3 (warm: no-op sync)"]
    )
    lines.append(
        f"portability overhead (sqlite3 warm vs minidb warm): "
        f"{warm_ratio:.2f}x"
    )
    lines.append(
        f"version-keyed sync payoff (cold mirror vs warm repeat): "
        f"{sync_amortization:.1f}x"
    )
    write_report("perf_backends", lines)
    write_bench_json(
        "backends",
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
                "sqlite3_warm_vs_minidb_warm": warm_ratio,
                "sqlite3_cold_vs_warm": sync_amortization,
            },
        },
    )
    # Shape: the no-op sync must make warm sqlite3 runs cheaper than
    # re-mirroring, and a single-table resync must stay below the cold
    # full-mirror cost.
    assert sync_amortization > 1.0
    assert (
        timings["sqlite3 (resync one table)"]
        < timings["sqlite3 (cold: mirror + execute)"]
    )
