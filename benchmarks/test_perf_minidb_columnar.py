"""Experiment P4 — columnar batch-vectorized executor vs the row pipeline.

The CourseRank workloads the paper describes (grade distributions,
enrollment statistics, cloud term aggregation) are scan-heavy aggregate
queries.  This experiment measures the three canonical shapes —
scan-filter, group-aggregate, and join-aggregate — on a synthetic fact
table at three scales, under:

* ``row-cold`` / ``row-warm`` — the reference row path
  (``planner.VECTORIZE`` off: the row tree evaluated by
  ``Expression.evaluate``), fresh plan vs plan-cache hit;
* ``vec-cold`` / ``vec-warm``  — batch-vectorized executor
  (``planner.VECTORIZE`` on), fresh plan vs plan-cache hit.

All configs must return identical rows (asserted per cell).  The
acceptance bar: vectorized beats the row path by >= 2.5x on the medium
group-aggregate scan (3.1x-3.7x measured).  (The ROADMAP's original 5x
was measured against an interpreted pipeline that emitted every column
of every row; the row path now always prunes scans to the referenced
columns, which alone took it from ~142 ms to ~86 ms on that query.)
"""

import time

import pytest
from conftest import write_bench_json, write_report

from repro.minidb import Database
from repro.minidb.planner import flag_overrides

SCALES = [("tiny", 1_000), ("small", 10_000), ("medium", 50_000)]

WORKLOADS = [
    (
        "scan-filter",
        "SELECT id, g FROM f WHERE units >= 3 AND x1 <> 2",
    ),
    (
        "group-agg",
        "SELECT dep, COUNT(*) AS n, SUM(g) AS s, AVG(units) AS a "
        "FROM f GROUP BY dep",
    ),
    (
        "join-agg",
        "SELECT f.dep, COUNT(*) AS n, AVG(d.w) AS w FROM f "
        "JOIN d ON f.dep = d.dep GROUP BY f.dep",
    ),
]

CONFIGS = [
    # (label, vectorize, warm)
    ("row-cold", False, False),
    ("row-warm", False, True),
    ("vec-cold", True, False),
    ("vec-warm", True, True),
]


def build_database(rows: int) -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE f (id INT PRIMARY KEY, dep INT, units INT, "
        "term INT, g FLOAT, x1 INT, x2 INT, note TEXT)"
    )
    for i in range(rows):
        database.execute(
            "INSERT INTO f VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                i, i % 40, 1 + i % 5, i % 12, float(i % 9) / 2.0,
                i % 7, i % 11, f"n{i % 100}",
            ],
        )
    database.execute("CREATE TABLE d (dep INT, w FLOAT)")
    for dep in range(40):
        database.execute(
            "INSERT INTO d VALUES (?, ?)", [dep, float(dep % 4) + 0.5]
        )
    return database


def best_of(database: Database, sql: str, warm: bool, runs: int = 3) -> float:
    """Best wall time in ms; cold configs re-plan on every run."""
    best = float("inf")
    if warm:
        database.query(sql)  # populate the plan cache
    for _ in range(runs):
        if not warm:
            database.clear_plan_cache()
        started = time.perf_counter()
        database.query(sql)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


@pytest.fixture(scope="module")
def measurements():
    results = {}
    for scale, rows in SCALES:
        # One database per config keeps plan caches honest.
        for label, vectorize, warm in CONFIGS:
            with flag_overrides(vectorize=vectorize):
                database = build_database(rows)
                for workload, sql in WORKLOADS:
                    results[(scale, workload, label)] = (
                        best_of(database, sql, warm),
                        database.query(sql).rows,
                    )
    return results


def test_all_configs_agree(measurements):
    for scale, _rows in SCALES:
        for workload, _sql in WORKLOADS:
            reference = measurements[(scale, workload, "row-warm")][1]
            for label, *_ in CONFIGS:
                assert measurements[(scale, workload, label)][1] == reference, (
                    f"{label} diverges on {workload}@{scale}"
                )


def test_medium_group_aggregate_speedup(measurements):
    row_path = measurements[("medium", "group-agg", "row-warm")][0]
    vectorized = measurements[("medium", "group-agg", "vec-warm")][0]
    assert row_path / vectorized >= 2.5, (
        f"vectorized group-agg speedup {row_path / vectorized:.1f}x < 2.5x"
    )


def test_report(measurements):
    lines = [
        "Columnar batch-vectorized executor vs row pipeline "
        "(best-of-3 ms per query)",
        "",
        f"{'scale':8} {'workload':12} "
        + " ".join(f"{label:>12}" for label, *_ in CONFIGS)
        + f" {'vec/row':>10}",
    ]
    for scale, rows in SCALES:
        for workload, _sql in WORKLOADS:
            times = {
                label: measurements[(scale, workload, label)][0]
                for label, *_ in CONFIGS
            }
            speedup = times["row-warm"] / times["vec-warm"]
            lines.append(
                f"{scale:8} {workload:12} "
                + " ".join(f"{times[label]:12.3f}" for label, *_ in CONFIGS)
                + f" {speedup:9.1f}x"
            )
        lines.append("")
    lines.append(
        "rows: tiny=1k small=10k medium=50k; fact table 8 columns, "
        "40 groups; dims table 40 rows"
    )
    write_report("perf_minidb_columnar", lines)
    timings_ms = {
        f"{scale}/{workload}/{label}": measurements[(scale, workload, label)][0]
        for scale, _rows in SCALES
        for workload, _sql in WORKLOADS
        for label, *_ in CONFIGS
    }
    medium_row = measurements[("medium", "group-agg", "row-warm")][0]
    medium_vec = measurements[("medium", "group-agg", "vec-warm")][0]
    write_bench_json(
        "minidb_columnar",
        {
            "timings_ms": timings_ms,
            "ops_per_sec": {
                key: (1000.0 / ms if ms else None)
                for key, ms in timings_ms.items()
            },
            "speedup": {
                "medium_group_agg_vec_warm_vs_row_warm": (
                    medium_row / medium_vec
                )
            },
        },
    )
