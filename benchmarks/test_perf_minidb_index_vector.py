"""Experiment P5 — index access vs the batched scan, and multi-key joins.

PR 6 vectorized the sequential scan; PR 8 taught the engine to start
from an index.  The CourseRank shapes this serves are the
low-selectivity lookups the paper's workloads are full of — "comments
for one course", "students in a GPA band" — where scanning 50k rows to
keep 500 is pure waste.  The routing rule is "whole-table scans run on
batches, index access runs on rows", so a plan that reads through an
index runs on the row tree even with ``planner.VECTORIZE`` on.  This
experiment measures:

* ``point-agg`` / ``point-residual`` — hash-index equality (1%
  selectivity) feeding an aggregate, with and without a residual
  predicate;
* ``range-agg`` — sorted-index range (2.5% selectivity) feeding an
  aggregate;
* ``float-filter`` — float comparison + arithmetic kernels on a
  whole-table scan;
* ``multikey-join`` — a composite-key hash join (``ON f.k = d.k AND
  f.t = d.t``) that fell back to the row path before PR 8.

Configs: ``row-idx`` (the reference row path — ``planner.VECTORIZE``
off, interpreted expressions — with index access), ``vec-seq``
(vectorized, *no* indexes — the batched sequential scan), and
``default-idx`` (``VECTORIZE`` on with indexes present: index access on
rows, whole-table scans on batches).  All measured warm, best-of-3.
Every config must return identical rows.

Acceptance: ``default-idx`` beats ``vec-seq`` by >= 3x on the medium
point aggregate, and the multi-key join is ``[vectorized]`` with a
measured speedup over the interpreted row path.
"""

import time

import pytest
from conftest import write_bench_json, write_report

from repro.minidb import Database
from repro.minidb.planner import flag_overrides

SCALES = [("small", 10_000), ("medium", 50_000)]

WORKLOADS = [
    (
        "point-agg",
        "SELECT COUNT(*) AS c, SUM(v) AS s, AVG(n) AS a FROM f WHERE k = 7",
    ),
    (
        "point-residual",
        "SELECT COUNT(*) AS c, SUM(v) AS s FROM f "
        "WHERE k = 7 AND v >= 1.0",
    ),
    (
        "range-agg",
        "SELECT COUNT(*) AS c, SUM(v) AS s FROM f WHERE n >= 975",
    ),
    (
        "float-filter",
        "SELECT COUNT(*) AS c, SUM(v) AS s FROM f "
        "WHERE v >= 2.0 AND v * 2.0 < 8.0",
    ),
    (
        "multikey-join",
        "SELECT f.k, COUNT(*) AS c, SUM(d.w) AS sw FROM f "
        "JOIN d ON f.k = d.k AND f.t = d.t GROUP BY f.k ORDER BY f.k",
    ),
]

CONFIGS = [
    # (label, vectorize, indexed)
    ("row-idx", False, True),
    ("vec-seq", True, False),
    ("default-idx", True, True),
]


def build_database(rows: int, indexed: bool) -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE f (id INT PRIMARY KEY, k INT, t INT, n INT, "
        "v FLOAT, note TEXT)"
    )
    if indexed:
        database.execute("CREATE INDEX idx_f_k ON f (k) USING hash")
        database.execute("CREATE INDEX idx_f_n ON f (n) USING sorted")
    for i in range(rows):
        database.execute(
            "INSERT INTO f VALUES (?, ?, ?, ?, ?, ?)",
            [i, i % 100, i % 4, i % 1000, float(i % 9) / 2.0, f"n{i % 50}"],
        )
    database.execute("CREATE TABLE d (k INT, t INT, w FLOAT)")
    for k in range(100):
        for t in range(4):
            database.execute(
                "INSERT INTO d VALUES (?, ?, ?)", [k, t, float(k % 5) + 0.5]
            )
    return database


def best_of(database: Database, sql: str, runs: int = 3) -> float:
    """Best warm wall time in ms (plan cache populated first)."""
    database.query(sql)
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        database.query(sql)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


@pytest.fixture(scope="module")
def measurements():
    results = {}
    for scale, rows in SCALES:
        for label, vectorize, indexed in CONFIGS:
            with flag_overrides(vectorize=vectorize):
                database = build_database(rows, indexed)
                for workload, sql in WORKLOADS:
                    results[(scale, workload, label)] = (
                        best_of(database, sql),
                        database.query(sql).rows,
                    )
    return results


def test_all_configs_agree(measurements):
    for scale, _rows in SCALES:
        for workload, _sql in WORKLOADS:
            reference = measurements[(scale, workload, "row-idx")][1]
            for label, *_ in CONFIGS:
                assert measurements[(scale, workload, label)][1] == reference, (
                    f"{label} diverges on {workload}@{scale}"
                )


def test_indexed_scan_speedup(measurements):
    """The headline number: index access on rows vs the batched
    sequential scan on the 1%-selectivity medium aggregate."""
    seq = measurements[("medium", "point-agg", "vec-seq")][0]
    idx = measurements[("medium", "point-agg", "default-idx")][0]
    assert seq / idx >= 3.0, (
        f"index access speedup {seq / idx:.1f}x < 3x "
        f"(seq={seq:.3f}ms idx={idx:.3f}ms)"
    )


def test_multikey_join_is_vectorized_with_speedup(measurements):
    with flag_overrides(vectorize=True):
        database = build_database(1_000, indexed=True)
        plan = database.execute("EXPLAIN " + WORKLOADS[-1][1])
        assert "[vectorized]" in plan.rows[0][0]
    row_path = measurements[("medium", "multikey-join", "row-idx")][0]
    vectorized = measurements[("medium", "multikey-join", "default-idx")][0]
    assert row_path / vectorized >= 2.0, (
        f"multi-key join speedup {row_path / vectorized:.1f}x < 2x"
    )


def test_report(measurements):
    lines = [
        "Index access on rows vs batched scans, and multi-key hash joins "
        "(best-of-3 warm ms per query)",
        "",
        f"{'scale':8} {'workload':16} "
        + " ".join(f"{label:>12}" for label, *_ in CONFIGS)
        + f" {'seq/idx':>8} {'row/dflt':>10}",
    ]
    for scale, rows in SCALES:
        for workload, _sql in WORKLOADS:
            times = {
                label: measurements[(scale, workload, label)][0]
                for label, *_ in CONFIGS
            }
            idx_speedup = times["vec-seq"] / times["default-idx"]
            row_speedup = times["row-idx"] / times["default-idx"]
            lines.append(
                f"{scale:8} {workload:16} "
                + " ".join(f"{times[label]:12.3f}" for label, *_ in CONFIGS)
                + f" {idx_speedup:7.1f}x {row_speedup:9.1f}x"
            )
        lines.append("")
    lines.append(
        "rows: small=10k medium=50k; selectivity: point-agg 1%, "
        "range-agg 2.5%; dims table 400 rows; join key (k, t); "
        "default-idx runs the index workloads on rows"
    )
    write_report("perf_minidb_index_vector", lines)
    timings_ms = {
        f"{scale}/{workload}/{label}": measurements[(scale, workload, label)][0]
        for scale, _rows in SCALES
        for workload, _sql in WORKLOADS
        for label, *_ in CONFIGS
    }
    medium_seq = measurements[("medium", "point-agg", "vec-seq")][0]
    medium_idx = measurements[("medium", "point-agg", "default-idx")][0]
    join_row = measurements[("medium", "multikey-join", "row-idx")][0]
    join_vec = measurements[("medium", "multikey-join", "default-idx")][0]
    write_bench_json(
        "minidb_index_vector",
        {
            "timings_ms": timings_ms,
            "ops_per_sec": {
                key: (1000.0 / ms if ms else None)
                for key, ms in timings_ms.items()
            },
            "speedup": {
                "medium_point_agg_idx_rows_vs_vec_seq": medium_seq / medium_idx,
                "medium_multikey_join_vec_vs_row": join_row / join_vec,
            },
        },
    )
