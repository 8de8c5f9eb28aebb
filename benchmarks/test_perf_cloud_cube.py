"""Experiment P7 — cloud cube navigation: lattice walks and memo reuse.

Measures the three cost tiers of :class:`repro.clouds.cube.CloudCube`
navigation over the course dimensions:

* ``first walk`` — a fresh cube walking root -> drill-down(department)
  -> one quarter slice (cold apex + one cloud per lattice edge);
* ``re-walk``    — the same navigation on the same cube (all memo hits);
* ``edge cost``  — ``build_for_docs`` over the largest department cell,
  what one lattice edge costs without the memo.

``BENCH_cloud_cube.json`` records walk timings and the memo speedup.
"""

import time

from conftest import BENCH_SCALE, write_bench_json, write_report


def _signature(cloud):
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


def _walk(cube):
    """Root -> full department drill-down -> one quarter slice."""
    clouds = []
    root = cube.root()
    clouds.append(root.cloud)
    children = cube.drill_down(root, "department")
    clouds.extend(cell.cloud for _value, cell in sorted(children.items()))
    largest = max(children.values(), key=lambda cell: cell.result_size)
    quarters = cube.dimension_values(largest, "quarter")
    if quarters:
        clouds.append(cube.slice(largest, "quarter", quarters[0]).cloud)
    return largest, clouds


def test_cube_walks_and_memo_reuse(bench_app):
    cube = bench_app.cloudsearch.cube()

    started = time.perf_counter()
    largest, first_clouds = _walk(cube)
    first_s = time.perf_counter() - started
    cells = len(first_clouds)

    started = time.perf_counter()
    _largest, second_clouds = _walk(cube)
    rewalk_s = time.perf_counter() - started

    assert [_signature(c) for c in second_clouds] == [
        _signature(c) for c in first_clouds
    ]
    assert cube.stats["memo_hits"] >= cells

    # Price one lattice edge on the largest department cell: its documents
    # in another order are a set the gather cache has not seen.
    started = time.perf_counter()
    edge_cloud = cube.builder.build_for_docs(largest.doc_ids[::-1])
    edge_s = time.perf_counter() - started
    assert _signature(edge_cloud) == _signature(largest.cloud)

    memo_speedup = first_s / rewalk_s if rewalk_s > 0 else float("inf")
    lines = [
        f"cloud cube navigation, scale={BENCH_SCALE} "
        f"({cells} cells per walk, largest department cell: "
        f"{largest.result_size} docs)",
        f"{'walk':>12} | {'total ms':>10} | {'ms/cell':>9}",
        "-" * 38,
        f"{'first':>12} | {first_s * 1e3:>10.1f} | "
        f"{first_s / cells * 1e3:>9.2f}",
        f"{'re-walk':>12} | {rewalk_s * 1e3:>10.1f} | "
        f"{rewalk_s / cells * 1e3:>9.2f}",
        "",
        f"memo speedup: {memo_speedup:.1f}x; lattice edge on the largest "
        f"department cell:",
        f"  build_for_docs           {edge_s * 1e3:8.2f} ms",
        "clouds bit-identical on every path",
    ]
    write_report("perf_cloud_cube", lines)
    write_bench_json(
        "cloud_cube",
        {
            "cells_per_walk": cells,
            "largest_department_docs": largest.result_size,
            "first_walk_ms": round(first_s * 1e3, 3),
            "rewalk_ms": round(rewalk_s * 1e3, 3),
            "memo_speedup": round(memo_speedup, 2),
            "edge_ms": round(edge_s * 1e3, 3),
            "clouds_bit_identical": True,
        },
    )
    assert memo_speedup > 1.0
