#!/usr/bin/env python3
"""Disabled-mode observability overhead check (budget: <= 2%).

The obs layer's contract is that **disabled** instrumentation costs one
attribute load and a branch per guard, with no allocation.  A naive
A/B wall-clock comparison of "code with guards" vs "code without" cannot
run post-merge (the guard-free binary no longer exists) and is hopelessly
noisy at sub-percent scales on shared CI runners.  This check is
deterministic instead:

1. microbenchmark the guard itself (``if OBS.enabled: ...`` with obs
   disabled) to get a per-guard cost in nanoseconds;
2. count the guards a search query actually crosses (search engine +
   minidb select instrumentation, measured by running one query with
   obs *enabled* and counting emitted events, times a safety factor);
3. measure the median disabled-mode latency of the PR 2 search
   micro-workload (uncached, conjunctive, the hot path);
4. fail if ``guard_cost * guards_per_query`` exceeds 2% of the median
   query time.

An informational enabled-vs-disabled wall-clock comparison is printed
too (not gated — it measures recording cost, which has no budget).

Run from anywhere inside the repository:

    PYTHONPATH=src python benchmarks/check_obs_overhead.py

CI runs it as a non-blocking step in the benchmarks job.
"""

from __future__ import annotations

import statistics
import sys
import time

BUDGET_FRACTION = 0.02
#: safety margin over the measured per-query guard crossings
GUARD_SAFETY_FACTOR = 4


def guard_cost_ns(iterations: int = 2_000_000) -> float:
    """Median per-iteration cost of the disabled-mode guard check."""
    from repro.obs import OBS

    assert not OBS.enabled
    samples = []
    for _repeat in range(5):
        counter = 0
        started = time.perf_counter()
        for _ in range(iterations):
            if OBS.enabled:  # the exact shape every hot path uses
                counter += 1
        elapsed = time.perf_counter() - started

        # Baseline: the same loop without the guard.
        started_base = time.perf_counter()
        for _ in range(iterations):
            pass
        base = time.perf_counter() - started_base
        samples.append(max(0.0, elapsed - base) / iterations * 1e9)
    return statistics.median(samples)


def build_workload():
    from repro.courserank.app import CourseRank
    from repro.datagen import generate_university

    app = CourseRank(generate_university(scale="small", seed=2008))
    app.cloudsearch.build()
    queries = [
        "introduction programming",
        "american history",
        "data analysis",
        "organic chemistry lab",
        "music theory",
    ]
    return app, queries


def guards_per_query(app, queries) -> int:
    """Upper-bound the guard crossings of one query via emitted events."""
    from repro.obs import OBS

    OBS.reset()
    OBS.enable()
    try:
        for query in queries:
            app.cloudsearch.engine.search(query, limit=20)
    finally:
        OBS.disable()
    snapshot = OBS.metrics.snapshot()
    events = sum(snapshot["counters"].values())
    events += sum(h["count"] for h in snapshot["histograms"].values())
    events += len(OBS.tracer)
    OBS.reset()
    per_query = max(1, events // len(queries))
    return per_query * GUARD_SAFETY_FACTOR


def median_query_ms(app, queries, repeats: int = 40) -> float:
    from repro.obs import OBS

    assert not OBS.enabled
    samples = []
    for _ in range(repeats):
        for query in queries:
            started = time.perf_counter()
            app.cloudsearch.engine.search(query, limit=20)
            samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def enabled_median_query_ms(app, queries, repeats: int = 40) -> float:
    from repro.obs import OBS

    OBS.reset()
    OBS.enable()
    try:
        samples = []
        for _ in range(repeats):
            for query in queries:
                started = time.perf_counter()
                app.cloudsearch.engine.search(query, limit=20)
                samples.append((time.perf_counter() - started) * 1000.0)
    finally:
        OBS.disable()
        OBS.reset()
    return statistics.median(samples)


def main() -> int:
    print("measuring disabled-mode guard cost ...")
    per_guard_ns = guard_cost_ns()
    app, queries = build_workload()
    print("counting guards per search query ...")
    guards = guards_per_query(app, queries)
    print("measuring disabled-mode search latency ...")
    disabled_ms = median_query_ms(app, queries)
    enabled_ms = enabled_median_query_ms(app, queries)

    overhead_ms = per_guard_ns * guards / 1e6
    fraction = overhead_ms / disabled_ms if disabled_ms > 0 else 0.0

    print()
    print(f"guard cost            : {per_guard_ns:8.2f} ns")
    print(f"guards/query (x{GUARD_SAFETY_FACTOR})    : {guards:8d}")
    print(f"disabled median query : {disabled_ms:8.4f} ms")
    print(f"guard overhead/query  : {overhead_ms:8.6f} ms "
          f"({fraction * 100:.4f}% of query)")
    print(f"enabled median query  : {enabled_ms:8.4f} ms (informational; "
          "recording cost has no budget)")
    print()
    if fraction > BUDGET_FRACTION:
        print(
            f"FAIL: disabled-mode guard overhead {fraction * 100:.3f}% "
            f"exceeds the {BUDGET_FRACTION * 100:.0f}% budget"
        )
        return 1
    print(
        f"OK: disabled-mode guard overhead {fraction * 100:.4f}% "
        f"is within the {BUDGET_FRACTION * 100:.0f}% budget"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
