"""The headline acceptance test: generated queries vs the sqlite oracle.

At least 200 generated query executions must compare equal against
sqlite3 across the full minidb config sweep (compiled/interpreted,
cold/warm, prepared/literal) with zero divergences — and zero
both-engine errors, so the budget is spent on queries both engines
actually answered.  ``TESTKIT_DIFF_OPS`` scales the budget up for
thorough runs.
"""

import os

from repro.testkit.oracle import run_differential

MIN_OPS = int(os.environ.get("TESTKIT_DIFF_OPS", "200"))


def test_differential_fuzz_against_sqlite_oracle():
    report = run_differential(min_query_ops=MIN_OPS, base_seed=0)
    assert report.query_ops >= MIN_OPS
    details = "\n".join(
        line
        for failure in report.failures
        for line in failure.report.divergences[:3]
    )
    assert not report.failures, (
        f"{len(report.failures)} failing case(s) out of {report.cases}:\n"
        f"{details}"
    )
    assert report.error_ops == 0, (
        f"{report.error_ops} op(s) errored on both engines — the "
        f"generator is emitting SQL outside the shared dialect"
    )


def test_bound_and_literal_renderings_plan_and_answer_alike():
    """The metamorphic twin of the sweep, no oracle needed: a query's
    ``?`` rendering must EXPLAIN like its literal rendering modulo the
    constant — a bound value reaches every index and primary-key route a
    literal does — and return the same rows in the same order.  The
    route count keeps the check honest: it is vacuous on a fuzzer that
    never plans an index scan."""
    from repro.testkit.generators import CaseGenerator
    from repro.testkit.oracle import check_bound_plans

    routes = 0
    for seed in range(60):
        seen, divergences = check_bound_plans(CaseGenerator(seed).case())
        assert not divergences, f"seed {seed}:\n" + "\n".join(divergences[:2])
        routes += seen
    assert routes >= 20, f"only {routes} bound index routes in 60 seeds"


def test_run_case_includes_the_bound_plan_check():
    """So the fuzz loop, the shrinker and the nightly job all run it, and
    the derived-table check with it: every case ends with a query over a
    derived body — projecting or joining, where the planner pushes the
    outer WHERE inside, or grouping, DISTINCT or LIMIT, where it must not
    — run after the case's INSERT/UPDATE/DELETE and index churn.  It must
    answer like its unpushed twin, order included, and its plan must say
    whether the push fired; the pushes that reach an index keep the check
    honest."""
    from repro.testkit.generators import Capabilities, CaseGenerator
    from repro.testkit.oracle import run_case

    reports = [
        run_case(CaseGenerator(seed, caps).case())
        for caps in (None, Capabilities(max_ops=20, max_rows=16))
        for seed in range(60)
    ]
    failing = [report for report in reports if not report.ok]
    assert not failing, "\n".join(failing[0].divergences[:2])
    assert sum(report.bound_index_routes for report in reports) > 0
    pushes = sum(report.derived_pushes for report in reports)
    assert pushes >= 20, f"only {pushes} pushes reached an index"
