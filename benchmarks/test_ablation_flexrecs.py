"""Ablation A1 — FlexRecs execution variants beyond P2.

DESIGN.md calls out two design choices for ablation:

* the **optimizer** (algebraic rewrites) vs naive execution of the same
  workflow — measured on a filtered, truncated stacked CF workflow where
  rule 4 (select into target) and rule 5 (top-k fusion) apply;
* **staged** execution (the paper's literal "sequence of SQL calls" with
  temp tables) vs the single nested statement.

All variants must return the same ranking.  The report counts the work
each variant does, so it reads the same on every host: pairs compared
and pruned by the direct executor's recommend operators, rows passed by
the nodes of the single statement's plan, and statements run plus rows
staged by the temp-table sequence.
"""

import pytest
from conftest import write_report

from repro.core import (
    Workflow,
    compile_workflow_staged,
    optimize,
    run_staged,
    strategies,
)
from repro.core.operators import Select, TopK
from repro.service.sharding import ShardedUniversity


@pytest.fixture(scope="module")
def ablation_db(bench_db):
    """A private copy of the university: the staged sequence creates and
    drops temp tables, which moves the schema epoch."""
    return ShardedUniversity(bench_db, 1).shards[0]


@pytest.fixture(scope="module")
def wrapped_workflow(active_student):
    """A stacked CF workflow with a post-filter and a top-k cut."""
    inner = strategies.collaborative_filtering(
        active_student, similar_students=10, top_k=None
    )
    return Workflow(TopK(Select(inner.root, "Units >= 3"), 10, "score"))


def plan_rows(node) -> int:
    """Rows passed by every node of an EXPLAIN ANALYZE plan."""
    return node.rows_out + sum(plan_rows(child) for child in node.children)


def run_staged_counted(workflow, database):
    """The staged sequence, counting statements run and rows staged."""
    staged = compile_workflow_staged(workflow, database)
    rows_staged = 0
    try:
        for statement in staged.stages:
            # CREATE TABLE returns None, INSERT ... SELECT the rows it staged
            rows_staged += database.execute(statement) or 0
        result = database.query(staged.final_select)
    finally:
        for table_name in staged.temp_tables:
            database.drop_table(table_name, if_exists=True)
    return result, staged.statement_count, rows_staged


def test_unoptimized_direct(benchmark, ablation_db, wrapped_workflow):
    result = benchmark(wrapped_workflow.run, ablation_db)
    assert len(result) > 0


def test_optimized_direct(benchmark, ablation_db, wrapped_workflow):
    optimized = optimize(wrapped_workflow, ablation_db)
    result = benchmark(optimized.run, ablation_db)
    assert len(result) > 0


def test_optimizer_preserves_output(benchmark, ablation_db, wrapped_workflow):
    optimized = optimize(wrapped_workflow, ablation_db)

    def both(db):
        return wrapped_workflow.run(db), optimized.run(db)

    base, rewritten = benchmark(both, ablation_db)
    assert base.column("CourseID") == rewritten.column("CourseID")
    for left, right in zip(base.rows, rewritten.rows):
        assert left["score"] == pytest.approx(right["score"])


def test_staged_execution(benchmark, ablation_db, wrapped_workflow):
    wrapped_workflow.validate(ablation_db)
    result = benchmark(run_staged, wrapped_workflow, ablation_db)
    assert len(result) > 0


def test_staged_equals_single_statement(
    benchmark, ablation_db, wrapped_workflow
):
    def both(db):
        return wrapped_workflow.run_sql(db), run_staged(wrapped_workflow, db)

    single, staged = benchmark(both, ablation_db)
    assert single.column("CourseID") == staged.column("CourseID")


def test_report_ablation_counts(ablation_db, wrapped_workflow, active_student):
    db = ablation_db
    variants = {
        "naive": wrapped_workflow,
        "optimized": optimize(wrapped_workflow, db),
    }
    lines = [f"stacked CF + filter + top-10 (student {active_student}):"]
    pairs, plans, rankings = {}, {}, []
    for name, workflow in variants.items():
        direct = workflow.run(db)
        pairs[name] = sum(record.candidates for record in direct.stats)
        pruned = sum(record.pruned for record in direct.stats)
        label = f"direct ({name})"
        lines.append(
            f"  {label:>22}: {pairs[name]:6d} pairs compared, "
            f"{pruned:6d} pruned"
        )
        rankings.append(direct.column("CourseID"))
    for name, workflow in variants.items():
        single = db.analyze(workflow.compiled_for(db).sql)
        plans[name] = plan_rows(single.root)
        label = f"single SQL ({name})"
        lines.append(f"  {label:>22}: {plans[name]:6d} plan rows")
        rankings.append(single.result.column("CourseID"))
    staged, statements, rows_staged = run_staged_counted(wrapped_workflow, db)
    lines.append(
        f"  {'staged SQL sequence':>22}: {statements:6d} statements, "
        f"{rows_staged:6d} rows staged"
    )
    rankings.append(staged.column("CourseID"))
    write_report("ablation_flexrecs", lines)
    assert all(ranking == rankings[0] for ranking in rankings)
    # Shape: the rewrite rules never add work.
    assert pairs["optimized"] <= pairs["naive"]
    assert plans["optimized"] <= plans["naive"]
