"""Which facade queries still evaluate expressions on the row interpreter.

minidb routes by one rule: whole-table scans run on batches, and a plan
that reads a table by key — through an index or its primary key, lookup
joins included — runs on the row tree.  This test names every other
reason a facade plan (or part of one) lands on the row tree: it sits
under a nested-loop join, or it evaluates a scalar function call — the
shapes the batch path has no kernel for.  It is an upper bound: adding
kernels cannot break it, but a facade query that newly falls back to the
interpreter without reading by key fails here with its plan printed.

The service answers recommendations from the direct executor, which
plans no SQL; the three FlexRecs strategies are driven here with
``path="sql"`` so the compiled statements — the reproduction of
"workflows compile to SQL" — stay under the same bound.
"""

import dataclasses

import repro.minidb.executor as executor_module
from repro.backends.registry import default_backend_name
from repro.datagen import generate_university
from repro.minidb import Database
from repro.minidb.expressions import Expression, FunctionCall
from repro.minidb.planner import (
    LookupJoinNode,
    NestedLoopJoinNode,
    QueryPlan,
    ScanNode,
    SortNode,
    plan_select,
    walk_plan,
)
from repro.minidb.sql.parser import parse_statement
from repro.service import CourseRankService

STRATEGIES = (
    "related_courses",
    "courses_taken_together",
    "similar_audience_courses",
)


def _calls_function(value):
    if isinstance(value, FunctionCall):
        return True
    if isinstance(value, (list, tuple)):
        return any(_calls_function(item) for item in value)
    if isinstance(value, Expression) or dataclasses.is_dataclass(value):
        return any(_calls_function(item) for item in vars(value).values())
    return False


def _own_nodes(node):
    """``node``'s subtree without descending into sub-select plans (those
    are routed, and checked, as plans of their own)."""
    yield node
    for attribute in ("child", "left", "right"):
        branch = getattr(node, attribute, None)
        if branch is not None:
            yield from _own_nodes(branch)


def _row_regions(plan):
    """``(root node, extra expressions)`` per part of ``plan`` that runs
    on the row tree: the whole plan when the router refused it, else the
    subtree under each ``VRowSource`` boundary."""
    if plan.vector is None:
        yield plan.root, [expression for _name, expression in plan.output]
        return
    stack = [plan.vector.root]
    while stack:
        op = stack.pop()
        if not op.vectorized:
            yield op.node, []
        stack.extend(op.children)


def _explained(root, expressions):
    nodes = list(_own_nodes(root))
    if any(
        isinstance(node, LookupJoinNode)
        or (isinstance(node, ScanNode) and node.access is not None)
        for node in nodes
    ):
        return True  # reads by key: the router leaves the plan to rows
    if any(isinstance(node, NestedLoopJoinNode) for node in nodes):
        return True
    return _calls_function(expressions) or any(
        _calls_function(list(vars(node).values())) for node in nodes
    )


def test_facade_row_path_is_point_lookups_joins_without_keys_and_udfs(
    monkeypatch,
):
    planned = []
    plan_select = executor_module.plan_select

    def recording(database, statement):
        plan = plan_select(database, statement)
        planned.append(plan)
        return plan

    monkeypatch.setattr(executor_module, "plan_select", recording)
    service = CourseRankService(
        generate_university(scale="tiny", seed=5), num_shards=2
    )
    course_ids = [
        row[0]
        for shard in service.sharded.shards
        for row in shard.query(
            "SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 2"
        ).rows
    ]
    planned.clear()
    for course_id in course_ids:
        service.course_page(course_id)
        recommendations = service._app_for_course(course_id).recommendations
        for strategy in STRATEGIES:
            recommendations.run(strategy, path="sql", course_id=course_id)

    plans = [
        inner
        for plan in planned
        for inner in [plan]
        + [
            node.plan
            for node in walk_plan(plan.root)
            if isinstance(getattr(node, "plan", None), QueryPlan)
        ]
    ]
    # Pages read by key, so they run on rows; the compiled FlexRecs
    # statements scan whole tables on batches unless REPRO_BACKEND sends
    # them to another engine.
    if default_backend_name() == "minidb":
        assert any(plan.vector is not None for plan in plans)
    else:
        assert plans
    unexplained = [
        "\n".join(plan.describe())
        for plan in plans
        for root, expressions in _row_regions(plan)
        if not _explained(root, expressions)
    ]
    assert not unexplained, (
        "facade plans evaluating on the row interpreter outside the known "
        "shapes:\n\n" + "\n\n".join(unexplained)
    )


def test_the_check_names_an_interpreted_filter():
    """Negative control: a plain filter plan left on the row tree is not
    one of the excused shapes; a primary-key lookup and a primary-key
    lookup join are, and the router leaves them to rows whole."""
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    database.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
    database.execute("INSERT INTO u VALUES (7, 1), (8, 2)")
    plan = plan_select(
        database, parse_statement("SELECT id FROM t WHERE x > 5")
    )
    assert not list(_row_regions(plan))  # fully vectorized
    plan.vector = None  # as if the router had refused it
    assert [_explained(*region) for region in _row_regions(plan)] == [False]
    lookup = plan_select(
        database, parse_statement("SELECT x FROM t WHERE id = 1")
    )
    assert [_explained(*region) for region in _row_regions(lookup)] == [True]
    join = plan_select(
        database,
        parse_statement(
            "SELECT t.x FROM u JOIN t ON u.t_id = t.id "
            "WHERE u.id = 7 ORDER BY t.x"
        ),
    )
    # Refused whole: the region is the Sort above the lookup join, excused
    # by the primary-key read that drives the join.
    assert join.vector is None
    regions = list(_row_regions(join))
    assert [type(root) for root, _extra in regions] == [SortNode]
    assert isinstance(regions[0][0].child, LookupJoinNode)
    assert [_explained(*region) for region in regions] == [True]
