"""The two ``power_iteration`` kernels, held to each other and to the past.

* **Oracle.**  The dict-of-dict ``fsum`` walker ``power_iteration`` was
  before it moved onto the CSR view lives on here, test-local; the exact
  kernel's ``scores``, ``iterations`` and ``delta`` must be ``==`` to it.
* **Contract.**  The numpy kernel agrees with the exact one on
  ``converged``, on ``iterations`` within one, on every score within
  1e-12, and on the ranked order of every node kind wherever adjacent
  exact scores are more than 2e-12 apart.
* **Canonical order.**  One graph built cold, incrementally and over
  1–5 shards enumerates its layer maps in three different orders; the
  CSR views must be byte-identical and the numpy kernel (plain float
  adds) must not see the difference.
"""

import json
import math
import os
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.graphrank import (
    NODE_KINDS,
    GraphRankEngine,
    TripartiteAdjacency,
    power_iteration,
    ranked_of_kind,
    teleport_vector,
)
from repro.service import CourseRankService
from repro.testkit.churn import ChurnDriver
from tests.graphrank.conftest import (
    KERNELS,
    kernel,
    merged_edges,
    needs_numpy,
)
from tests.graphrank.test_ranker_properties import (
    USER_IDS,
    adjacency_of,
    comment_lists,
    enrollment_lists,
    layers_of,
    make_db,
)

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "3"))
CHURN_PIN = (
    pathlib.Path(__file__).parent.parent
    / "corpus"
    / "churn_graphrank_incremental.json"
)


def oracle_power_iteration(
    adjacency,
    neighbors,
    preference=(),
    damping=0.85,
    epsilon=1e-12,
    max_iters=250,
):
    """The pre-CSR walker: ``(scores, iterations, delta)`` over the dicts
    ``neighbors`` (:func:`merged_edges` of the graph's layers)."""
    teleport = teleport_vector(adjacency, preference)
    degrees = adjacency.degrees
    rank = dict(teleport)
    for iterations in range(1, max_iters + 1):
        fresh = {}
        for node in adjacency.nodes:
            incoming = [
                rank[source] * (weight / degrees[source])
                for source, weight in neighbors[node].items()
            ]
            fresh[node] = (1.0 - damping) * teleport[node] + damping * (
                math.fsum(incoming)
            )
        delta = math.fsum(abs(fresh[n] - rank[n]) for n in adjacency.nodes)
        rank = fresh
        if delta <= epsilon:
            break
    return rank, iterations, delta


def assert_contract(exact, fast):
    """The numpy kernel's stated tolerance against the exact kernel."""
    assert fast.converged == exact.converged
    assert abs(fast.iterations - exact.iterations) <= 1
    assert list(fast.scores) == list(exact.scores)
    for node, score in exact.scores.items():
        assert abs(fast.scores[node] - score) <= 1e-12
    for kind in NODE_KINDS:
        ranked = ranked_of_kind(exact.scores, kind)
        position = {
            key: index
            for index, (key, _) in enumerate(
                ranked_of_kind(fast.scores, kind)
            )
        }
        for (above, high), (below, low) in zip(ranked, ranked[1:]):
            if high - low > 2e-12:
                assert position[above] < position[below]


def run_both(adjacency, **params):
    with kernel("exact"):
        exact = power_iteration(adjacency, **params)
    with kernel("numpy"):
        fast = power_iteration(adjacency, **params)
    return exact, fast


seeds = st.one_of(
    st.just(()), st.sampled_from(USER_IDS).map(lambda u: (("user", u),))
)


class TestExactKernelEqualsTheDictWalker:
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        preference=seeds,
        max_iters=st.sampled_from([1, 3, 250]),
    )
    @settings(deadline=None)
    def test_scores_iterations_and_delta_are_equal(
        self, enrollments, comments, preference, max_iters
    ):
        layers = layers_of(make_db(enrollments, comments))
        adjacency = TripartiteAdjacency(layers)
        scores, iterations, delta = oracle_power_iteration(
            adjacency, merged_edges(layers), preference, max_iters=max_iters
        )
        with kernel("exact"):
            result = power_iteration(
                adjacency, preference, max_iters=max_iters
            )
        assert result.scores == scores
        assert list(result.scores) == list(scores)  # same node order too
        assert result.iterations == iterations
        assert result.delta == delta
        assert result.converged == (delta <= 1e-12)


@needs_numpy
class TestNumpyKernelContract:
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        preference=seeds,
        max_iters=st.sampled_from([3, 250]),
    )
    @settings(deadline=None)
    def test_generated_graphs(
        self, enrollments, comments, preference, max_iters
    ):
        adjacency = adjacency_of(make_db(enrollments, comments))
        exact, fast = run_both(
            adjacency, preference=preference, max_iters=max_iters
        )
        assert_contract(exact, fast)

    def test_datagen_small(self):
        database = generate_university(scale="small", seed=11)
        adjacency = GraphRankEngine(database).refresh()
        student = database.query("SELECT MIN(SuID) FROM Students").scalar()
        for preference in ((), (("user", student),)):
            exact, fast = run_both(adjacency, preference=preference)
            assert exact.converged
            assert_contract(exact, fast)


def _free_pairs(database, table, count):
    """``count`` (SuID, CourseID) pairs not yet in ``table`` (PK + FKs hold)."""
    taken = {
        tuple(row)
        for row in database.query(f"SELECT SuID, CourseID FROM {table}").rows
    }
    students = database.query("SELECT SuID FROM Students").column("SuID")
    courses = database.query("SELECT CourseID FROM Courses").column("CourseID")
    pairs = [
        (suid, course_id)
        for course_id in sorted(courses)[:6]
        for suid in sorted(students)[:6]
        if (suid, course_id) not in taken
    ]
    assert len(pairs) >= count
    return pairs[:count]


def _churn_statements(database):
    """DML touching all three layers; any order leaves the same tables."""
    statements = [
        f"INSERT INTO Comments VALUES ({suid}, {course_id}, 2008, 'Autumn', "
        f"'canonical order probe {index}', 4.0, '2008-01-0{index + 1}')"
        for index, (suid, course_id) in enumerate(
            _free_pairs(database, "Comments", 3)
        )
    ]
    statements += [
        f"INSERT INTO Enrollments VALUES ({suid}, {course_id}, 2008, "
        "'Winter', 'A')"
        for suid, course_id in _free_pairs(database, "Enrollments", 3)
    ]
    statements += [
        f"UPDATE Courses SET Title = 'canonical probe {course_id}' "
        f"WHERE CourseID = {course_id}"
        for course_id in (2, 5)
    ]
    return statements


@needs_numpy
class TestCanonicalOrder:
    @pytest.fixture(scope="class")
    def builds(self):
        """One graph: incremental, cold (other row order), over 1–5 shards;
        each build with its layer maps."""
        live_db = generate_university(scale="tiny", seed=7)
        statements = _churn_statements(live_db)
        live = GraphRankEngine(live_db)
        live.refresh()
        for statement in statements:
            live_db.execute(statement)
            live.refresh()  # patch layer by layer, never rebuild whole
        assert live.layers_reused > 0
        cold_db = generate_university(scale="tiny", seed=7)
        for statement in reversed(statements):
            cold_db.execute(statement)
        cold = GraphRankEngine(cold_db)
        builds = {
            "incremental": (live.refresh(), [live.layers()]),
            "cold": (cold.refresh(), [cold.layers()]),
        }
        for shards in range(1, 6):
            service = CourseRankService(live_db, num_shards=shards)
            builds[f"sharded-{shards}"] = (
                service.graphrank.refresh(),
                [
                    GraphRankEngine(shard).layers()
                    for shard in service.sharded.shards
                ],
            )
        return builds

    def test_the_builds_are_one_graph_in_different_dict_orders(self, builds):
        cold, cold_layers = builds["cold"]
        reference = merged_edges(*cold_layers)
        orders = set()
        for adjacency, shard_layers in builds.values():
            assert adjacency.nodes == cold.nodes
            edges = merged_edges(*shard_layers)
            assert edges == reference
            orders.add(tuple(tuple(edges[n]) for n in cold.nodes))
        assert len(orders) >= 3  # or this class checks nothing

    def test_csr_views_are_identical(self, builds):
        views = [adjacency.csr() for adjacency, _ in builds.values()]
        assert all(view == views[0] for view in views)

    def test_numpy_scores_are_equal_across_builds(self, builds):
        cold, _ = builds["cold"]
        student = min(n[1] for n in cold.nodes_of_kind("user"))
        for preference in ((), (("user", student),), (("course", 4),)):
            with kernel("numpy"):
                runs = [
                    power_iteration(adjacency, preference)
                    for adjacency, _ in builds.values()
                ]
            assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("name", KERNELS)
class TestReplaysOnBothKernels:
    def test_churn_pin_incremental_equals_cold(self, name):
        pin = json.loads(CHURN_PIN.read_text())
        with kernel(name):
            report = ChurnDriver(
                seed=pin["seed"],
                steps=pin["steps"],
                check_every=pin["check_every"],
            ).run()
        assert report.ok, report.failures[:4]
        for key in pin["require_coverage"]:
            assert report.coverage.get(key, 0) > 0

    def test_sharded_service_equals_the_unsharded_app(self, name):
        app = CourseRank(generate_university(scale="tiny", seed=7))
        service = CourseRankService(
            generate_university(scale="tiny", seed=7),
            num_shards=REPRO_SHARDS,
        )
        with kernel(name):
            for strategy, params in (
                ("graph_rank_courses", {"student_id": 1}),
                ("similar_by_folkrank", {"course_id": 2}),
            ):
                base = app.recommendations.run(strategy, top_k=5, **params)
                sharded = service.recommend(strategy, top_k=5, **params)
                assert sharded.rows
                assert sharded.as_tuples(*base.columns) == base.as_tuples(
                    *base.columns
                )
