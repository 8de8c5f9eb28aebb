"""Property battery for the FolkRank ranker (the ISSUE's hypothesis leg).

Four determinism hypotheses, each over generated graphs:

* the rank vector is a distribution — scores sum to 1 within 1e-9;
* on the exact kernel, scores are **bit-identical** under any
  permutation of user ids (integer weights + ``math.fsum`` make
  accumulation order irrelevant); the numpy kernel sums in column order,
  which a relabeling permutes, so there the invariant is the documented
  1e-12 tolerance;
* repeated runs over the same adjacency are bit-identical;
* a live engine refreshed incrementally across DML churn produces
  differentials bit-identical to a cold engine over the final state.

The graphs are built through the real ``build_layer`` SQL over a minimal
schema carrying exactly the columns the layers read, so the properties
cover the extraction path, not just the arithmetic.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.graphrank import (
    GraphRankEngine,
    TripartiteAdjacency,
    build_layer,
    power_iteration,
)
from repro.minidb import Database
from tests.graphrank.conftest import kernel, needs_numpy

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
USER_IDS = list(range(1, 9))
COURSE_IDS = list(range(1, 7))


def make_db(enrollments=(), comments=(), titles=()):
    """A minimal database carrying exactly the layer source columns."""
    db = Database()
    db.execute("CREATE TABLE Enrollments (SuID INTEGER, CourseID INTEGER)")
    db.execute(
        "CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, Text TEXT)"
    )
    db.execute(
        "CREATE TABLE Courses "
        "(CourseID INTEGER PRIMARY KEY, Title TEXT, Description TEXT)"
    )
    courses = db.table("Courses")
    titled = dict(titles)
    for course_id in COURSE_IDS:
        courses.insert(
            [course_id, titled.get(course_id, ""), ""]
        )
    table = db.table("Enrollments")
    for suid, course_id in enrollments:
        table.insert([suid, course_id])
    table = db.table("Comments")
    for suid, course_id, text in comments:
        table.insert([suid, course_id, text])
    return db


def layers_of(db):
    return {
        name: build_layer(name, db)
        for name in ("enrollment", "comment", "content")
    }


def adjacency_of(db):
    return TripartiteAdjacency(layers_of(db))


enrollment_lists = st.lists(
    st.tuples(st.sampled_from(USER_IDS), st.sampled_from(COURSE_IDS)),
    min_size=1,
    max_size=24,
)

comment_lists = st.lists(
    st.tuples(
        st.sampled_from(USER_IDS),
        st.sampled_from(COURSE_IDS),
        st.lists(st.sampled_from(VOCAB), min_size=0, max_size=3).map(
            " ".join
        ),
    ),
    max_size=12,
)


class TestNormalization:
    @given(enrollments=enrollment_lists, comments=comment_lists)
    @settings(deadline=None)
    def test_scores_sum_to_one(self, enrollments, comments):
        adjacency = adjacency_of(make_db(enrollments, comments))
        result = power_iteration(adjacency)
        assert result.converged
        assert abs(math.fsum(result.scores.values()) - 1.0) <= 1e-9

    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        seed_user=st.sampled_from(USER_IDS),
    )
    @settings(deadline=None)
    def test_biased_scores_also_sum_to_one(
        self, enrollments, comments, seed_user
    ):
        adjacency = adjacency_of(make_db(enrollments, comments))
        result = power_iteration(
            adjacency, preference=(("user", seed_user),)
        )
        assert abs(math.fsum(result.scores.values()) - 1.0) <= 1e-9


def _relabeled_pair(enrollments, comments, permuted):
    """(mapping, base run, run over the graph with user ids permuted)."""
    mapping = dict(zip(USER_IDS, permuted))
    base = power_iteration(adjacency_of(make_db(enrollments, comments)))
    relabeled = power_iteration(
        adjacency_of(
            make_db(
                [(mapping[u], c) for u, c in enrollments],
                [(mapping[u], c, t) for u, c, t in comments],
            )
        )
    )
    return mapping, base, relabeled


def _relabel(node, mapping):
    return ("user", mapping[node[1]]) if node[0] == "user" else node


class TestPermutationInvariance:
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        permuted=st.permutations(USER_IDS),
    )
    @settings(deadline=None)
    def test_user_id_relabeling_is_bit_identical(
        self, enrollments, comments, permuted
    ):
        with kernel("exact"):
            mapping, base, relabeled = _relabeled_pair(
                enrollments, comments, permuted
            )
        assert base.iterations == relabeled.iterations
        for node, score in base.scores.items():
            assert relabeled.scores[_relabel(node, mapping)] == score

    @needs_numpy
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        permuted=st.permutations(USER_IDS),
    )
    @settings(deadline=None)
    def test_user_id_relabeling_is_within_tolerance_on_numpy(
        self, enrollments, comments, permuted
    ):
        with kernel("numpy"):
            mapping, base, relabeled = _relabeled_pair(
                enrollments, comments, permuted
            )
        assert abs(base.iterations - relabeled.iterations) <= 1
        for node, score in base.scores.items():
            other = relabeled.scores[_relabel(node, mapping)]
            assert abs(other - score) <= 1e-12


class TestDeterminism:
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        seed_user=st.sampled_from(USER_IDS),
    )
    @settings(deadline=None)
    def test_repeated_runs_are_bit_identical(
        self, enrollments, comments, seed_user
    ):
        adjacency = adjacency_of(make_db(enrollments, comments))
        preference = (("user", seed_user),)
        first = power_iteration(adjacency, preference=preference)
        second = power_iteration(adjacency, preference=preference)
        assert first.scores == second.scores
        assert first.iterations == second.iterations
        assert first.delta == second.delta


churn_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("enroll"),
            st.sampled_from(USER_IDS),
            st.sampled_from(COURSE_IDS),
        ),
        st.tuples(
            st.just("comment"),
            st.sampled_from(USER_IDS),
            st.sampled_from(COURSE_IDS),
            st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(
                " ".join
            ),
        ),
        st.tuples(
            st.just("retitle"),
            st.sampled_from(COURSE_IDS),
            st.sampled_from(VOCAB),
        ),
    ),
    min_size=1,
    max_size=8,
)


def _apply(db, op):
    if op[0] == "enroll":
        db.execute(
            f"INSERT INTO Enrollments VALUES ({op[1]}, {op[2]})"
        )
    elif op[0] == "comment":
        db.execute(
            f"INSERT INTO Comments VALUES ({op[1]}, {op[2]}, '{op[3]}')"
        )
    else:
        db.execute(
            f"UPDATE Courses SET Title = '{op[2]}' WHERE CourseID = {op[1]}"
        )


class TestIncrementalEqualsCold:
    @given(
        enrollments=enrollment_lists,
        comments=comment_lists,
        ops=churn_ops,
        seed_user=st.sampled_from(USER_IDS),
    )
    @settings(deadline=None)
    def test_differential_after_churn_matches_cold_engine(
        self, enrollments, comments, ops, seed_user
    ):
        live_db = make_db(enrollments, comments)
        live = GraphRankEngine(live_db)
        live.refresh()
        for op in ops:
            _apply(live_db, op)
            live.refresh()  # exercise the layer-reuse path every step
        cold_db = make_db(enrollments, comments)
        for op in ops:
            _apply(cold_db, op)
        cold = GraphRankEngine(cold_db)
        preference = (("user", seed_user),)
        assert live.differential(preference) == cold.differential(preference)
        assert live.layers_reused > 0
