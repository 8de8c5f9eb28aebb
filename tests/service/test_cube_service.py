"""Sharded cube navigation must answer bit-identically to unsharded.

The ISSUE's second differential battery: every cube navigation on the
scatter-gather service — root, drill-down, slice, roll-up, at 1 through
5 shards — equals the same walk on an unsharded :class:`CloudCube` over
the union corpus, term for term and score for score.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.errors import CloudError
from repro.service import CourseRankService

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "3"))

DIMENSIONS = ("department", "quarter", "instructor")


def _terms(cloud):
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


def _same_cell(base_cell, svc_cell):
    assert svc_cell.coordinate == base_cell.coordinate
    assert sorted(svc_cell.doc_ids) == sorted(base_cell.doc_ids)
    assert svc_cell.result_size == base_cell.result_size
    assert _terms(svc_cell.cloud) == _terms(base_cell.cloud)


@pytest.fixture(scope="module")
def pair():
    base = CourseRank(generate_university(scale="tiny", seed=7))
    base.cloudsearch.build()
    service = CourseRankService(
        generate_university(scale="tiny", seed=7), num_shards=REPRO_SHARDS
    )
    return base, service


class TestCorpusCubeEquivalence:
    def test_root_cells_match(self, pair):
        base, service = pair
        _same_cell(base.cloudsearch.cube().root(), service.cube().root())

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_drill_down_matches_cell_by_cell(self, pair, dimension):
        base, service = pair
        base_cube, svc_cube = base.cloudsearch.cube(), service.cube()
        base_root, svc_root = base_cube.root(), svc_cube.root()
        assert svc_cube.dimension_values(svc_root, dimension) == (
            base_cube.dimension_values(base_root, dimension)
        )
        base_children = base_cube.drill_down(base_root, dimension)
        svc_children = svc_cube.drill_down(svc_root, dimension)
        assert sorted(svc_children) == sorted(base_children)
        for value, svc_child in svc_children.items():
            _same_cell(base_children[value], svc_child)
        assert svc_cube.stats["incremental_builds"] > 0

    def test_two_level_walk_with_roll_up(self, pair):
        base, service = pair
        base_cube, svc_cube = base.cloudsearch.cube(), service.cube()
        base_cell, svc_cell = base_cube.root(), svc_cube.root()
        for dimension in ("department", "quarter"):
            value = base_cube.dimension_values(base_cell, dimension)[0]
            base_cell = base_cube.slice(base_cell, dimension, value)
            svc_cell = svc_cube.slice(svc_cell, dimension, value)
            _same_cell(base_cell, svc_cell)
        hits = svc_cube.stats["memo_hits"]
        rolled = svc_cube.roll_up(svc_cell)
        assert rolled.coordinate == svc_cell.coordinate[:-1]
        assert svc_cube.stats["memo_hits"] == hits + 1

    def test_roll_up_from_apex_raises(self, pair):
        _, service = pair
        cube = service.cube()
        with pytest.raises(CloudError):
            cube.roll_up(cube.root())

    def test_unknown_dimension_raises(self, pair):
        _, service = pair
        cube = service.cube()
        with pytest.raises(CloudError):
            cube.dimension_values(cube.root(), "semester")


class TestMemoStaysBounded:
    def test_writes_between_walks_keep_one_generation_of_cells(self):
        from repro.courserank.accounts import Role

        service = CourseRankService(
            generate_university(scale="tiny", seed=7), num_shards=REPRO_SHARDS
        )
        users = [
            app.accounts.register("memowriter", Role.STUDENT, person_id=3)
            for app in service.apps
        ]

        def walk(cube):
            root = cube.root()
            children = cube.drill_down(root, "department")
            for child in children.values():
                cube.roll_up(child)
            return 1 + len(children)

        cube = service.cube()
        cells = walk(cube)
        assert len(cube._cells) == cells
        hits = cube.stats["memo_hits"]
        walk(cube)  # same generation: each cell and each roll-up is a hit
        assert cube.stats["memo_hits"] == hits + cells + (cells - 1)
        for round_number in range(4):
            course_id = 1 + round_number
            service.comment_on_course(
                users[service.sharded.shard_of_course(course_id)],
                course_id,
                f"memo probe {round_number}",
                3.0,
            )
            cube.root()
            assert len(cube._cells) == 1
            assert walk(cube) == cells
            assert len(cube._cells) == cells


class TestMaintainedApex:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
    def test_a_comment_patches_the_root_instead_of_gathering(self, num_shards):
        """The apex is a maintained aggregate: after a comment every
        shard's root partial is patched, so rebuilding the root (on the
        same cube, or on a new one) gathers on no shard, and it equals
        the unsharded root over the same writes."""
        from repro.courserank.accounts import Role

        service = CourseRankService(
            generate_university(scale="tiny", seed=7), num_shards=num_shards
        )
        base = CourseRank(generate_university(scale="tiny", seed=7))
        base.cloudsearch.build()
        users = [
            app.accounts.register("apexwriter", Role.STUDENT, person_id=3)
            for app in service.apps
        ]
        base_user = base.accounts.register(
            "apexwriter", Role.STUDENT, person_id=3
        )
        cube = service.cube()
        cube.root()

        def gather_counts():
            return [
                app.cloudsearch.cache_info()["gather"] for app in service.apps
            ]

        for course_id in (2, 5, 9):
            text = f"history seminar notes {course_id}"
            service.comment_on_course(
                users[service.sharded.shard_of_course(course_id)],
                course_id,
                text,
                4.0,
            )
            base.comment_on_course(base_user, course_id, text, 4.0)
            before = gather_counts()
            roots = [cube.root(), service.cube().root()]
            after = gather_counts()
            deltas = [
                (a["misses"] - b["misses"], a["patched"] - b["patched"])
                for a, b in zip(after, before)
            ]
            assert [misses for misses, _ in deltas] == [0] * num_shards
            assert sum(patched for _, patched in deltas) == 1
            expected = base.cloudsearch.cube().root()
            for root in roots:
                _same_cell(expected, root)


class TestSessionRootedCube:
    @pytest.mark.parametrize("query", ["programming", "data"])
    def test_session_cubes_walk_identically(self, pair, query):
        base, service = pair
        base_session = base.cloudsearch.session(query)
        svc_session = service.session(query)
        assert base_session.result.doc_ids(), "query must hit at tiny scale"
        base_cube = base_session.cube()
        svc_cube = svc_session.cube()
        base_root, svc_root = base_cube.root(), svc_cube.root()
        _same_cell(base_root, svc_root)
        for dimension in DIMENSIONS:
            base_children = base_cube.drill_down(base_root, dimension)
            svc_children = svc_cube.drill_down(svc_root, dimension)
            assert sorted(svc_children) == sorted(base_children)
            for value, svc_child in svc_children.items():
                _same_cell(base_children[value], svc_child)


class TestShardCountIndependence:
    @settings(max_examples=6, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        dimension=st.sampled_from(DIMENSIONS),
        seed=st.integers(min_value=1, max_value=2),
    )
    def test_any_shard_count_walks_like_unsharded(
        self, num_shards, dimension, seed
    ):
        base = CourseRank(generate_university(scale="tiny", seed=seed))
        base.cloudsearch.build()
        service = CourseRankService(
            generate_university(scale="tiny", seed=seed),
            num_shards=num_shards,
        )
        base_cube, svc_cube = base.cloudsearch.cube(), service.cube()
        base_root, svc_root = base_cube.root(), svc_cube.root()
        _same_cell(base_root, svc_root)
        values = base_cube.dimension_values(base_root, dimension)
        for value in values[:3]:
            _same_cell(
                base_cube.slice(base_root, dimension, value),
                svc_cube.slice(svc_root, dimension, value),
            )
