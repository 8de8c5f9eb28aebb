"""Differential battery for OLAP cloud cubes.

The contract under test: **every** navigated cell's cloud — drill-down,
slice, roll-up, in any order — is bit-identical to a cold
``build_for_docs`` over the same filtered document set, while the cube's
own counters prove the lattice-edge (slice) path actually ran.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clouds.cube import (
    COURSE_DIMENSIONS,
    CloudCube,
    DimensionSpec,
    membership_for,
)
from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.errors import CloudError


def _terms(cloud):
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


@pytest.fixture(scope="module")
def app():
    instance = CourseRank(generate_university(scale="tiny", seed=7))
    instance.cloudsearch.build()
    return instance


@pytest.fixture()
def cube(app):
    return app.cloudsearch.cube()


def _cold(cube, cell):
    return cube.builder.build_for_docs(
        cell.doc_ids, query=cube.query, query_terms=cube.query_terms
    )


class TestDifferentialNavigation:
    def test_every_drill_down_child_matches_a_cold_build(self, cube):
        root = cube.root()
        for dimension in ("department", "quarter", "instructor"):
            children = cube.drill_down(root, dimension)
            assert children, f"no values along {dimension!r}"
            for value, child in children.items():
                assert child.coordinate == ((dimension, value),)
                assert _terms(child.cloud) == _terms(_cold(cube, child))
        assert cube.stats["incremental_builds"] > 0

    def test_second_level_slices_match_cold_builds(self, cube):
        root = cube.root()
        department = cube.dimension_values(root, "department")[0]
        cell = cube.slice(root, "department", department)
        for quarter in cube.dimension_values(cell, "quarter"):
            deeper = cube.slice(cell, "quarter", quarter)
            assert set(deeper.doc_ids) <= set(cell.doc_ids)
            assert _terms(deeper.cloud) == _terms(_cold(cube, deeper))

    def test_roll_up_returns_the_memoized_parent(self, cube):
        root = cube.root()
        department = cube.dimension_values(root, "department")[0]
        child = cube.slice(root, "department", department)
        hits = cube.stats["memo_hits"]
        assert cube.roll_up(child) is root
        assert cube.stats["memo_hits"] == hits + 1

    def test_memberships_partition_consistently(self, app, cube):
        root = cube.root()
        spec = COURSE_DIMENSIONS[0]  # department
        membership = membership_for(app.db, spec)
        children = cube.drill_down(root, "department")
        for value, child in children.items():
            for doc_id in child.doc_ids:
                assert value in membership[doc_id]


class TestErrors:
    def test_unknown_dimension(self, cube):
        with pytest.raises(CloudError):
            cube.dimension_values(cube.root(), "semester")

    def test_dimension_fixed_twice(self, cube):
        root = cube.root()
        department = cube.dimension_values(root, "department")[0]
        cell = cube.slice(root, "department", department)
        with pytest.raises(CloudError):
            cube.slice(cell, "department", department)

    def test_duplicate_dimension_specs(self, app):
        spec = COURSE_DIMENSIONS[0]
        with pytest.raises(CloudError):
            CloudCube(
                app.db, app.cloudsearch.builder, dimensions=(spec, spec)
            )

    def test_roll_up_from_the_apex(self, cube):
        with pytest.raises(CloudError):
            cube.roll_up(cube.root())


class TestResultRootedCube:
    def test_session_cube_is_rooted_at_the_result(self, app):
        session = app.cloudsearch.session("programming")
        assert session.result.doc_ids(), "query must hit at tiny scale"
        cube = session.cube()
        root = cube.root()
        assert set(root.doc_ids) == set(session.result.doc_ids())
        children = cube.drill_down(root, "department")
        for child in children.values():
            assert _terms(child.cloud) == _terms(_cold(cube, child))

    def test_cloudsearch_cube_accepts_a_result(self, app):
        result, _cloud = app.cloudsearch.search("data")
        cube = app.cloudsearch.cube(result=result)
        assert set(cube.root().doc_ids) == set(result.doc_ids())


class TestVersionInvalidation:
    def test_dml_rotates_the_cell_memo(self, app):
        from repro.courserank.accounts import Role

        cube = app.cloudsearch.cube()
        cube.root()
        cold = cube.stats["cold_builds"]
        cube.root()
        assert cube.stats["cold_builds"] == cold  # memo hit, same version
        user = app.accounts.register("cubewriter", Role.STUDENT, person_id=2)
        app.comment_on_course(
            user, 1, "an invalidation probe comment", 4.0
        )
        cube.root()
        assert cube.stats["cold_builds"] == cold + 1  # version rotated

    def test_memo_holds_one_generation_however_many_writes(self, app):
        """Writes between walks must not strand the cells they retire."""
        from repro.courserank.accounts import Role

        def walk(cube):
            root = cube.root()
            children = cube.drill_down(root, "department")
            for child in children.values():
                cube.roll_up(child)
            return 1 + len(children)

        cube = app.cloudsearch.cube()
        cells = walk(cube)
        assert len(cube._cells) == cells
        hits = cube.stats["memo_hits"]
        walk(cube)  # same generation: each cell and each roll-up is a hit
        assert cube.stats["memo_hits"] == hits + cells + (cells - 1)
        user = app.accounts.register("memowriter", Role.STUDENT, person_id=3)
        for round_number in range(4):
            app.comment_on_course(user, 2, f"memo probe {round_number}", 3.0)
            cube.root()
            assert len(cube._cells) == 1
            assert walk(cube) == cells
            assert len(cube._cells) == cells

    def test_custom_dimension_reflects_new_rows(self, app):
        spec = DimensionSpec(
            name="unit-bucket",
            sql="SELECT CourseID, Units FROM Courses",
            tables=("Courses",),
        )
        cube = CloudCube(
            app.db, app.cloudsearch.builder, dimensions=(spec,)
        )
        root = cube.root()
        values = cube.dimension_values(root, "unit-bucket")
        assert values
        covered = set()
        for value in values:
            covered.update(cube.slice(root, "unit-bucket", value).doc_ids)
        membership = membership_for(app.db, spec)
        assert covered == {
            doc_id for doc_id in root.doc_ids if membership.get(doc_id)
        }


class TestRandomWalks:
    @given(
        choices=st.lists(
            st.tuples(
                st.sampled_from(["department", "quarter", "instructor"]),
                st.integers(min_value=0, max_value=7),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(deadline=None)
    def test_any_walk_stays_bit_identical_to_cold_builds(
        self, app, choices
    ):
        cube = app.cloudsearch.cube()
        cell = cube.root()
        for dimension, index, go_up in choices:
            if go_up and cell.coordinate:
                cell = cube.roll_up(cell)
                continue
            if any(fixed == dimension for fixed, _ in cell.coordinate):
                continue
            values = cube.dimension_values(cell, dimension)
            if not values:
                continue
            cell = cube.slice(cell, dimension, values[index % len(values)])
            assert _terms(cell.cloud) == _terms(_cold(cube, cell))
