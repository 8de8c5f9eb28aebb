"""Tests for workflow → SQL compilation."""

import pytest

from repro.errors import CompilationError
from repro.core import (
    InverseEuclidean,
    NumericCloseness,
    SetJaccard,
    TextJaccard,
    VectorLookup,
    Workflow,
    compile_workflow,
)
from repro.core.operators import (
    Project,
    Recommend,
    Select,
    Source,
    TopK,
    extend,
)


def students_with_ratings():
    return extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    )


class TestCompilationArtifacts:
    def test_source_compiles_to_select(self, flexdb):
        workflow = Workflow(Source("Students"))
        compiled = compile_workflow(workflow, flexdb)
        assert compiled.sql.startswith("SELECT")
        assert "FROM Students" in compiled.sql
        assert compiled.columns == ["SuID", "Name", "Class", "Major", "GPA"]

    def test_compiled_sql_is_parseable_and_runs(self, flexdb):
        workflow = Workflow(
            TopK(Select(Source("Students"), "GPA > 3.0"), 2, "GPA")
        )
        compiled = compile_workflow(workflow, flexdb)
        result = flexdb.query(compiled.sql)
        assert len(result) == 2

    def test_scalar_comparator_inlines_no_udf(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), "SuID = 444"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        assert compiled.udfs == ()
        assert "ABS(" in compiled.sql
        assert "GROUP BY" in compiled.sql

    def test_udf_comparator_registers_function(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Select(Source("Courses"), "CourseID = 1"),
                comparator=TextJaccard("Title", "Title"),
                target_key="CourseID",
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        assert "frx_text_jaccard" in dict(compiled.udfs)
        assert flexdb.functions.has_scalar("frx_text_jaccard")
        assert "FRX_TEXT_JACCARD(" in compiled.sql

    def test_vector_comparator_compiles_corated_join(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=Select(students_with_ratings(), "SuID = 444"),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        # The extend never materializes; the math is in SQL aggregates.
        assert "SQRT(SUM(" in compiled.sql
        assert "Comments" in compiled.sql
        assert compiled.udfs == ()

    def test_vector_without_extend_fails(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
            )
        )
        # validate() catches it first; compile directly to test the
        # compiler's own guard.
        with pytest.raises(CompilationError):
            compile_workflow(workflow, flexdb)

    def test_vector_exclude_self_requires_key_columns(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=students_with_ratings(),
                reference=students_with_ratings(),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
                exclude_self=("Name", "Name"),
            )
        )
        with pytest.raises(CompilationError):
            compile_workflow(workflow, flexdb)

    def test_lookup_requires_vector(self, flexdb):
        taken_set = extend(
            Source("Students"), "taken", "Enrollments", "SuID", "SuID",
            "CourseID",
        )
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=taken_set,
                comparator=VectorLookup("CourseID", "taken"),
                target_key="CourseID",
            )
        )
        with pytest.raises(CompilationError):
            compile_workflow(workflow, flexdb)

    def test_having_guards_generated(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                aggregate="count",
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        assert "HAVING COUNT(" in compiled.sql
        assert "> 0" in compiled.sql

    def test_order_and_limit_generated(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                top_k=3,
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        assert "ORDER BY score DESC" in compiled.sql
        assert compiled.sql.rstrip().endswith("LIMIT 3")

    def test_to_sql_convenience(self, flexdb):
        workflow = Workflow(Source("Courses"))
        assert workflow.to_sql(flexdb) == compile_workflow(workflow, flexdb).sql

    def test_set_comparator_compiles_distinct_values(self, flexdb):
        taken = extend(
            Source("Students"), "taken", "Enrollments", "SuID", "SuID",
            "CourseID",
        )
        workflow = Workflow(
            Recommend(
                target=taken,
                reference=Select(
                    extend(
                        Source("Students"), "taken", "Enrollments", "SuID",
                        "SuID", "CourseID",
                    ),
                    "SuID = 444",
                ),
                comparator=SetJaccard("taken", "taken"),
                target_key="SuID",
                exclude_self=("SuID", "SuID"),
            )
        )
        compiled = compile_workflow(workflow, flexdb)
        assert "SELECT DISTINCT" in compiled.sql
        result = flexdb.query(compiled.sql)
        assert len(result) > 0
