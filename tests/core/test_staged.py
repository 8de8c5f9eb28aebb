"""Tests for staged compilation (the sequence-of-SQL-calls form)."""

import pytest

from repro.core import (
    InverseEuclidean,
    NumericCloseness,
    VectorLookup,
    Workflow,
    strategies,
)
from repro.core.operators import (
    Join,
    MaterializedSource,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
    extend,
)
from repro.core.compiler import _Compiler
from repro.core.staged import (
    compile_workflow_staged,
    operator_schema,
    run_staged,
)
from repro.datagen import generate_university
from repro.minidb.types import DataType


class TestOperatorSchema:
    def test_source_schema(self, flexdb):
        schema = operator_schema(Source("Students"), flexdb)
        assert schema[0] == ("SuID", DataType.INTEGER)
        assert ("GPA", DataType.FLOAT) in schema

    def test_select_topk_extend_passthrough(self, flexdb):
        base = operator_schema(Source("Students"), flexdb)
        assert operator_schema(
            Select(Source("Students"), "GPA > 3"), flexdb
        ) == base
        assert operator_schema(TopK(Source("Students"), 2, "GPA"), flexdb) == base
        extended = extend(
            Source("Students"), "ratings", "Comments", "SuID", "SuID",
            "Rating", "CourseID",
        )
        assert operator_schema(extended, flexdb) == base

    def test_project_subsets(self, flexdb):
        schema = operator_schema(
            Project(Source("Students"), ("SuID", "GPA")), flexdb
        )
        assert schema == [("SuID", DataType.INTEGER), ("GPA", DataType.FLOAT)]

    def test_join_concatenates(self, flexdb):
        node = Join(
            Project(Source("Students"), ("SuID",)),
            Project(Source("Courses"), ("CourseID", "Units")),
            "SuID",
            "CourseID",
        )
        schema = operator_schema(node, flexdb)
        assert [name for name, _t in schema] == ["SuID", "CourseID", "Units"]

    def test_recommend_appends_score_type(self, flexdb):
        node = Recommend(
            target=Source("Students"),
            reference=Source("Students"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
        )
        assert operator_schema(node, flexdb)[-1] == ("score", DataType.FLOAT)
        counted = Recommend(
            target=Source("Students"),
            reference=Source("Students"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
            aggregate="count",
        )
        assert operator_schema(counted, flexdb)[-1] == ("score", DataType.INTEGER)

    def test_sql_source_probed(self, flexdb):
        node = SqlSource("SELECT SuID, GPA * 2 AS double_gpa FROM Students")
        schema = operator_schema(node, flexdb)
        assert schema == [
            ("SuID", DataType.INTEGER),
            ("double_gpa", DataType.FLOAT),
        ]

    def test_sql_source_all_null_falls_back_to_text(self, flexdb):
        node = SqlSource("SELECT NULL AS nothing FROM Students")
        schema = operator_schema(node, flexdb)
        assert schema == [("nothing", DataType.TEXT)]

    def test_materialized_source_schema(self, flexdb):
        node = MaterializedSource(
            "tmp", (("a", DataType.INTEGER), ("b", DataType.TEXT))
        )
        assert operator_schema(node, flexdb) == [
            ("a", DataType.INTEGER),
            ("b", DataType.TEXT),
        ]


class TestStagedCompilation:
    def test_single_recommend_two_stages(self, flexdb):
        workflow = strategies.similar_grade_students(444, top_k=3)
        staged = compile_workflow_staged(workflow, flexdb)
        # One CREATE + one INSERT + final SELECT.
        assert staged.statement_count == 3
        assert staged.stages[0].startswith("CREATE TABLE __frx_stage_")
        assert staged.stages[1].startswith("INSERT INTO __frx_stage_")

    def test_stacked_recommends_four_stages(self, flexdb):
        workflow = strategies.collaborative_filtering(444, similar_students=2)
        staged = compile_workflow_staged(workflow, flexdb)
        assert len(staged.temp_tables) == 2
        assert staged.statement_count == 5

    def test_staged_matches_direct(self, flexdb):
        workflow = strategies.collaborative_filtering(
            444, similar_students=2, top_k=5
        )
        staged_result = run_staged(workflow, flexdb)
        direct = workflow.run(flexdb)
        assert staged_result.columns == direct.columns
        assert len(staged_result) == len(direct)
        for left, right in zip(staged_result.rows, direct.rows):
            assert left["CourseID"] == right["CourseID"]
            assert left["score"] == pytest.approx(right["score"])

    def test_temp_tables_cleaned_up(self, flexdb):
        workflow = strategies.collaborative_filtering(444, similar_students=2)
        staged = compile_workflow_staged(workflow, flexdb)
        staged.run(flexdb)
        for table_name in staged.temp_tables:
            assert not flexdb.has_table(table_name)

    def test_temp_tables_cleaned_up_on_error(self, flexdb):
        workflow = strategies.similar_grade_students(444)
        staged = compile_workflow_staged(workflow, flexdb)
        # Sabotage the final select.
        staged.final_select = "SELECT * FROM no_such_table"
        with pytest.raises(Exception):
            staged.run(flexdb)
        for table_name in staged.temp_tables:
            assert not flexdb.has_table(table_name)

    def test_script_rendering(self, flexdb):
        workflow = strategies.similar_grade_students(444)
        staged = compile_workflow_staged(workflow, flexdb)
        script = staged.script()
        assert script.count(";") == staged.statement_count
        assert "CREATE TABLE" in script

    def test_every_strategy_staged_equals_direct(self, flexdb):
        cases = [
            strategies.related_courses(1, top_k=5),
            strategies.collaborative_filtering(444, similar_students=2, top_k=5),
            strategies.recommended_majors(444),
            strategies.courses_taken_together(1, top_k=5),
        ]
        for workflow in cases:
            direct = workflow.run(flexdb)
            staged_result = run_staged(workflow, flexdb)
            key = direct.columns[0]
            assert staged_result.column(key) == direct.column(key), workflow.name


class TestColumnsMemo:
    """The compiler's column memo never serves one node's columns to another.

    It was keyed by ``id(node)``; the staged compiler frees throwaway nodes
    mid-compile, and a later node allocated at a freed node's address was
    served the dead node's columns (``UnknownColumnError: 'SuID'``).
    """

    def test_a_freed_node_never_serves_a_later_one(self, flexdb):
        compiler = _Compiler(flexdb)
        for _ in range(20):
            students = Project(Source("Students"), ("SuID", "GPA"))
            assert compiler._columns(students) == ["SuID", "GPA"]
            del students
            courses = Project(Source("Courses"), ("CourseID",))
            assert compiler._columns(courses) == ["CourseID"]

    def test_two_staged_compiles_in_a_row(self):
        db = generate_university(scale="small", seed=2008)
        student = db.query(
            "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
            "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
        ).scalar()
        cf = strategies.collaborative_filtering(
            student, similar_students=10, top_k=None
        )
        compile_workflow_staged(cf, db).run(db)
        wrapped = Workflow(TopK(Select(cf.root, "Units >= 3"), 10, "score"))
        staged = compile_workflow_staged(wrapped, db).run(db)
        assert staged.rows == wrapped.run_sql(db).rows
