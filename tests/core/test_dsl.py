"""Tests for the textual workflow language."""

import pytest

from repro.errors import FlexRecsError
from repro.core.dsl import parse_workflow
from repro.core.operators import (
    Extend,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
)

CF_TEXT = """
source Courses
| recommend against (
    source Students
    | extend ratings from Comments key SuID = SuID map CourseID value Rating
    | filter [SuID = 444]
  ) using vector_lookup(CourseID, ratings) key CourseID agg avg top 10
"""


class TestStageParsing:
    def test_source(self):
        workflow = parse_workflow("source Students")
        assert isinstance(workflow.root, Source)
        assert workflow.root.table == "Students"

    def test_sql_source(self):
        workflow = parse_workflow("sql [SELECT SuID FROM Students]")
        assert isinstance(workflow.root, SqlSource)
        assert workflow.root.sql == "SELECT SuID FROM Students"

    def test_filter(self):
        workflow = parse_workflow("source Students | filter [GPA > 3.0]")
        assert isinstance(workflow.root, Select)
        assert workflow.root.condition == "GPA > 3.0"

    def test_project(self):
        workflow = parse_workflow("source Students | project SuID, GPA")
        assert isinstance(workflow.root, Project)
        assert workflow.root.columns == ("SuID", "GPA")
        assert not workflow.root.distinct

    def test_project_distinct(self):
        workflow = parse_workflow("source Students | project distinct Major")
        assert workflow.root.distinct

    def test_extend_vector(self):
        workflow = parse_workflow(
            "source Students | extend ratings from Comments "
            "key SuID = SuID map CourseID value Rating"
        )
        info = workflow.root.info
        assert info.attribute == "ratings"
        assert info.map_column == "CourseID"
        assert info.is_vector

    def test_extend_set(self):
        workflow = parse_workflow(
            "source Students | extend taken from Enrollments "
            "key SuID = SuID value CourseID"
        )
        assert not workflow.root.info.is_vector

    def test_topk(self):
        workflow = parse_workflow("source Students | topk 5 by GPA")
        assert isinstance(workflow.root, TopK)
        assert workflow.root.k == 5
        assert workflow.root.descending

    def test_topk_ascending(self):
        workflow = parse_workflow("source Students | topk 5 by GPA asc")
        assert not workflow.root.descending

    def test_parenthesized_pipeline_head(self):
        workflow = parse_workflow("( source Students | filter [GPA > 3] )")
        assert isinstance(workflow.root, Select)


class TestRecommendParsing:
    def test_full_recommend(self):
        workflow = parse_workflow(CF_TEXT)
        root = workflow.root
        assert isinstance(root, Recommend)
        assert root.comparator.name == "vector_lookup"
        assert root.aggregate == "avg"
        assert root.top_k == 10
        assert root.target_key == "CourseID"
        assert isinstance(root.reference, Select)

    def test_comparator_parameters(self):
        workflow = parse_workflow(
            "source Students | recommend against (source Students) "
            "using numeric_closeness(GPA, GPA, scale=0.5) key SuID"
        )
        assert workflow.root.comparator.scale == 0.5

    def test_exclude_clause(self):
        workflow = parse_workflow(
            "source Students | recommend against (source Students) "
            "using numeric_closeness(GPA, GPA) key SuID exclude SuID = SuID"
        )
        assert workflow.root.exclude_self == ("SuID", "SuID")

    def test_score_column_option(self):
        workflow = parse_workflow(
            "source Students | recommend against (source Students) "
            "using numeric_closeness(GPA, GPA) key SuID score sim"
        )
        assert workflow.root.score_column == "sim"

    def test_stacked_recommends(self):
        text = """
        source Courses
        | recommend against (
            source Students
            | extend ratings from Comments key SuID = SuID map CourseID value Rating
            | recommend against (
                source Students
                | extend ratings from Comments key SuID = SuID map CourseID value Rating
                | filter [SuID = 444]
              ) using inverse_euclidean(ratings, ratings) key SuID score sim top 5
          ) using vector_lookup(CourseID, ratings) key CourseID agg avg top 10
        """
        workflow = parse_workflow(text)
        assert isinstance(workflow.root, Recommend)
        assert isinstance(workflow.root.reference, Recommend)


class TestExecution:
    def test_dsl_workflow_runs_both_paths(self, flexdb):
        workflow = parse_workflow(CF_TEXT)
        direct = workflow.run(flexdb)
        compiled = workflow.run_sql(flexdb)
        assert direct.column("CourseID") == compiled.column("CourseID")
        assert len(direct) > 0

    def test_equivalent_to_python_strategy(self, flexdb):
        from repro.core import strategies

        text = """
        source Students
        | recommend against ( source Students | filter [SuID = 444] )
          using numeric_closeness(GPA, GPA, scale=0.5) key SuID
          top 20 exclude SuID = SuID
        """
        dsl_result = parse_workflow(text).run(flexdb)
        python_result = strategies.similar_grade_students(444, top_k=20).run(flexdb)
        assert dsl_result.column("SuID") == python_result.column("SuID")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "filter [x = 1]",  # no upstream
            "source Students | source Courses",  # source mid-pipeline
            "source Students | filter",  # missing predicate
            "source Students | filter []",  # empty predicate
            "source Students | project",  # missing columns
            "source Students | topk x by GPA",  # non-numeric k
            "source Students | nonsense",
            "source Students | recommend using x(a, b) key SuID",  # no against
            "source Students | recommend against (source S) "
            "using nope(a, b) key SuID",  # unknown comparator
            "source Students extra",  # trailing garbage
            "source Students | recommend against (source S) "
            "using numeric_closeness(GPA, GPA, scale=abc) key SuID",
        ],
    )
    def test_bad_workflows_rejected(self, bad):
        with pytest.raises(FlexRecsError):
            parse_workflow(bad)


class TestServiceRegistration:
    def test_register_dsl_with_placeholders(self, flexdb):
        from repro.courserank.recommendations import RecommendationService

        service = RecommendationService(flexdb)
        service.register_dsl(
            "buddies",
            "source Students | recommend against "
            "( source Students | filter [SuID = {student_id}] ) "
            "using numeric_closeness(GPA, GPA) key SuID top {top_k} "
            "exclude SuID = SuID",
        )
        result = service.run("buddies", student_id=444, top_k=2)
        assert len(result) == 2
        assert result.rows[0]["SuID"] == 445

    def test_register_dsl_validates_syntax_eagerly(self, flexdb):
        from repro.courserank.recommendations import RecommendationService

        service = RecommendationService(flexdb)
        with pytest.raises(FlexRecsError):
            service.register_dsl("broken", "source Students | nonsense")

    def test_staged_and_optimized_paths_via_service(self, flexdb):
        from repro.core.optimizer import optimize
        from repro.courserank.recommendations import RecommendationService

        service = RecommendationService(flexdb)
        base = service.run(
            "collaborative_filtering", student_id=444,
            similar_students=2, top_k=5, path="direct",
        )
        staged = service.run(
            "collaborative_filtering", student_id=444,
            similar_students=2, top_k=5, path="staged",
        )
        optimized = service.run_workflow(
            optimize(
                service.build(
                    "collaborative_filtering", student_id=444,
                    similar_students=2, top_k=5,
                ),
                flexdb,
            ),
            path="sql",
        )
        assert base.column("CourseID") == staged.column("CourseID")
        assert base.column("CourseID") == optimized.column("CourseID")
