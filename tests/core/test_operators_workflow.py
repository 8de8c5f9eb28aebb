"""Unit tests for workflow operators: schemas, validation, rendering."""

import pytest

from repro.errors import FlexRecsError, WorkflowValidationError
from repro.core import (
    EqualityMatch,
    InverseEuclidean,
    NumericCloseness,
    SetJaccard,
    TextJaccard,
    VectorLookup,
    Workflow,
    make_comparator,
)
from repro.core.operators import (
    GraphRecommend,
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


class TestOutputColumns:
    def test_source(self, flexdb):
        columns = Source("Students").output_columns(flexdb)
        assert columns == ["SuID", "Name", "Class", "Major", "GPA"]

    def test_sql_source(self, flexdb):
        node = SqlSource("SELECT SuID, GPA FROM Students")
        assert node.output_columns(flexdb) == ["SuID", "GPA"]

    def test_sql_source_rejects_non_select(self, flexdb):
        node = SqlSource("DELETE FROM Students")
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_select_passthrough(self, flexdb):
        node = Select(Source("Students"), "GPA > 3.0")
        assert node.output_columns(flexdb) == Source("Students").output_columns(flexdb)

    def test_project(self, flexdb):
        node = Project(Source("Students"), ("suid", "gpa"))
        assert node.output_columns(flexdb) == ["SuID", "GPA"]

    def test_project_unknown_column(self, flexdb):
        node = Project(Source("Students"), ("Nope",))
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_join_concatenates(self, flexdb):
        node = Join(
            Project(Source("Students"), ("SuID", "Name")),
            Project(Source("Enrollments"), ("CourseID", "Grade")),
            left_on="SuID",
            right_on="CourseID",
        )
        assert node.output_columns(flexdb) == ["SuID", "Name", "CourseID", "Grade"]

    def test_join_collision_rejected(self, flexdb):
        node = Join(
            Source("Students"), Source("Enrollments"), "SuID", "SuID"
        )
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_extend_keeps_columns(self, flexdb):
        node = extend(
            Source("Students"),
            attribute="ratings",
            source_table="Comments",
            source_key="SuID",
            key_column="SuID",
            value_column="Rating",
            map_column="CourseID",
        )
        assert node.output_columns(flexdb) == Source("Students").output_columns(flexdb)
        assert node.extend_infos(flexdb)[0].attribute == "ratings"

    def test_extend_attribute_collision(self, flexdb):
        node = extend(
            Source("Students"),
            attribute="GPA",
            source_table="Comments",
            source_key="SuID",
            key_column="SuID",
            value_column="Rating",
        )
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_project_drops_extend_when_key_projected_away(self, flexdb):
        extended = extend(
            Source("Students"),
            attribute="ratings",
            source_table="Comments",
            source_key="SuID",
            key_column="SuID",
            value_column="Rating",
            map_column="CourseID",
        )
        kept = Project(extended, ("SuID", "GPA"))
        dropped = Project(extended, ("GPA",))
        assert len(kept.extend_infos(flexdb)) == 1
        assert dropped.extend_infos(flexdb) == []

    def test_recommend_appends_score(self, flexdb):
        node = Recommend(
            target=Source("Students"),
            reference=Select(Source("Students"), "SuID = 444"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
        )
        assert node.output_columns(flexdb)[-1] == "score"

    def test_recommend_score_collision(self, flexdb):
        node = Recommend(
            target=Source("Students"),
            reference=Source("Students"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
            score_column="GPA",
        )
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_recommend_bad_aggregate(self, flexdb):
        node = Recommend(
            target=Source("Students"),
            reference=Source("Students"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
            aggregate="median",
        )
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_recommend_bad_target_key(self, flexdb):
        node = Recommend(
            target=Source("Students"),
            reference=Source("Students"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="Nope",
        )
        with pytest.raises(WorkflowValidationError):
            node.output_columns(flexdb)

    def test_topk_validates_column(self, flexdb):
        good = TopK(Source("Students"), 3, "GPA")
        assert good.output_columns(flexdb) == Source("Students").output_columns(flexdb)
        with pytest.raises(WorkflowValidationError):
            TopK(Source("Students"), 3, "Nope").output_columns(flexdb)
        with pytest.raises(WorkflowValidationError):
            TopK(Source("Students"), 0, "GPA").output_columns(flexdb)


class TestWorkflowValidation:
    def test_vector_comparator_needs_extend(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=InverseEuclidean("ratings", "ratings"),
                target_key="SuID",
            )
        )
        with pytest.raises(WorkflowValidationError, match="Extend"):
            workflow.validate(flexdb)

    def test_lookup_needs_reference_vector(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Source("Students"),
                comparator=VectorLookup("CourseID", "ratings"),
                target_key="CourseID",
            )
        )
        with pytest.raises(WorkflowValidationError):
            workflow.validate(flexdb)

    def test_scalar_comparator_needs_columns(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=NumericCloseness("Nope", "GPA"),
                target_key="SuID",
            )
        )
        with pytest.raises(WorkflowValidationError):
            workflow.validate(flexdb)

    def test_exclude_self_columns_checked(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Source("Students"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                exclude_self=("Nope", "SuID"),
            )
        )
        with pytest.raises(WorkflowValidationError):
            workflow.validate(flexdb)

    def test_valid_workflow_returns_columns(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), "SuID = 444"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
            )
        )
        columns = workflow.validate(flexdb)
        assert columns[-1] == "score"

    def test_explain_renders_tree(self, flexdb):
        workflow = Workflow(
            Recommend(
                target=Source("Courses"),
                reference=Select(Source("Courses"), "CourseID = 1"),
                comparator=TextJaccard("Title", "Title"),
                target_key="CourseID",
            )
        )
        text = workflow.explain()
        assert "Recommend" in text
        assert "Source(Courses)" in text
        assert "Select(CourseID = 1)" in text

    def test_explain_names_every_leaf_and_join(self):
        workflow = Workflow(
            Join(
                Project(SqlSource("SELECT SuID FROM Students"), ("SuID",)),
                Join(
                    MaterializedSource("stage_1", (("CourseID", None),)),
                    GraphRecommend((("user", 444),), top_k=3),
                    "CourseID",
                    "CourseID",
                ),
                "SuID",
                "CourseID",
            )
        )
        assert workflow.explain().splitlines() == [
            "Join(SuID = CourseID)",
            "  Project(SuID)",
            "    SqlSource('SELECT SuID FROM Students')",
            "  Join(CourseID = CourseID)",
            "    MaterializedSource(stage_1)",
            "    GraphRecommend[user:444 top_k=3]",
        ]


class TestComparatorFactory:
    def test_make_by_name(self):
        comparator = make_comparator("text_jaccard", "Title", "Title")
        assert isinstance(comparator, TextJaccard)

    def test_unknown_name(self):
        with pytest.raises(FlexRecsError):
            make_comparator("nope", "a", "b")

    def test_numeric_closeness_scale_validation(self):
        with pytest.raises(FlexRecsError):
            NumericCloseness("a", "b", scale=0)

    def test_set_comparator_rejects_vectors(self):
        comparator = SetJaccard("taken", "taken")
        with pytest.raises(FlexRecsError):
            comparator.score({"taken": {1: 2.0}}, {"taken": {1}})

    def test_vector_comparator_rejects_sets(self):
        comparator = InverseEuclidean("ratings", "ratings")
        with pytest.raises(FlexRecsError):
            comparator.score({"ratings": {1}}, {"ratings": {1}})

    def test_case_insensitive_attribute_access(self):
        comparator = EqualityMatch("term", "TERM")
        assert comparator.score({"Term": "Aut"}, {"Term": "Aut"}) == 1.0

    def test_missing_attribute_message(self):
        comparator = EqualityMatch("Nope", "Term")
        with pytest.raises(FlexRecsError, match="Nope"):
            comparator.score({"Term": "Aut"}, {"Term": "Aut"})
