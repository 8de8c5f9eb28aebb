"""The service's recommendation memo retires on what the strategy reads.

An entry is valid while the tables its workflow reads
(``Workflow.tables_read``) keep their versions: a comment — which writes
``Comments`` and the incentive tables — must not cost a shard the
``related_courses`` answers that read ``Courses`` alone, and a write to a
table a strategy does read must.
"""

import os

import pytest

from repro.core import strategies
from repro.courserank.accounts import Role
from repro.courserank.recommendations import RecommendationService
from repro.datagen import generate_university
from repro.service import CourseRankService

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "3"))


@pytest.fixture()
def service():
    return CourseRankService(
        generate_university(scale="tiny", seed=5), num_shards=REPRO_SHARDS
    )


@pytest.fixture()
def runs(monkeypatch):
    """Names of the strategies the shard facades actually ran."""
    calls = []
    run_workflow = RecommendationService.run_workflow

    def counting(self, workflow, path="direct"):
        calls.append(workflow.name.partition("(")[0])
        return run_workflow(self, workflow, path)

    monkeypatch.setattr(RecommendationService, "run_workflow", counting)
    return calls


def _rows(recommendation):
    return [tuple(sorted(row.items())) for row in recommendation.rows]


def test_a_comment_keeps_what_does_not_read_comments(service, runs):
    course_id = 1
    shard = service.sharded.shard_of_course(course_id)
    user = service.apps[shard].accounts.register("memo", Role.STUDENT, person_id=1)
    names = ("related_courses", "courses_taken_together", "similar_audience_courses")
    first = {name: service.recommend(name, course_id=course_id) for name in names}
    offered = service.recommend("related_courses", course_id=course_id, offered_year=2008)
    assert len(runs) == 4
    service.comment_on_course(user, course_id, "telescopes all the way down", 4.0)
    del runs[:]
    for name in names:
        assert service.recommend(name, course_id=course_id) is first[name]
    assert runs == []
    # SQL text in the workflow: the tables cannot be told, so any write counts
    again = service.recommend("related_courses", course_id=course_id, offered_year=2008)
    assert runs == ["related_courses"] and again is not offered


def test_a_write_to_a_table_the_strategy_reads_is_a_miss(service, runs):
    course_id = 1
    shard = service.sharded.shard_of_course(course_id)
    database = service.sharded.shards[shard]
    before = service.recommend("similar_audience_courses", course_id=course_id)
    titles = service.recommend("related_courses", course_id=course_id)
    enrolled = set(
        database.query(
            "SELECT SuID FROM Enrollments WHERE CourseID = ?", (course_id,)
        ).column("SuID")
    )
    newcomer = next(
        suid
        for suid in database.query(
            "SELECT DISTINCT SuID FROM Enrollments ORDER BY SuID"
        ).column("SuID")
        if suid not in enrolled
    )
    with service.rwlock.write_locked():
        database.execute(
            "INSERT INTO Enrollments VALUES (?, ?, 2008, 'Aut', 'A')",
            (newcomer, course_id),
        )
    del runs[:]
    after = service.recommend("similar_audience_courses", course_id=course_id)
    assert runs == ["similar_audience_courses"] and after is not before
    assert service.recommend("related_courses", course_id=course_id) is titles
    # and the miss was answered from the written table, not from a stale relation
    fresh = service.apps[shard].recommendations.run(
        "similar_audience_courses", path="sql", course_id=course_id
    )
    assert [row["CourseID"] for row in after.rows] == [
        row["CourseID"] for row in fresh.rows
    ]
    assert service.recommend("similar_audience_courses", course_id=course_id) is after


def test_other_shards_and_other_parameters_are_other_entries(service, runs):
    first = service.recommend("related_courses", course_id=1)
    assert service.recommend("related_courses", course_id=1, top_k=3) is not first
    assert len(service.recommend("related_courses", course_id=1, top_k=3).rows) <= 3
    assert service.recommend("related_courses", course_id=2) is not first
    assert runs == ["related_courses"] * 3
    assert _rows(service.recommend("related_courses", course_id=1)) == _rows(first)


def test_a_miss_builds_its_workflow_once_and_a_hit_not_at_all(service):
    built = []

    def counting(course_id, top_k=10):
        built.append(course_id)
        return strategies.related_courses(course_id, top_k=top_k)

    for app in service.apps:
        app.recommendations.register("counting", counting)
    first = service.recommend("counting", course_id=1)
    assert built == [1]
    assert service.recommend("counting", course_id=1) is first
    assert built == [1]
    service.recommend("counting", course_id=2, top_k=3)
    assert built == [1, 2]
