"""Which service requests build the shards' search and cloud indexes.

Constructing a ``CourseRankService`` splits the data and builds no
search or cloud index: the first request that reads a shard's index
builds it, once.  Course pages, FlexRecs recommendations, graph ranks
and comments read none, so a service that serves only those (the
``browse-recommend-miss`` and ``graph-rank`` traffic) never pays for
one.  Held as counts of ``SearchEngine.build`` calls, which do not move
with the host.
"""

import pytest

from repro.courserank.accounts import Role
from repro.datagen import generate_university
from repro.search.engine import SearchEngine
from repro.service import CourseRankService

SHARDS = 3

BROWSE_STRATEGIES = (
    "related_courses",
    "courses_taken_together",
    "similar_audience_courses",
)


@pytest.fixture()
def builds(monkeypatch):
    """Every engine a ``SearchEngine.build`` call builds, in call order."""
    built = []
    build = SearchEngine.build

    def counting_build(engine):
        built.append(engine)
        return build(engine)

    monkeypatch.setattr(SearchEngine, "build", counting_build)
    return built


def test_pages_recommends_ranks_and_comments_build_no_index(builds):
    service = CourseRankService(
        generate_university(scale="tiny", seed=5), num_shards=SHARDS
    )
    course_ids = sorted(service.sharded.course_shard)[:4]
    for course_id in course_ids:
        service.course_page(course_id)
        for strategy in BROWSE_STRATEGIES:
            service.recommend(strategy, course_id=course_id)
    assert service.recommend("graph_rank_courses", student_id=1, top_k=5).rows
    users = [
        app.accounts.register("w", Role.STUDENT, person_id=1)
        for app in service.apps
    ]
    course_id = course_ids[0]
    service.comment_on_course(
        users[service.sharded.shard_of_course(course_id)],
        course_id,
        "telescope nights",
        4.0,
    )
    assert builds == []
    assert service.observability()["service"]["indexed"] == [False] * SHARDS

    service.search("history")
    assert len(builds) == len({id(engine) for engine in builds}) == SHARDS
    service.session("data").refine("systems")
    service.cube().root()
    service.comment_on_course(
        users[service.sharded.shard_of_course(course_id)],
        course_id,
        "telescope mornings",
        4.0,
    )
    service.search("telescope")
    assert len(builds) == SHARDS
    assert service.observability()["service"]["indexed"] == [True] * SHARDS
