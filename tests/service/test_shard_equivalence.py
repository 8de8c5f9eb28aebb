"""Sharded scatter-gather must answer bit-identically to the unsharded build.

The property at the heart of the service layer: for any shard count and
any generated population, merged per-shard search results, data clouds,
counts, and refinement sessions equal — float-for-float, bucket-for-
bucket — the answers of one unsharded engine over the union corpus.
``REPRO_SHARDS`` (see tests/conftest.py) pins the shard count CI legs
run with; the hypothesis property additionally sweeps shard counts.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.datagen import generate_university
from repro.service import CourseRankService

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "3"))


def _hits(result):
    return [(hit.doc_id, hit.score) for hit in result.hits]


def _terms(cloud):
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


QUERIES = [
    "programming",
    "systems design",
    '"machine learning"',
    "history",
    "data",
    "nonexistentzzz",
    "",
]


@pytest.fixture(scope="module")
def pair():
    base = CourseRank(generate_university(scale="tiny", seed=7))
    base.cloudsearch.build()
    service = CourseRankService(
        generate_university(scale="tiny", seed=7), num_shards=REPRO_SHARDS
    )
    return base, service


class TestSearchEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_hits_clouds_and_counts_match(self, pair, query):
        base, service = pair
        base_result, base_cloud = base.cloudsearch.search(query)
        svc_result, svc_cloud = service.search(query)
        assert _hits(base_result) == _hits(svc_result)
        assert _terms(base_cloud) == _terms(svc_cloud)
        # The merged match count is the sum of the disjoint shard counts.
        assert base_result.candidate_count == svc_result.candidate_count
        assert svc_result.candidate_count == len(svc_result.hits)

    def test_limit_truncates_after_the_merge(self, pair):
        base, service = pair
        base_result, base_cloud = base.cloudsearch.search("data", limit=3)
        svc_result, svc_cloud = service.search("data", limit=3)
        assert _hits(base_result) == _hits(svc_result)
        # Cloud summarizes the full result set on both sides.
        assert _terms(base_cloud) == _terms(svc_cloud)

    def test_repeat_query_hits_the_response_cache(self, pair):
        _, service = pair
        before = service.response_cache_info()
        first = service.search("programming")
        after_miss_or_hit = service.response_cache_info()
        second = service.search("programming")
        after = service.response_cache_info()
        assert after["hits"] > before["hits"] or (
            after["hits"] > after_miss_or_hit["hits"]
        )
        assert _hits(first[0]) == _hits(second[0])

    def test_every_course_routes_to_exactly_one_shard(self, pair):
        _, service = pair
        total = sum(service.sharded.course_counts())
        assert total == len(service.sharded.course_shard)


class TestSessionEquivalence:
    def test_refine_and_back_walk_identically(self, pair):
        base, service = pair
        base_session = base.cloudsearch.session("programming")
        svc_session = service.session("programming")
        assert base_session.cloud.terms, "test needs a non-empty cloud"
        for _ in range(2):
            term = base_session.cloud.terms[0].term
            base_step = base_session.refine(term)
            svc_step = svc_session.refine(term)
            assert base_session.query == svc_session.query
            assert _hits(base_step.result) == _hits(svc_step.result)
            assert _terms(base_step.cloud) == _terms(svc_step.cloud)
            if not base_session.cloud.terms:
                break
        base_session.back()
        svc_session.back()
        assert base_session.query == svc_session.query
        assert base_session.history() == svc_session.history()

    def test_back_at_depth_zero_raises_like_the_original(self, pair):
        from repro.errors import CloudError

        _, service = pair
        session = service.session("programming")
        with pytest.raises(CloudError):
            session.back()


class TestWritePathEquivalence:
    def test_comment_refreshes_and_stays_equivalent(self):
        base = CourseRank(generate_university(scale="tiny", seed=13))
        base.cloudsearch.build()
        service = CourseRankService(
            generate_university(scale="tiny", seed=13),
            num_shards=REPRO_SHARDS,
        )
        base_user = base.accounts.register("w", Role.STUDENT, person_id=1)
        course_id = 1
        shard = service.sharded.shard_of_course(course_id)
        svc_user = service.apps[shard].accounts.register(
            "w", Role.STUDENT, person_id=1
        )
        # The first read builds the shards' indexes, so the epochs below
        # are those of built indexes that the comment moves.
        service.search("spectrograph")
        epochs_before = service.navigator.epochs()
        text = "spectrograph nights were unforgettable"
        base.comment_on_course(base_user, course_id, text, 4.5)
        service.comment_on_course(svc_user, course_id, text, 4.5)
        assert service.navigator.epochs() != epochs_before
        for query in ("spectrograph", "unforgettable nights"):
            base_result, base_cloud = base.cloudsearch.search(query)
            svc_result, svc_cloud = service.search(query)
            assert _hits(base_result) == _hits(svc_result)
            assert _terms(base_cloud) == _terms(svc_cloud)


    def test_writes_before_the_first_read_show_in_it(self):
        """Comments and title edits on several shards of a service that
        has not built its indexes yet: its first search, session and
        cube answer as the unsharded facade that took the same writes
        on a built index."""
        base = CourseRank(generate_university(scale="tiny", seed=13))
        base.cloudsearch.build()
        service = CourseRankService(
            generate_university(scale="tiny", seed=13),
            num_shards=REPRO_SHARDS,
        )
        first_on_shard = {}
        for course_id in sorted(service.sharded.course_shard):
            shard = service.sharded.shard_of_course(course_id)
            first_on_shard.setdefault(shard, course_id)
        assert len(first_on_shard) > 1, "test needs several shards"
        base_user = base.accounts.register("w", Role.STUDENT, person_id=1)
        svc_users = [
            app.accounts.register("w", Role.STUDENT, person_id=1)
            for app in service.apps
        ]
        for shard, course_id in sorted(first_on_shard.items()):
            text = f"spectrograph nights on shard {shard}"
            base.comment_on_course(base_user, course_id, text, 4.5)
            service.comment_on_course(svc_users[shard], course_id, text, 4.5)
            title = f"Nocturne Optics {shard}"
            for app in (base, service.apps[shard]):
                with app.db.rwlock.write_locked():
                    app.db.execute(
                        "UPDATE Courses SET Title = ? WHERE CourseID = ?",
                        (title, course_id),
                    )
                    app.cloudsearch.refresh_course(course_id)
        assert service.observability()["service"]["indexed"] == (
            [False] * REPRO_SHARDS
        )
        for query in ("spectrograph", "nocturne optics", "nights"):
            base_result, base_cloud = base.cloudsearch.search(query)
            svc_result, svc_cloud = service.search(query)
            assert base_result.hits, f"{query!r} should match the writes"
            assert _hits(base_result) == _hits(svc_result)
            assert _terms(base_cloud) == _terms(svc_cloud)
        base_session = base.cloudsearch.session("nocturne")
        svc_session = service.session("nocturne")
        term = base_session.cloud.terms[0].term
        assert _hits(base_session.refine(term).result) == _hits(
            svc_session.refine(term).result
        )
        assert _terms(base_session.cloud) == _terms(svc_session.cloud)
        base_cube, svc_cube = base.cloudsearch.cube(), service.cube()
        base_cells = base_cube.drill_down(base_cube.root(), "department")
        svc_cells = svc_cube.drill_down(svc_cube.root(), "department")
        assert sorted(base_cells) == sorted(svc_cells)
        for value, base_cell in base_cells.items():
            assert sorted(svc_cells[value].doc_ids) == sorted(
                base_cell.doc_ids
            )
            assert _terms(svc_cells[value].cloud) == _terms(base_cell.cloud)


class TestShardCountIndependence:
    """The property of record: answers do not depend on the shard count."""

    @settings(max_examples=8, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=1, max_value=3),
        query=st.sampled_from(
            ["programming", "data systems", '"machine learning"', "theory"]
        ),
    )
    def test_any_shard_count_equals_unsharded(self, num_shards, seed, query):
        base = CourseRank(generate_university(scale="tiny", seed=seed))
        base.cloudsearch.build()
        service = CourseRankService(
            generate_university(scale="tiny", seed=seed),
            num_shards=num_shards,
        )
        base_result, base_cloud = base.cloudsearch.search(query)
        svc_result, svc_cloud = service.search(query)
        assert _hits(base_result) == _hits(svc_result)
        assert _terms(base_cloud) == _terms(svc_cloud)
        assert base_result.candidate_count == svc_result.candidate_count
        assert svc_result.candidate_count == len(svc_result.hits)
