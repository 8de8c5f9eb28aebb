"""Tests for the CourseCloudSearch wiring (search + clouds + resolution)."""

import pytest

from repro.courserank.cloudsearch import CourseCloudSearch
from repro.datagen import generate_university


@pytest.fixture(scope="module")
def search():
    service = CourseCloudSearch(generate_university(scale="tiny", seed=42))
    service.build()
    return service


class TestBuild:
    def test_build_counts(self, search):
        assert search.engine.document_count == 48

    def test_lazy_build(self):
        service = CourseCloudSearch(generate_university(scale="tiny", seed=42))
        # search() triggers the build transparently.
        result, _cloud = service.search("design")
        assert service.engine.document_count == 48


class TestSearch:
    def test_search_returns_pair(self, search):
        result, cloud = search.search("programming")
        assert cloud.result_size == len(result)

    def test_limit_truncates_hits_not_cloud(self, search):
        full, full_cloud = search.search("design")
        if len(full) <= 1:
            pytest.skip("need multiple hits at this scale")
        limited, limited_cloud = search.search("design", limit=1)
        assert len(limited) == 1
        # The cloud still summarizes the whole result set.
        assert limited_cloud.result_size == full_cloud.result_size

    def test_count(self, search):
        result, _cloud = search.search("circuits")
        assert result.candidate_count == len(result)


class TestResolution:
    def test_resolve_preserves_rank_order(self, search):
        result, _cloud = search.search("design")
        resolved = search.resolve_courses(result, limit=10)
        scores = [row["score"] for row in resolved]
        assert scores == sorted(scores, reverse=True)

    def test_resolve_includes_department(self, search):
        result, _cloud = search.search("design")
        for row in search.resolve_courses(result, limit=3):
            assert row["Department"]

    def test_resolve_empty_result(self, search):
        result, _cloud = search.search("zzzznope")
        assert search.resolve_courses(result) == []


class TestSession:
    def test_session_starts_at_query(self, search):
        session = search.session("design")
        assert session.depth == 0
        assert session.query == "design"

    def test_session_refines_with_cloud_terms(self, search):
        session = search.session("design")
        if not session.cloud.terms:
            pytest.skip("empty cloud at tiny scale")
        before = len(session.result)
        session.refine(session.cloud.terms[0].term)
        assert len(session.result) <= before
