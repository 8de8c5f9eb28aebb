"""Tests for cloud building, rendering, and refinement sessions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CloudError
from repro.clouds.cloud import CloudBuilder
from repro.clouds.refinement import RefinementSession
from repro.clouds.render import render_html, render_text
from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec
from tests.clouds.oracle import oracle_cloud


def make_engine(rows):
    database = Database()
    database.execute(
        "CREATE TABLE Docs (DocID INTEGER PRIMARY KEY, Title TEXT, Body TEXT)"
    )
    table = database.table("Docs")
    for doc_id, title, body in rows:
        table.insert([doc_id, title, body])
    entity = EntityDefinition(
        "doc",
        (
            FieldSpec("title", "SELECT DocID, Title FROM Docs", weight=3.0),
            FieldSpec("body", "SELECT DocID, Body FROM Docs", weight=1.0),
        ),
    )
    engine = SearchEngine(database, entity)
    engine.build()
    return engine


CORPUS = [
    (1, "American History", "the american revolution and the civil war"),
    (2, "Latin American Politics", "elections across latin american nations"),
    (3, "African American Studies", "african american culture and history"),
    (4, "American Music", "jazz blues and american composers"),
    (5, "Database Systems", "query processing transactions recovery"),
    (6, "European History", "empires wars and revolutions in europe"),
]


@pytest.fixture()
def engine():
    return make_engine(CORPUS)


@pytest.fixture()
def builder(engine):
    built = CloudBuilder(engine, scoring="popularity", min_result_df=1)
    built.prepare()
    return built


class TestCloudBuilder:
    def test_cloud_over_search_results(self, engine, builder):
        result = engine.search("american")
        cloud = builder.build(result)
        assert cloud.result_size == 4
        assert len(cloud) > 0

    def test_query_term_suppressed(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        assert cloud.find("american") is None

    def test_phrases_containing_query_term_survive(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        names = cloud.term_names()
        assert any("american" in name and name != "american" for name in names)

    def test_cross_document_terms_present(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        names = set(cloud.term_names())
        # "history" occurs in docs 1 and 3 of the result set.
        assert "history" in names

    def test_max_terms_cap(self, engine):
        capped = CloudBuilder(engine, max_terms=3, min_result_df=1)
        capped.prepare()
        cloud = capped.build(engine.search("american"))
        assert len(cloud) <= 3

    def test_buckets_monotone_with_rank(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        buckets = [term.bucket for term in cloud.terms]
        assert buckets == sorted(buckets, reverse=True)
        assert buckets[0] == 5

    def test_empty_result_empty_cloud(self, engine, builder):
        cloud = builder.build(engine.search("astrophysics"))
        assert len(cloud) == 0
        assert cloud.result_size == 0

    def test_min_result_df_filters_singletons(self, engine):
        strict = CloudBuilder(engine, min_result_df=2)
        strict.prepare()
        cloud = strict.build(engine.search("american"))
        assert all(term.result_df >= 2 for term in cloud.terms)

    def test_invalid_parameters(self, engine):
        with pytest.raises(CloudError):
            CloudBuilder(engine, max_terms=0)
        with pytest.raises(CloudError):
            CloudBuilder(engine, buckets=0)

    def test_find_and_top(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        top = cloud.top(2)
        assert len(top) == 2
        assert cloud.find(top[0].term) is not None
        assert cloud.find("no-such-term") is None

    def test_strategies_agree_on_exact_terms(self, engine):
        """The forward index and a rescan of the raw text (the oracle)."""
        forward = CloudBuilder(engine, min_result_df=1)
        forward.prepare()
        result = engine.search("american")
        assert forward.build(result).terms == oracle_cloud(
            forward,
            [forward.source],
            [result.doc_ids()],
            len(result),
            result.terms,
        )


class TestRefinement:
    def test_figure_3_4_walkthrough(self, engine, builder):
        """'american' → click a cloud term → narrowed results + new cloud."""
        session = RefinementSession(engine, builder, "american")
        initial_size = len(session.result)
        assert initial_size == 4
        step = session.refine("history")
        assert len(step.result) < initial_size
        assert step.result.doc_id_set() <= {1, 3}
        assert step.cloud is not session._steps[0].cloud

    def test_refinement_is_subset(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        before = session.result.doc_id_set()
        session.refine("history")
        assert session.result.doc_id_set() <= before

    def test_back_restores(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        first_query = session.query
        session.refine("history")
        session.back()
        assert session.query == first_query
        assert session.depth == 0

    def test_back_at_root_rejected(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        with pytest.raises(CloudError):
            session.back()

    def test_empty_refinement_term_rejected(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        with pytest.raises(CloudError):
            session.refine("   ")

    def test_history_and_reset(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        session.refine("history")
        assert session.history() == ["american", "american history"]
        session.reset("databases")
        assert session.depth == 0
        assert "databases" in session.query

    def test_multiword_cloud_term_refines(self, engine, builder):
        session = RefinementSession(engine, builder, "american")
        step = session.refine("african american")
        assert step.result.doc_id_set() == {3}

    @given(st.lists(st.sampled_from(["history", "culture", "jazz"]), max_size=3))
    def test_refinement_chain_monotone(self, terms):
        engine = make_engine(CORPUS)
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        previous = session.result.doc_id_set()
        for term in terms:
            session.refine(term)
            current = session.result.doc_id_set()
            assert current <= previous
            previous = current


class TestRendering:
    def test_render_text(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        text = render_text(cloud)
        assert "(" in text and ")" in text

    def test_render_text_empty(self, engine, builder):
        cloud = builder.build(engine.search("astrophysics"))
        assert render_text(cloud) == "(empty cloud)"

    def test_render_html_structure(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        html = render_html(cloud)
        assert html.startswith('<div class="data-cloud">')
        assert html.count("cloud-term") == len(cloud)
        assert "font-size" in html

    def test_render_html_escapes(self, engine, builder):
        cloud = builder.build(engine.search("american"))
        assert "<script" not in render_html(cloud)
