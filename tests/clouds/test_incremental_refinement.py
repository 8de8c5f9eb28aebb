"""Refinement clouds must equal from-scratch clouds.

A refined step's cloud comes from a builder that has already gathered the
parent (and whose gather cache may hold either).  These tests pin the
equivalence: for every strategy and scoring model, the session's cloud —
and ``TermSource.gather_narrowed``, which once derived it by subtracting
the dropped documents from the parent's counters — is term-for-term and
score-for-score identical to a cold ``forward``/``rescan`` build over the
same narrowed result set.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clouds.cloud import CloudBuilder
from repro.clouds.refinement import RefinementSession
from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec


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
    (4, "American Music", "jazz blues and american composers and history"),
    (5, "Database Systems", "query processing transactions recovery"),
    (6, "European History", "empires wars and revolutions in europe"),
    (7, "American Revolution", "revolution war and american independence history"),
    (8, "American Cinema", "film history and american directors"),
]


@pytest.fixture()
def engine():
    return make_engine(CORPUS)


def cloud_signature(cloud):
    """Everything that matters for equality: terms, scores, df, buckets."""
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


class TestGatherNarrowed:
    @pytest.mark.parametrize("strategy", ["forward", "rescan", "topk"])
    def test_narrowed_equals_from_scratch(self, engine, strategy):
        builder = CloudBuilder(engine, strategy=strategy, min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        builder.source.gather(parent.doc_ids())  # seed the parent cache
        child = engine.search("american history", within=parent.doc_id_set())
        narrowed = builder.source.gather_narrowed(
            parent.doc_ids(), child.doc_ids()
        )
        scratch = CloudBuilder(engine, strategy=strategy, min_result_df=1)
        scratch.prepare()
        direct = scratch.source.gather(child.doc_ids())
        as_tuples = lambda stats: sorted(
            (s.term, s.occurrences, s.result_df, s.corpus_df) for s in stats
        )
        assert as_tuples(narrowed) == as_tuples(direct)

    def test_fallback_without_parent_cache(self, engine):
        builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        child = engine.search("american history", within=parent.doc_id_set())
        # Parent stats never gathered: must fall back to a correct merge.
        narrowed = builder.source.gather_narrowed(
            parent.doc_ids(), child.doc_ids()
        )
        direct_builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        direct_builder.prepare()
        direct = direct_builder.source.gather(child.doc_ids())
        assert sorted(s.term for s in narrowed) == sorted(s.term for s in direct)

    def test_narrowed_result_is_cached(self, engine):
        builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        builder.source.gather(parent.doc_ids())
        child = engine.search("american history", within=parent.doc_id_set())
        builder.source.gather_narrowed(parent.doc_ids(), child.doc_ids())
        cache = builder.source._gather_cache
        hits_before = cache.hits
        builder.source.gather(child.doc_ids())
        assert cache.hits == hits_before + 1


class TestRefinementSessionClouds:
    @pytest.mark.parametrize("strategy", ["forward", "rescan"])
    @pytest.mark.parametrize("scoring", ["frequency", "tfidf", "popularity"])
    def test_session_cloud_equals_cold_build(self, engine, strategy, scoring):
        builder = CloudBuilder(
            engine, scoring=scoring, strategy=strategy, min_result_df=1
        )
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        step = session.refine("history")
        cold = CloudBuilder(
            engine, scoring=scoring, strategy=strategy, min_result_df=1
        )
        cold.prepare()
        expected = cold.build(step.result)
        assert cloud_signature(step.cloud) == cloud_signature(expected)

    def test_chained_refinements_stay_exact(self, engine):
        builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        for term in ("history", "revolution"):
            step = session.refine(term)
            cold = CloudBuilder(engine, strategy="forward", min_result_df=1)
            cold.prepare()
            assert cloud_signature(step.cloud) == cloud_signature(
                cold.build(step.result)
            )

    def test_index_mutation_invalidates_gather_cache(self, engine):
        builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        parent_ids = tuple(session.result.doc_ids())
        engine.database.execute("DELETE FROM Docs WHERE DocID = 8")
        engine.refresh_document(8)
        # The old epoch's cached aggregates are unreachable under the new
        # epoch, and the source has caught up with the removed document.
        child = engine.search("american history")
        narrowed = builder.source.gather_narrowed(
            parent_ids, child.doc_ids()
        )
        direct = CloudBuilder(engine, strategy="forward", min_result_df=1)
        direct.prepare()
        expected = direct.source.gather(child.doc_ids())
        assert sorted(s.term for s in narrowed) == sorted(
            s.term for s in expected
        )

    @given(
        st.lists(
            st.sampled_from(["history", "revolution", "culture", "jazz"]),
            min_size=1,
            max_size=3,
        )
    )
    def test_property_refinement_chain_equals_cold(self, terms):
        engine = make_engine(CORPUS)
        builder = CloudBuilder(engine, strategy="forward", min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        for term in terms:
            step = session.refine(term)
            cold = CloudBuilder(engine, strategy="forward", min_result_df=1)
            cold.prepare()
            assert cloud_signature(step.cloud) == cloud_signature(
                cold.build(step.result)
            )
