"""Refinement clouds must equal from-scratch clouds.

A refined step's cloud comes from a builder that has already gathered the
parent (and whose gather cache may hold either).  These tests pin the
equivalence: for every scoring model, the session's cloud — and
``TermSource.gather_narrowed``, which once derived it by subtracting the
dropped documents from the parent's counters — is term-for-term and
score-for-score identical to a cold build, and to a rescan of the raw
text, over the same narrowed result set.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clouds.cloud import CloudBuilder
from repro.clouds.refinement import RefinementSession
from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec
from tests.clouds.oracle import rescan_gather


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


def as_tuples(stats):
    return sorted((s.term, s.occurrences, s.result_df, s.corpus_df) for s in stats)


def cloud_signature(cloud):
    """Everything that matters for equality: terms, scores, df, buckets."""
    return [
        (term.term, term.score, term.occurrences, term.result_df, term.bucket)
        for term in cloud.terms
    ]


class TestGatherNarrowed:
    @pytest.mark.parametrize("reference", ["forward", "rescan"])
    def test_narrowed_equals_from_scratch(self, engine, reference):
        """Against a cold builder's gather, or the raw text rescanned."""
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        builder.source.gather(parent.doc_ids())  # seed the parent cache
        child = engine.search("american history", within=parent.doc_id_set())
        narrowed = builder.source.gather_narrowed(
            parent.doc_ids(), child.doc_ids()
        )
        if reference == "forward":
            scratch = CloudBuilder(engine, min_result_df=1)
            scratch.prepare()
            assert as_tuples(narrowed) == as_tuples(
                scratch.source.gather(child.doc_ids())
            )
        else:
            occurrences, result_df = rescan_gather(
                builder.source, child.doc_ids()
            )
            assert sorted(
                (s.term, s.occurrences, s.result_df) for s in narrowed
            ) == sorted(
                (term, occurrences[term], result_df[term])
                for term in occurrences
            )

    def test_fallback_without_parent_cache(self, engine):
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        child = engine.search("american history", within=parent.doc_id_set())
        # Parent stats never gathered: must fall back to a correct merge.
        narrowed = builder.source.gather_narrowed(
            parent.doc_ids(), child.doc_ids()
        )
        direct_builder = CloudBuilder(engine, min_result_df=1)
        direct_builder.prepare()
        direct = direct_builder.source.gather(child.doc_ids())
        assert sorted(s.term for s in narrowed) == sorted(s.term for s in direct)

    def test_narrowed_result_is_cached(self, engine):
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        parent = engine.search("american")
        builder.source.gather(parent.doc_ids())
        child = engine.search("american history", within=parent.doc_id_set())
        builder.source.gather_narrowed(parent.doc_ids(), child.doc_ids())
        before = builder.source.cache_info()
        builder.source.gather(child.doc_ids())
        after = builder.source.cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]


class TestRefinementSessionClouds:
    @pytest.mark.parametrize("scoring", ["frequency", "tfidf", "popularity"])
    def test_session_cloud_equals_cold_build(self, engine, scoring):
        builder = CloudBuilder(engine, scoring=scoring, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        step = session.refine("history")
        cold = CloudBuilder(engine, scoring=scoring, min_result_df=1)
        cold.prepare()
        expected = cold.build(step.result)
        assert cloud_signature(step.cloud) == cloud_signature(expected)

    def test_chained_refinements_stay_exact(self, engine):
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        for term in ("history", "revolution"):
            step = session.refine(term)
            cold = CloudBuilder(engine, min_result_df=1)
            cold.prepare()
            assert cloud_signature(step.cloud) == cloud_signature(
                cold.build(step.result)
            )

    def test_index_mutation_invalidates_gather_cache(self, engine):
        """A removed document leaves the cached parent's counters: the
        catch-up patches the partial, which then equals a cold gather."""
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        parent_ids = tuple(session.result.doc_ids())
        assert 8 in parent_ids
        engine.database.execute("DELETE FROM Docs WHERE DocID = 8")
        engine.refresh_document(8)
        child = engine.search("american history")
        before = builder.source.cache_info()
        narrowed = builder.source.gather_narrowed(
            parent_ids, child.doc_ids()
        )
        parent = builder.source.gather(parent_ids)
        after = builder.source.cache_info()
        assert after["patched"] - before["patched"] == 1
        assert after["hits"] - before["hits"] == 1  # the parent
        direct = CloudBuilder(engine, min_result_df=1)
        direct.prepare()
        assert as_tuples(narrowed) == as_tuples(
            direct.source.gather(child.doc_ids())
        )
        assert as_tuples(parent) == as_tuples(direct.source.gather(parent_ids))

    @given(
        st.lists(
            st.sampled_from(["history", "revolution", "culture", "jazz"]),
            min_size=1,
            max_size=3,
        )
    )
    def test_property_refinement_chain_equals_cold(self, terms):
        engine = make_engine(CORPUS)
        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        for term in terms:
            step = session.refine(term)
            cold = CloudBuilder(engine, min_result_df=1)
            cold.prepare()
            assert cloud_signature(step.cloud) == cloud_signature(
                cold.build(step.result)
            )
