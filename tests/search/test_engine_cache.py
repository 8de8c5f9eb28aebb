"""The search fast path: the answer cache, heap top-k, and observability.

Three invariants from the hot-path overhaul:

* cached and cold answers are identical (the cache is the one-shard
  :class:`~repro.clouds.refinement.CloudNavigator`'s; the engine caches
  nothing);
* heap top-k (``limit=...``) ordering equals full-sort ordering,
  including score ties broken by ``_tiebreak``;
* any index mutation moves the epoch, so the cache can never serve a
  stale generation.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clouds import CloudBuilder, CloudNavigator, SearchShard
from repro.minidb import Database
from repro.search.engine import SearchEngine, _tiebreak
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
    (4, "American Music", "jazz blues and american composers"),
    (5, "Database Systems", "query processing transactions recovery"),
    (6, "European History", "empires wars and revolutions in europe"),
]


@pytest.fixture()
def engine():
    return make_engine(CORPUS)


@pytest.fixture()
def navigator(engine):
    return CloudNavigator(
        [SearchShard(engine, CloudBuilder(engine, min_result_df=1))]
    )


def answer_of(step):
    """Everything an answer shows, float for float."""
    return (
        [(hit.doc_id, hit.score) for hit in step.result.hits],
        step.result.terms,
        step.result.phrases,
        step.result.candidate_count,
        step.result.scored_count,
        step.cloud.result_size,
        step.cloud.terms,
        step.shard_doc_ids,
    )


class TestResultCache:
    def test_cached_equals_cold(self, navigator):
        cold = navigator.answer("american history")
        warm = navigator.answer("american history")
        assert warm.result.cache_hit and not cold.result.cache_hit
        assert answer_of(warm) == answer_of(cold)
        fresh = CloudNavigator(navigator.shards).answer("american history")
        assert answer_of(fresh) == answer_of(warm)

    def test_engine_search_is_uncached(self, engine, navigator):
        navigator.answer("american")
        first = engine.search("american")
        second = engine.search("american")
        assert not first.cache_hit and not second.cache_hit
        assert first.hits == second.hits
        assert first.hits == navigator.answer("american").result.hits

    def test_cache_counters(self, navigator):
        navigator.answer("american")
        navigator.answer("american")
        assert navigator.cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_cached_result_is_fresh_object(self, navigator):
        first = navigator.answer("american")
        first.result.hits.clear()  # caller mutation must not corrupt the cache
        first.result.terms.clear()
        first.cloud.terms.clear()
        second = navigator.answer("american")
        assert second.result.cache_hit
        assert len(second.result) == 4
        assert second.result.terms == ["american"]
        assert second.cloud.terms

    def test_distinct_parameters_distinct_entries(self, navigator):
        full = navigator.answer("american")
        within = navigator.answer("american", ((1, 3),))
        narrower = navigator.answer("american", ((1,),))
        assert len(full.result) == 4
        assert within.result.doc_id_set() == {1, 3}
        assert narrower.result.doc_id_set() == {1}
        assert not within.result.cache_hit and not narrower.result.cache_hit
        assert navigator.cache_info()["size"] == 3

    def test_case_and_whitespace_share_entry(self, navigator):
        first = navigator.answer("American  History")
        second = navigator.answer("american history")
        assert second.result.cache_hit
        assert answer_of(second) == answer_of(first)
        # One entry, but every shell carries its caller's own text.
        assert (first.query, first.result.query, first.cloud.query) == (
            "American  History",) * 3
        assert (second.query, second.result.query, second.cloud.query) == (
            "american history",) * 3

    def test_epoch_invalidation_after_refresh(self, engine, navigator):
        before = navigator.answer("jazz")
        assert before.result.doc_id_set() == {4}
        engine.database.execute(
            "UPDATE Docs SET Body = 'classical opera' WHERE DocID = 4"
        )
        engine.refresh_document(4)
        after = navigator.answer("jazz")
        assert not after.result.cache_hit
        assert after.result.doc_id_set() == set()
        assert navigator.answer("opera").result.doc_id_set() == {4}

    def test_epoch_invalidation_after_remove(self, engine, navigator):
        navigator.answer("american")
        engine.database.execute("DELETE FROM Docs WHERE DocID = 4")
        engine.refresh_document(4)
        survivors = navigator.answer("american")
        assert not survivors.result.cache_hit
        assert 4 not in survivors.result.doc_id_set()

    def test_build_clears_cache(self, engine, navigator):
        navigator.answer("american")
        engine.build()
        assert not navigator.answer("american").result.cache_hit


class TestObservability:
    def test_fields_populated(self, engine):
        result = engine.search("american")
        assert result.candidate_count == len(result.hits)
        assert result.scored_count == result.candidate_count
        assert result.elapsed_ms >= 0.0
        assert result.cache_hit is False

    def test_limit_keeps_full_counts(self, engine):
        result = engine.search("american", limit=1)
        assert len(result) == 1
        assert result.candidate_count == 4
        assert result.scored_count == 4

    def test_empty_query_counts(self, engine):
        result = engine.search("the of and")
        assert result.candidate_count == 0
        assert result.scored_count == 0
        assert result.elapsed_ms >= 0.0


class TestHeapTopK:
    def test_topk_prefix_of_full_sort(self):
        engine = make_engine(CORPUS)
        full = engine.search("american history")
        for k in range(1, len(full) + 2):
            limited = engine.search("american history", limit=k)
            assert limited.hits == full.hits[:k]

    def test_ties_follow_tiebreak(self):
        # Identical documents score identically; ordering must fall back
        # to the deterministic _tiebreak over doc ids.
        rows = [(i, "same title", "same body text") for i in range(1, 9)]
        engine = make_engine(rows)
        full = engine.search("title")
        scores = {hit.score for hit in full.hits}
        assert len(scores) == 1  # all tied
        expected = sorted(full.doc_ids(), key=_tiebreak)
        assert full.doc_ids() == expected
        limited = engine.search("title", limit=3)
        assert limited.doc_ids() == expected[:3]

    @given(
        docs=st.lists(
            st.lists(
                st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=10,
        ),
        query=st.lists(
            st.sampled_from(["alpha", "beta", "gamma"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_property_heap_equals_sort(self, docs, query, k):
        rows = [
            (i + 1, " ".join(tokens), " ".join(reversed(tokens)))
            for i, tokens in enumerate(docs)
        ]
        engine = make_engine(rows)
        text = " ".join(query)
        full = engine.search(text)
        limited = engine.search(text, limit=k)
        assert limited.hits == full.hits[:k]
