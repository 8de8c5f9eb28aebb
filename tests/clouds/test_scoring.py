"""Unit tests for cloud term gathering and significance models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CloudError
from repro.clouds.scoring import (
    FrequencyScoring,
    PopularityScoring,
    TermSource,
    TermStats,
    TfIdfScoring,
    get_scoring,
)
from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search import entity as entities
from repro.search.entity import EntityDefinition, FieldSpec
from tests.clouds.oracle import rescan_gather


@pytest.fixture()
def engine():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE Docs (DocID INTEGER PRIMARY KEY, Title TEXT, Body TEXT);
        INSERT INTO Docs VALUES
         (1, 'American History', 'the american revolution and civil war'),
         (2, 'Latin American Politics', 'elections in latin american states'),
         (3, 'Databases', 'query processing and transactions'),
         (4, 'American Music', 'jazz and american composers');
        """
    )
    entity = EntityDefinition(
        "doc",
        (
            FieldSpec("title", "SELECT DocID, Title FROM Docs", weight=3.0),
            FieldSpec("body", "SELECT DocID, Body FROM Docs", weight=1.0),
        ),
    )
    eng = SearchEngine(database, entity)
    eng.build()
    return eng


class TestTermSource:
    def test_gather_requires_prepare(self, engine):
        source = TermSource(engine)
        with pytest.raises(CloudError):
            source.gather([1])

    def test_forward_gathers_weighted_counts(self, engine):
        source = TermSource(engine)
        source.prepare()
        stats = {s.term: s for s in source.gather([1])}
        # "american" appears in title (w=3) and body (w=1) of doc 1.
        assert stats["american"].occurrences == 4.0
        assert stats["american"].result_df == 1

    def test_corpus_df_counted(self, engine):
        source = TermSource(engine)
        source.prepare()
        stats = {s.term: s for s in source.gather([1, 2, 4])}
        assert stats["american"].corpus_df == 3

    def test_bigrams_included(self, engine):
        source = TermSource(engine)
        source.prepare()
        stats = {s.term: s for s in source.gather([2])}
        assert "latin american" in stats

    def test_bigrams_never_span_a_stopword(self, engine):
        source = TermSource(engine)
        source.prepare()
        stats = {s.term: s for s in source.gather([1])}
        # body: "the american revolution and civil war"
        assert "civil war" in stats
        assert "revolution civil" not in stats
        assert "revolution and" not in stats

    def test_rescan_matches_forward_exactly(self, engine):
        forward = TermSource(engine)
        forward.prepare()
        doc_ids = [1, 2, 4]
        occurrences, result_df = rescan_gather(forward, doc_ids)
        left = {(s.term, s.occurrences, s.result_df) for s in forward.gather(doc_ids)}
        right = {(term, occurrences[term], result_df[term]) for term in occurrences}
        assert left == right

    def test_corpus_size(self, engine):
        source = TermSource(engine)
        source.prepare()
        assert source.corpus_size == 4

    def test_gather_result_mutation_does_not_corrupt_cache(self, engine):
        source = TermSource(engine)
        source.prepare()
        first = source.gather([1, 2])
        pristine = list(first)
        first.sort(key=lambda s: s.term)
        first.pop()
        second = source.gather([1, 2])
        assert second == pristine


def shipped_entities():
    return [
        factory()
        for name, factory in vars(entities).items()
        if name.endswith("_entity") and callable(factory)
    ]


@pytest.mark.parametrize("entity", shipped_entities(), ids=lambda e: e.name)
def test_shipped_field_weights_are_dyadic(entity):
    """The precondition of exact patching and exact shard merges: every
    weight is a multiple of 2**-10, so sums and differences of occurrence
    counts are exact floats in any order (``TermSource``)."""
    for spec in entity.fields:
        assert (spec.weight * 2**10).is_integer(), (entity.name, spec)


class TestSignificanceModels:
    def stats(self, occurrences=10.0, result_df=5, corpus_df=20):
        return TermStats(
            term="x",
            occurrences=occurrences,
            result_df=result_df,
            corpus_df=corpus_df,
        )

    def test_frequency_is_occurrences(self):
        assert FrequencyScoring().score(self.stats(), 10, 100) == 10.0

    def test_tfidf_prefers_rare_in_corpus(self):
        scoring = TfIdfScoring()
        rare = scoring.score(self.stats(corpus_df=2), 10, 100)
        common = scoring.score(self.stats(corpus_df=90), 10, 100)
        assert rare > common

    def test_popularity_prefers_coverage(self):
        scoring = PopularityScoring()
        broad = scoring.score(self.stats(result_df=9, occurrences=9), 10, 100)
        narrow = scoring.score(self.stats(result_df=1, occurrences=9), 10, 100)
        assert broad > narrow

    def test_popularity_zero_on_empty(self):
        assert PopularityScoring().score(self.stats(), 0, 100) == 0.0

    def test_get_scoring_by_name(self):
        assert isinstance(get_scoring("frequency"), FrequencyScoring)
        assert isinstance(get_scoring("tfidf"), TfIdfScoring)
        assert isinstance(get_scoring("popularity"), PopularityScoring)

    def test_get_scoring_passthrough(self):
        instance = TfIdfScoring()
        assert get_scoring(instance) is instance

    def test_get_scoring_unknown(self):
        with pytest.raises(CloudError):
            get_scoring("banana")


class TestUpperBound:
    """The ceiling the cloud kernel prunes with (``upper_bound``)."""

    @given(
        result_size=st.integers(1, 20000),
        corpus_size=st.integers(0, 200000),
        df=st.integers(0, 20000),
        more_df=st.integers(0, 20000),
        more_corpus_df=st.integers(0, 200000),
        occurrences=st.floats(0.0, 1e6),
        more_occurrences=st.floats(0.0, 1e6),
    )
    def test_popularity_bound_covers_every_term_below_it(
        self,
        result_size,
        corpus_size,
        df,
        more_df,
        more_corpus_df,
        occurrences,
        more_occurrences,
    ):
        """score ≤ upper_bound(df2, …, cap) for df ≤ df2, cdf ≥ df and
        0 ≤ occurrences ≤ cap; and the bound never falls as df grows."""
        scoring = PopularityScoring()
        stats = TermStats("t", occurrences, df, df + more_corpus_df)
        cap = occurrences + more_occurrences
        bound = scoring.upper_bound(df + more_df, result_size, corpus_size, cap)
        assert scoring.score(stats, result_size, corpus_size) <= bound
        assert bound <= scoring.upper_bound(
            df + more_df + 1, result_size, corpus_size, cap
        )

    def test_popularity_bound_is_zero_where_every_score_is(self):
        assert PopularityScoring().upper_bound(5, 0, 100, 9.0) == 0.0
        assert PopularityScoring().upper_bound(5, 10, 0, 9.0) == 0.0

    @pytest.mark.parametrize("scoring", ["frequency", "tfidf"])
    def test_scorings_without_a_bound_declare_infinity(self, scoring):
        assert get_scoring(scoring).upper_bound(3, 10, 100, 9.0) == math.inf
