"""Tests for positional phrase matching and quoted-phrase queries."""

import pytest

from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec
from repro.search.inverted_index import InvertedIndex


class TestIndexPhrases:
    def build(self):
        index = InvertedIndex()
        index.add_document(1, {"title": ["african", "american", "studi"]})
        index.add_document(2, {"title": ["american", "african", "art"]})
        index.add_document(3, {"title": ["african", "art"],
                               "body": ["american", "histori"]})
        index.add_document(4, {"body": ["african", "american"]})
        return index

    def test_phrase_match_consecutive(self):
        index = self.build()
        assert index.phrase_match(1, ["african", "american"])
        assert index.phrase_match(4, ["african", "american"])

    def test_phrase_order_matters(self):
        index = self.build()
        assert not index.phrase_match(2, ["african", "american"])
        assert index.phrase_match(2, ["american", "african"])

    def test_phrase_must_be_same_field(self):
        # Doc 3 has "african" in title and "american" in body: no phrase.
        assert not self.build().phrase_match(3, ["african", "american"])

    def test_single_term_phrase(self):
        index = self.build()
        assert index.phrase_match(3, ["african"])
        assert not index.phrase_match(4, ["histori"])

    def test_empty_phrase(self):
        assert not self.build().phrase_match(1, [])

    def test_phrase_documents(self):
        index = self.build()
        assert index.phrase_documents(["african", "american"]) == {1, 4}
        assert index.phrase_documents(["american", "studi"]) == {1}
        assert index.phrase_documents(["missing", "american"]) == set()

    def test_three_word_phrase(self):
        index = self.build()
        assert index.phrase_documents(["african", "american", "studi"]) == {1}

    def test_positions_survive_removal(self):
        index = self.build()
        index.remove_document(1)
        assert index.phrase_documents(["african", "american"]) == {4}

    def test_positional_postings_shape(self):
        index = self.build()
        postings = index.positional_postings("african")
        assert postings[1] == {"title": [0]}
        assert index.postings("african")[1] == {"title": 1}


@pytest.fixture()
def engine():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE Docs (DocID INTEGER PRIMARY KEY, Title TEXT, Body TEXT);
        INSERT INTO Docs VALUES
          (1, 'African American Studies', 'culture and history'),
          (2, 'American Art in Africa', 'african traditions in american art'),
          (3, 'War and Peace', 'the novel by tolstoy'),
          (4, 'American History', 'from colonies to superpower');
        """
    )
    entity = EntityDefinition(
        "doc",
        (
            FieldSpec("title", "SELECT DocID, Title FROM Docs", weight=2.0),
            FieldSpec("body", "SELECT DocID, Body FROM Docs", weight=1.0),
        ),
    )
    eng = SearchEngine(database, entity)
    eng.build()
    return eng


class TestQuotedQueries:
    def test_quoted_phrase_narrower_than_loose(self, engine):
        loose = engine.search("african american").doc_id_set()
        phrase = engine.search('"african american"').doc_id_set()
        assert phrase <= loose
        # doc 2's "african traditions in american art" has both words but
        # not adjacent — phrase search excludes it.
        assert phrase == {1}
        assert 2 in loose

    def test_exact_phrase_set(self, engine):
        assert engine.search('"african american"').doc_id_set() == {1}

    def test_phrase_plus_term(self, engine):
        result = engine.search('"american art" african')
        assert result.doc_id_set() == {2}

    def test_stopword_insensitive_phrase(self, engine):
        # "war peace" matches "War and Peace" (stopword dropped).
        assert engine.search('"war peace"').doc_id_set() == {3}

    def test_single_word_quotes_degenerate(self, engine):
        assert (
            engine.search('"american"').doc_id_set()
            == engine.search("american").doc_id_set()
        )

    def test_empty_quotes_ignored(self, engine):
        assert engine.search('"" american').doc_id_set() == engine.search(
            "american"
        ).doc_id_set()

    def test_parse_query(self, engine):
        loose, phrases = engine.parse_query('history "african american" war')
        assert loose == ["histori", "war"]
        assert phrases == [["african", "american"]]

    def test_count_respects_phrases(self, engine):
        result = engine.search('"african american"')
        assert len(result.hits) == result.candidate_count == 1

    def test_phrases_recorded_on_result(self, engine):
        result = engine.search('"african american"')
        assert result.phrases == [["african", "american"]]


class TestPhraseRefinement:
    def test_multiword_cloud_term_refines_as_phrase(self, engine):
        from repro.clouds.cloud import CloudBuilder
        from repro.clouds.refinement import RefinementSession

        builder = CloudBuilder(engine, min_result_df=1)
        builder.prepare()
        session = RefinementSession(engine, builder, "american")
        step = session.refine("african american")
        assert '"african american"' in session.query
        assert step.result.doc_id_set() == {1}
