"""Unit tests for the text analyzer's words and tokens."""

from hypothesis import given
from hypothesis import strategies as st

from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec
from repro.search.tokenizer import STOPWORDS, stem, tokens, words


class TestRawTokens:
    def test_lowercases_and_splits(self):
        assert words("Latin-American Politics 101") == [
            "latin", "american", "politics", "101",
        ]

    def test_apostrophes_collapse(self):
        assert words("don't") == ["dont"]

    def test_empty(self):
        assert words("") == []
        assert words("  ...  ") == []
        assert tokens("") == []


class TestPipeline:
    def test_stopwords_removed(self):
        assert words("the history of the war") == ["history", "war"]

    def test_domain_stopwords(self):
        assert words("introduction to the course units") == []

    def test_min_length(self):
        assert words("a b cd") == ["cd"]

    def test_stemming_applied(self):
        assert tokens("programming databases") == ["program", "databas"]

    def test_stemming_off(self):
        assert words("programming") == ["programming"]

    def test_query_matches_document_pipeline(self):
        entity = EntityDefinition("doc", (FieldSpec("title", "SELECT 1, 'x'"),))
        engine = SearchEngine(Database(), entity)
        loose, phrases = engine.parse_query('American History "Latin Music"')
        assert loose == tokens("American History")
        assert phrases == [tokens("Latin Music")]

    def test_stem_cache_consistency(self):
        first = stem("running")
        second = stem("running")
        assert first == second == "run"

    def test_repeated_text_returns_an_unshared_list(self):
        first = tokens("American History")
        first.append("mutated")
        assert tokens("American History") == ["american", "histori"]

    @given(st.text(max_size=60))
    def test_tokens_never_contain_uppercase_or_spaces(self, text):
        for token in tokens(text):
            assert token == token.lower()
            assert " " not in token

    @given(st.text(alphabet="abc XYZ,.'", max_size=40))
    def test_pipeline_idempotent_on_own_output(self, text):
        once = words(text)
        again = words(" ".join(once))
        assert once == again


class TestStopwordList:
    def test_common_words_present(self):
        for word in ("the", "and", "of"):
            assert word in STOPWORDS

    def test_content_words_absent(self):
        for word in ("american", "history", "java"):
            assert word not in STOPWORDS
