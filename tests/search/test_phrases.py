"""Unit tests for the data clouds' display terms (words, then bigrams)."""

from repro.search.tokenizer import cloud_terms, words


class TestExtractBigrams:
    def test_basic(self):
        assert cloud_terms("History of Latin American politics") == [
            "history",
            "latin",
            "american",
            "politics",
            "latin american",
            "american politics",
        ]

    def test_stopwords_break_chains(self):
        # "war" and "peace" are separated by a stopword; no bigram forms.
        assert cloud_terms("war and peace") == ["war", "peace"]

    def test_short_tokens_break_chains(self):
        assert cloud_terms("vitamin c supplements") == ["vitamin", "supplements"]

    def test_empty(self):
        assert cloud_terms("") == []
        assert cloud_terms("the of and") == []

    def test_case_normalized(self):
        assert cloud_terms("African AMERICAN studies") == [
            "african",
            "american",
            "studies",
            "african american",
            "american studies",
        ]


class TestDisplayUnigrams:
    def test_unstemmed(self):
        # Display forms keep full words (the cloud shows "politics",
        # not the stem "polit").
        assert words("American politics") == ["american", "politics"]

    def test_stopwords_filtered(self):
        assert words("the war of the worlds") == ["war", "worlds"]
