"""Full-text search substrate.

CourseRank's keyword search runs over *search entities that span multiple
relations* (Section 3.1 of the paper): a course entity folds in its title,
description, student comments, instructor names, and so on, each with its
own weight.  This package provides:

* :mod:`tokenizer` — the one text analyzer: display words, their stems
  (the index's terms) and the data clouds' unigram + bigram terms;
* :mod:`stemmer` — a Porter stemmer (classic 1980 algorithm);
* :mod:`inverted_index` — positional-free inverted index with per-field
  term frequencies plus a forward index (used by the data-cloud scorers);
* :mod:`entity` — declarative definitions of multi-relation search
  entities (field SQL + weight);
* :mod:`engine` — the query engine: conjunctive matching with BM25F-style
  ranking.
"""

from repro.search.engine import SearchEngine, SearchHit, SearchResult
from repro.search.entity import EntityDefinition, FieldSpec
from repro.search.inverted_index import InvertedIndex
from repro.search.snippets import annotate_hits, best_snippet
from repro.search.stemmer import porter_stem
from repro.search.tokenizer import STOPWORDS, cloud_terms, tokens, words

__all__ = [
    "SearchEngine",
    "SearchHit",
    "SearchResult",
    "EntityDefinition",
    "FieldSpec",
    "InvertedIndex",
    "annotate_hits",
    "best_snippet",
    "porter_stem",
    "STOPWORDS",
    "cloud_terms",
    "tokens",
    "words",
]
