"""The one text analyzer: search tokens and data-cloud display terms.

A *word* is a maximal run of letters/digits of the lowercased text, with
apostrophes dropped first (``don't`` → ``dont``) so possessives and
contractions don't fragment.  Words shorter than two characters and
stopwords (a small English list plus a handful of university-domain
words like "course" and "units" that would otherwise dominate every
cloud) are dropped.  There is one rule and no option:

* :func:`words` — the display form the clouds and the graph show;
* :func:`tokens` — the Porter stems of those words, what the search
  index stores and queries are parsed into;
* :func:`cloud_terms` — a field's display words, then its bigrams of
  consecutive words ("latin american"), from one scan of the text.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Optional

from repro.caching import LRUCache
from repro.search.stemmer import porter_stem

_WORD = re.compile(r"[a-z0-9]+")

STOPWORDS: FrozenSet[str] = frozenset({
    # Standard English function words.
    "a", "about", "above", "after", "again", "all", "also", "an", "and",
    "any", "are", "as", "at", "be", "because", "been", "before", "being",
    "below", "between", "both", "but", "by", "can", "cannot", "could",
    "did", "do", "does", "doing", "down", "during", "each", "few", "for",
    "from", "further", "had", "has", "have", "having", "he", "her", "here",
    "hers", "him", "his", "how", "i", "if", "in", "into", "is", "it",
    "its", "just", "may", "me", "more", "most", "my", "no", "nor", "not",
    "now", "of", "off", "on", "once", "only", "or", "other", "our", "out",
    "over", "own", "same", "she", "should", "so", "some", "such", "than",
    "that", "the", "their", "them", "then", "there", "these", "they",
    "this", "those", "through", "to", "too", "under", "until", "up",
    "very", "was", "we", "were", "what", "when", "where", "which", "while",
    "who", "whom", "why", "will", "with", "would", "you", "your",
    # Domain words that appear in nearly every course record and would
    # otherwise crowd out informative cloud terms.
    "course", "courses", "class", "classes", "students", "student",
    "introduction", "intro", "units", "unit", "quarter", "will", "topics",
    "prerequisite", "prerequisites", "instructor", "offered", "study",
    "prof", "professor", "took", "take",
})

#: Porter-stem one word; its ``lru_cache`` is the one stem memo.
stem = porter_stem

# Queries and cloud refinements re-tokenize the same strings, and a
# shard build sees the same comment texts on every shard: full token
# streams, bounded.
_TOKEN_STREAMS = LRUCache(maxsize=1024)


def _scan(text: str) -> List[str]:
    if not text:
        return []
    return _WORD.findall(text.replace("'", "").lower())


def words(text: str) -> List[str]:
    """The display words of ``text``: unstemmed, stopwords dropped.

    >>> words("The History of American Science")
    ['history', 'american', 'science']
    """
    return [w for w in _scan(text) if len(w) >= 2 and w not in STOPWORDS]


def tokens(text: str) -> List[str]:
    """The stems of :func:`words` (the search index's terms).

    >>> tokens("The History of American Science")
    ['histori', 'american', 'scienc']
    """
    cached = _TOKEN_STREAMS.get(text)
    if cached is not None:
        return list(cached)
    result = [stem(word) for word in words(text)]
    _TOKEN_STREAMS.put(text, tuple(result))
    return result


def cloud_terms(text: str) -> List[str]:
    """:func:`words`, then every bigram of two consecutive words.

    A dropped word (stopword or one letter) breaks the chain, so "war
    and peace" has no bigram.

    >>> cloud_terms("Latin American politics")
    ['latin', 'american', 'politics', 'latin american', 'american politics']
    """
    terms: List[str] = []
    bigrams: List[str] = []
    previous: Optional[str] = None
    for word in _scan(text):
        if len(word) < 2 or word in STOPWORDS:
            previous = None
            continue
        terms.append(word)
        if previous is not None:
            bigrams.append(f"{previous} {word}")
        previous = word
    terms.extend(bigrams)
    return terms
