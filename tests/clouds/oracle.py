"""The reference every data cloud is held to.

``rescan_counts`` is the gathering strategy the library no longer ships:
it re-extracts a document's display terms from the engine's stored raw
text, sharing nothing with ``TermSource``'s forward index, its corpus df
or its gather cache.  ``display_terms`` derives those terms on its own,
character by character in two passes (words, then bigrams), so a bug in
the library's one-scan ``cloud_terms`` shows here too; only the stopword
list is shared.  ``oracle_cloud`` is the pipeline the bounded top-k
kernel replaced — merge every counter, build statistics for the whole
vocabulary, filter, suppress, score, sort, cut, bucket — over rescanned
counters.  Clouds must come out ``==`` to it: term, score, occurrences,
result df, bucket, order.
"""

from collections import Counter

from repro.clouds.cloud import CloudTerm
from repro.clouds.scoring import TermStats
from repro.errors import SearchError
from repro.search.stemmer import porter_stem
from repro.search.tokenizer import STOPWORDS


def _runs(text):
    """Lowercase letter/digit runs of ``text``, apostrophes removed."""
    runs, current = [], ""
    for char in text.lower():
        if char == "'":
            continue
        if "a" <= char <= "z" or "0" <= char <= "9":
            current += char
        elif current:
            runs.append(current)
            current = ""
    if current:
        runs.append(current)
    return runs


def _kept(run):
    return len(run) >= 2 and run not in STOPWORDS


def display_words(text):
    """A field's display words: its kept runs, in order."""
    return [run for run in _runs(text) if _kept(run)]


def display_terms(text):
    """A field's display words, then (pass two) its bigrams of two
    consecutive kept words."""
    runs = _runs(text)
    return display_words(text) + [
        f"{left} {right}"
        for left, right in zip(runs, runs[1:])
        if _kept(left) and _kept(right)
    ]


def rescan_counts(engine, doc_id):
    """Field-weighted display-term counts of one document, from its text
    (none for a document the engine does not hold)."""
    try:
        texts = engine.document_text(doc_id)
    except SearchError:
        return Counter()
    counts = Counter()
    for field_name, text in texts.items():
        weight = engine.field_weights.get(field_name, 1.0)
        for term in display_terms(text):
            counts[term] += weight
    return counts


def rescan_gather(source, doc_ids):
    """``(occurrences, result_df)`` over ``doc_ids`` by rescanning."""
    occurrences, result_df = Counter(), Counter()
    for doc_id in doc_ids:
        for term, count in rescan_counts(source.engine, doc_id).items():
            occurrences[term] += count
            result_df[term] += 1
    return occurrences, result_df


def rescan_corpus_df(source):
    """Corpus df of every term of ``source``'s engine, by rescanning."""
    corpus_df = Counter()
    for doc_id in source.engine.index.document_ids():
        corpus_df.update(rescan_counts(source.engine, doc_id).keys())
    return corpus_df


def oracle_cloud(builder, sources, docs_per_source, result_size, query_terms):
    """The cloud the slow way; ``sources[i]`` holds ``docs_per_source[i]``."""
    occurrences, result_df, corpus_df = Counter(), Counter(), Counter()
    for source, doc_ids in zip(sources, docs_per_source):
        source_occurrences, source_df = rescan_gather(source, doc_ids)
        occurrences.update(source_occurrences)
        result_df.update(source_df)
        corpus_df.update(rescan_corpus_df(source))
    corpus_size = sum(source.corpus_size for source in sources)
    min_df = builder.min_result_df if result_size >= builder.min_result_df else 1
    suppressed = set(query_terms or ())
    scored = []
    for term in occurrences:
        stats = TermStats(
            term,
            occurrences[term],
            result_df[term],
            corpus_df.get(term, result_df[term]),
        )
        if stats.result_df < min_df:
            continue
        if suppressed and all(porter_stem(w) in suppressed for w in term.split(" ")):
            continue
        score = builder.scoring.score(stats, result_size, corpus_size)
        if score > 0:
            scored.append((score, stats))
    scored.sort(key=lambda entry: (-entry[0], entry[1].term))
    scored = scored[: builder.max_terms]
    if not scored:
        return []
    low = scored[-1][0]
    span = scored[0][0] - low
    terms = []
    for score, stats in scored:
        bucket = builder.buckets
        if span > 0:
            bucket = 1 + int(round((score - low) / span * (builder.buckets - 1)))
        terms.append(
            CloudTerm(stats.term, score, stats.occurrences, stats.result_df, bucket)
        )
    return terms
