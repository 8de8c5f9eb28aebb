"""The counters → cloud kernel against a full-vocabulary oracle.

``CloudBuilder.build_from_stats`` computes a cloud as a top-k query: it
cuts on result df before anything else is summed, scores the survivors
df level by df level only while the scoring's upper bound says an
unscored term could still be shown, and suppresses query echoes lazily.
``oracle_cloud`` (``tests/clouds/oracle.py``) is the pipeline it
replaced — merge every counter, build statistics for the whole
vocabulary, filter, suppress, score, sort, cut, bucket — over counters
rescanned from each document's raw text.  Every cloud must come out
``==``: term, score, occurrences, result df, bucket, order.  The skewed
corpora are large enough for the bound to prune, and the ``cloud.build``
span's ``candidates``/``scored`` fields show that it did.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clouds.cloud import CloudBuilder
from repro.clouds.scoring import SignificanceScoring, TermPartial, TermStats
from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.minidb import Database
from repro.obs import OBS
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec
from repro.search.tokenizer import STOPWORDS, cloud_terms, stem, tokens, words
from tests.clouds.oracle import display_terms, display_words, oracle_cloud

WORDS = (
    "american", "history", "latin", "politics", "music", "jazz",
    "revolution", "war", "culture", "systems",
)
#: a larger vocabulary drawn Zipf-skewed (word i about 1/(i+1) as often):
#: many df levels, a few very common terms and a long rare tail
SKEWED = WORDS + (
    "theory", "practice", "seminar", "design", "data", "language",
    "writing", "economics", "physics", "ethics", "film", "media", "law",
    "health", "urban", "energy", "biology", "markets", "poetry", "logic",
)
ZIPF_POOL = tuple(
    word for rank, word in enumerate(SKEWED) for _ in range(30 // (rank + 1))
)


def make_engine(rows):
    database = Database()
    database.execute(
        "CREATE TABLE Docs (DocID INTEGER PRIMARY KEY, Title TEXT, Body TEXT)"
    )
    table = database.table("Docs")
    for row in rows:
        table.insert(list(row))
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


class ShiftedFrequency(SignificanceScoring):
    """Occurrence mass minus a threshold: scores at and below zero exist."""

    name = "shifted"

    def score(self, stats, result_size, corpus_size):
        return stats.occurrences - 4.0


def numbered(pairs):
    return [(i + 1, title, body) for i, (title, body) in enumerate(pairs)]


texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
skewed_texts = st.lists(
    st.sampled_from(ZIPF_POOL), min_size=1, max_size=10
).map(" ".join)
corpora = st.one_of(
    st.lists(st.tuples(texts, texts), min_size=1, max_size=9).map(numbered),
    st.lists(
        st.tuples(skewed_texts, skewed_texts), min_size=8, max_size=32
    ).map(numbered),
)
#: (min_result_df, max_terms): small caps land the cut inside score ties
shapes = st.tuples(st.sampled_from((1, 2)), st.integers(1, 6))
scorings = st.sampled_from(
    ("frequency", "tfidf", "popularity", ShiftedFrequency())
)
queries = st.lists(st.sampled_from(WORDS), max_size=3)


def stems(query):
    return [stem(word) for word in query]


#: text pieces for every rule of the analyzer: apostrophes, digits,
#: one-letter words, stopwords (and runs of them), case, punctuation
PIECES = st.one_of(
    st.sampled_from((
        "don't", "O'Brien", "history's", "'", "a", "I", "x", "42", "3d",
        "the of and", "Latin", "AMERICAN", "politics", "",
    )),
    st.sampled_from(sorted(STOPWORDS)),
    st.text(max_size=8),
)
SEPARATORS = st.sampled_from((" ", "  ", "-", ", ", ".", "'", "\n"))
analyzer_texts = st.lists(st.tuples(PIECES, SEPARATORS), max_size=12).map(
    lambda pairs: "".join(piece + sep for piece, sep in pairs)
)


@given(analyzer_texts)
@example("")
def test_the_analyzer_equals_the_oracles_two_pass_derivation(text):
    assert cloud_terms(text) == display_terms(text)
    assert words(text) == display_words(text)
    assert tokens(text) == [stem(word) for word in words(text)]


def traced(build):
    """``build()``'s cloud and the fields of the ``cloud.build`` span it made."""
    OBS.reset()
    OBS.enable()
    try:
        cloud = build()
        spans = [r for r in OBS.tracer.records() if r.name == "cloud.build"]
    finally:
        OBS.disable()
        OBS.reset()
    assert len(spans) == 1
    return cloud, spans[0].attrs


def sharded(rows, shards, **options):
    """One prepared builder per round-robin shard of ``rows``."""
    parts = [
        CloudBuilder(make_engine(rows[index::shards]), **options)
        for index in range(shards)
    ]
    for part in parts:
        part.prepare()
    return parts


def per_shard(doc_ids, shards):
    return [
        [doc_id for doc_id in doc_ids if (doc_id - 1) % shards == index]
        for index in range(shards)
    ]


@settings(max_examples=120, deadline=None)
@given(
    rows=corpora,
    scoring=scorings,
    shape=shapes,
    query=queries,
    data=st.data(),
)
def test_kernel_equals_oracle(rows, scoring, shape, query, data):
    engine = make_engine(rows)
    builder = CloudBuilder(
        engine, scoring=scoring, min_result_df=shape[0], max_terms=shape[1]
    )
    builder.prepare()
    # Any subset, in any order: empty, and smaller than min_result_df too.
    doc_ids = data.draw(
        st.lists(st.sampled_from([row[0] for row in rows]), unique=True)
    )
    query_terms = stems(query)
    cloud = builder.build_for_docs(doc_ids, query_terms=query_terms)
    assert cloud.result_size == len(doc_ids)
    assert cloud.terms == oracle_cloud(
        builder, [builder.source], [doc_ids], len(doc_ids), query_terms
    )


@settings(max_examples=80, deadline=None)
@given(
    rows=corpora,
    shards=st.integers(1, 5),
    scoring=scorings,
    shape=shapes,
    query=queries,
    data=st.data(),
)
def test_sharded_partials_equal_unsharded_and_oracle(
    rows, shards, scoring, shape, query, data
):
    """N shard partials through the kernel == one partial == the oracle.

    Documents go to shards round-robin, so with more shards than
    documents some shards are empty, and a drawn subset leaves others
    without a result document.
    """
    options = dict(
        scoring=scoring, min_result_df=shape[0], max_terms=shape[1]
    )
    whole = CloudBuilder(make_engine(rows), **options)
    whole.prepare()
    parts = sharded(rows, shards, **options)
    doc_ids = data.draw(
        st.lists(st.sampled_from([row[0] for row in rows]), unique=True)
    )
    docs_per_shard = per_shard(doc_ids, shards)
    query_terms = stems(query)
    merged = parts[0].build_from_stats(
        [
            part.source.partial_gather(docs)
            for part, docs in zip(parts, docs_per_shard)
        ],
        len(doc_ids),
        query_terms=query_terms,
    )
    unsharded = whole.build_for_docs(doc_ids, query_terms=query_terms)
    assert merged.terms == unsharded.terms
    assert merged.terms == oracle_cloud(
        parts[0],
        [part.source for part in parts],
        docs_per_shard,
        len(doc_ids),
        query_terms,
    )


CORPUS = [
    (1, "American History", "the american revolution and the civil war"),
    (2, "Latin American Politics", "elections across latin american nations"),
    (3, "African American Studies", "african american culture and history"),
    (4, "American Music", "jazz blues and american composers and history"),
    (5, "American Revolution", "revolution war and american independence"),
]


class FixedCorpus:
    """A shard's corpus df and size, without a search engine behind it."""

    def __init__(self, corpus_df, corpus_size):
        self.corpus_df = corpus_df
        self.corpus_size = corpus_size

    def corpus_document_frequencies(self, terms):
        return [self.corpus_df.get(term, 0) for term in terms]


def test_the_bound_covers_a_term_split_across_shards():
    """"t" has 50 occurrences in each of two shards: merged, 100 — more
    than either shard's largest value.  It is in fewer result documents
    than "a" and "b" (the first slice) but outscores them, so a bound that
    took the largest single-shard value would prune the true top term."""
    halves = [
        ({"a": 8.0, "b": 1.0, "t": 50.0}, {"a": 2, "b": 2, "t": 1}),
        ({"a": 8.0, "b": 1.0, "t": 50.0}, {"a": 1, "b": 1, "t": 1}),
    ]
    partials = [
        TermPartial(FixedCorpus(dict(df), 500), occurrences, Counter(df))
        for occurrences, df in halves
    ]
    builder = CloudBuilder(make_engine(CORPUS), max_terms=1)
    merged = {"a": (16.0, 3), "b": (2.0, 3), "t": (100.0, 2)}
    best = max(
        merged,
        key=lambda term: builder.scoring.score(
            TermStats(term, merged[term][0], merged[term][1], merged[term][1]),
            4,
            1000,
        ),
    )
    assert best == "t"
    cloud, span = traced(lambda: builder.build_from_stats(partials, 4))
    assert cloud.term_names() == ["t"]
    assert (span["candidates"], span["scored"]) == (3, 3)


class TestTheCutsInOrder:
    """Hand-built cases for each place the lazy pipeline could go wrong."""

    def build(self, doc_ids, query=(), **options):
        engine = make_engine(CORPUS)
        builder = CloudBuilder(engine, **options)
        builder.prepare()
        query_terms = stems(query)
        cloud = builder.build_for_docs(doc_ids, query_terms=query_terms)
        expected = oracle_cloud(
            builder, [builder.source], [doc_ids], len(doc_ids), query_terms
        )
        assert cloud.terms == expected
        return cloud

    def test_suppressed_leaders_do_not_use_up_the_cut(self):
        # "american" leads every ranking here; suppressing it must let
        # the walk go on to max_terms *other* terms, not stop one short.
        docs = [1, 2, 3, 4, 5]
        plain = self.build(docs, scoring="frequency", max_terms=3)
        assert plain.terms[0].term == "american"
        echo_free = self.build(
            docs, query=("american",), scoring="frequency", max_terms=3
        )
        assert len(echo_free.terms) == 3
        assert "american" not in echo_free.term_names()

    def test_cut_inside_a_score_tie_breaks_on_term_text(self):
        cloud = self.build([2], scoring="frequency", min_result_df=1, max_terms=2)
        # american, latin and the bigram "latin american" tie at 4.0
        # (title 3 + body 1); a cut at two inside that tie keeps the
        # first two in term order.
        tied = [t.term for t in cloud.terms if t.score == cloud.terms[0].score]
        assert tied == sorted(tied) == ["american", "latin"]

    def test_result_smaller_than_min_result_df_keeps_single_documents(self):
        cloud = self.build([3], min_result_df=2)
        assert cloud.terms and all(t.result_df == 1 for t in cloud.terms)

    def test_min_result_df_cuts_before_the_ranking(self):
        cloud = self.build([1, 2, 3, 4, 5], min_result_df=2, max_terms=50)
        assert cloud.terms and all(t.result_df >= 2 for t in cloud.terms)

    def test_everything_suppressed(self):
        cloud = self.build(
            [2], query=("latin", "american", "politics", "elections",
                        "across", "nations"),
            min_result_df=1,
        )
        assert cloud.terms == []

    def test_scores_at_or_below_zero_are_dropped(self):
        cloud = self.build(
            [1, 5], scoring=ShiftedFrequency(), min_result_df=1
        )
        assert cloud.terms and all(t.score > 0 for t in cloud.terms)
        assert len(cloud.terms) < len(
            self.build([1, 5], scoring="frequency", min_result_df=1).terms
        )

    def test_empty_result(self):
        assert self.build([]).terms == []


def skewed_rows(rng, count):
    def text():
        return " ".join(rng.choices(ZIPF_POOL, k=rng.randint(1, 10)))

    return [(i + 1, text(), text()) for i in range(count)]


def test_the_bound_prunes_and_the_answer_stays_the_oracles():
    """Seeded sweep over skewed corpora, 1–5 shard partials.  Popularity
    declares a bound: in at least three of every four of its clouds some
    term that passed the iceberg cut was never scored.  The other scorings declare none and score every candidate.
    Every cloud is the oracle's."""
    rng = random.Random(25)
    clouds = pruned = 0
    for _trial in range(32):
        rows = skewed_rows(rng, rng.randint(30, 60))
        shards = rng.randint(1, 5)
        parts = sharded(rows, shards, max_terms=rng.randint(1, 8))
        doc_ids = rng.sample([row[0] for row in rows], rng.randint(15, len(rows)))
        docs = per_shard(doc_ids, shards)
        query_terms = stems(rng.sample(SKEWED[:8], 1))
        partials = [part.source.partial_gather(d) for part, d in zip(parts, docs)]
        unbounded = rng.choice(("frequency", "tfidf", ShiftedFrequency()))
        for scoring in ("popularity", unbounded):
            builder = parts[0].with_scoring(scoring)
            cloud, span = traced(
                lambda: builder.build_from_stats(
                    partials, len(doc_ids), query_terms=query_terms
                )
            )
            assert cloud.terms == oracle_cloud(
                builder,
                [part.source for part in parts],
                docs,
                len(doc_ids),
                query_terms,
            )
            if scoring == "popularity":
                clouds += 1
                pruned += span["scored"] < span["candidates"]
            else:
                assert span["scored"] == span["candidates"]
    assert pruned * 4 >= clouds * 3


@pytest.fixture(scope="module")
def small_app():
    university = CourseRank(generate_university(scale="small", seed=2008))
    university.cloudsearch.ensure_built()
    return university


def assert_oracle_cloud(builder, doc_ids, query_terms=()):
    cloud, span = traced(
        lambda: builder.build_for_docs(doc_ids, query_terms=query_terms)
    )
    assert cloud.terms == oracle_cloud(
        builder, [builder.source], [doc_ids], len(doc_ids), query_terms
    )
    return span


@pytest.mark.parametrize(
    "query", ["great", "history", "american", "project", "seminar"]
)
def test_broad_queries_on_a_real_corpus(small_app, query):
    result = small_app.cloudsearch.engine.search(query)
    assert len(result) >= 20
    span = assert_oracle_cloud(
        small_app.cloudsearch.builder, result.doc_ids(), result.terms
    )
    assert span["scored"] < span["candidates"]


def test_cube_root_and_every_department_slice_on_a_real_corpus(small_app):
    cube = small_app.cloudsearch.cube()
    root = cube.root()
    builder = small_app.cloudsearch.builder
    span = assert_oracle_cloud(builder, root.doc_ids)
    assert span["scored"] * 3 <= span["candidates"]
    children = cube.drill_down(root, "department")
    assert len(children) >= 5
    for cell in children.values():
        assert cell.cloud.terms == oracle_cloud(
            builder, [builder.source], [cell.doc_ids], cell.result_size, None
        )
        assert_oracle_cloud(builder, cell.doc_ids)
