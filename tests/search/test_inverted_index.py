"""Unit tests for the inverted index."""

import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.search.inverted_index import InvertedIndex


def build_sample():
    index = InvertedIndex()
    index.add_document(1, {"title": ["american", "histori"], "comments": ["great"]})
    index.add_document(2, {"title": ["american", "polit"]})
    index.add_document(3, {"comments": ["histori", "histori", "boring"]})
    return index


class TestBuild:
    def test_document_count(self):
        assert build_sample().document_count == 3

    def test_vocabulary(self):
        index = build_sample()
        assert index.vocabulary_size == 5
        assert set(index.terms()) == {
            "american", "histori", "great", "polit", "boring",
        }

    def test_empty_fields_skipped(self):
        index = InvertedIndex()
        index.add_document(1, {"title": [], "comments": ["x"]})
        assert index.field_length(1, "title") == 0
        assert index.field_length(1, "comments") == 1

    def test_readding_replaces(self):
        index = build_sample()
        index.add_document(1, {"title": ["new"]})
        assert index.document_frequency("american") == 1
        assert index.document_frequency("new") == 1
        assert index.document_count == 3


class TestStatistics:
    def test_document_frequency(self):
        index = build_sample()
        assert index.document_frequency("american") == 2
        assert index.document_frequency("histori") == 2
        assert index.document_frequency("missing") == 0

    def test_term_frequency_across_fields(self):
        index = build_sample()
        assert index.term_frequency(3, "histori") == 2
        assert index.term_frequency(1, "histori") == 1
        assert index.term_frequency(1, "missing") == 0

    def test_collection_frequency(self):
        assert build_sample().collection_frequency("histori") == 3

    def test_idf_decreases_with_df(self):
        index = build_sample()
        assert index.idf("boring") > index.idf("american")

    def test_idf_empty_index(self):
        assert InvertedIndex().idf("x") == 0.0

    def test_field_lengths(self):
        index = build_sample()
        assert index.field_length(1, "title") == 2
        assert index.field_length(3, "comments") == 3
        assert index.document_length(1) == 3

    def test_average_field_length(self):
        index = build_sample()
        # title fields: lengths 2 and 2
        assert index.average_field_length("title") == 2.0
        assert index.average_field_length("nope") == 0.0


class TestAccess:
    def test_postings_shape(self):
        index = build_sample()
        postings = index.postings("american")
        assert postings == {1: {"title": 1}, 2: {"title": 1}}

    def test_matching_documents(self):
        index = build_sample()
        assert index.matching_documents("histori") == {1, 3}

    def test_document_terms_forward(self):
        index = build_sample()
        forward = index.document_terms(3)
        assert forward["comments"]["histori"] == 2

    def test_document_terms_missing(self):
        with pytest.raises(SearchError):
            build_sample().document_terms(99)


class TestRemove:
    def test_remove_document(self):
        index = build_sample()
        index.remove_document(1)
        assert index.document_count == 2
        assert index.document_frequency("great") == 0
        assert index.matching_documents("american") == {2}

    def test_remove_missing(self):
        with pytest.raises(SearchError):
            build_sample().remove_document(99)

    def test_remove_then_stats_consistent(self):
        index = build_sample()
        index.remove_document(3)
        assert index.term_frequency(3, "histori") == 0
        assert index.average_field_length("comments") == 1.0

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.lists(
                st.sampled_from(["alpha", "beta", "gamma"]),
                min_size=1,
                max_size=5,
            ),
            max_size=10,
        )
    )
    def test_add_remove_all_leaves_empty(self, docs):
        index = InvertedIndex()
        for doc_id, tokens in docs.items():
            index.add_document(doc_id, {"body": tokens})
        for doc_id in docs:
            index.remove_document(doc_id)
        assert index.document_count == 0
        assert index.vocabulary_size == 0

    def test_remove_leaves_no_zeroed_field_entries(self):
        """Regression: `_field_tokens` entries decremented to 0 must not
        linger, and holder counts must not go stale after churn."""
        index = InvertedIndex()
        index.add_document(1, {"title": ["a", "b"], "comments": ["c"]})
        index.remove_document(1)
        assert index._field_tokens == {}
        assert index._field_holders == {}
        assert index.average_field_length("title") == 0.0
        assert index.field_holder_count("title") == 0


def assert_statistics_match(churned, fresh, fields, doc_ids, terms):
    """Every public statistic of a churned index equals a fresh build's."""
    assert churned.document_count == fresh.document_count
    assert churned.vocabulary_size == fresh.vocabulary_size
    assert set(churned.terms()) == set(fresh.terms())
    for field in fields:
        assert churned.average_field_length(field) == fresh.average_field_length(field)
        assert churned.field_holder_count(field) == fresh.field_holder_count(field)
        average = fresh.average_field_length(field)
        assert churned.length_normalizers(field, 0.6, average) == fresh.length_normalizers(field, 0.6, average)
    for term in terms:
        assert churned.document_frequency(term) == fresh.document_frequency(term)
        assert churned.idf(term) == fresh.idf(term)
        assert churned.collection_frequency(term) == fresh.collection_frequency(term)
        assert churned.postings(term) == fresh.postings(term)
    for doc_id in doc_ids:
        assert churned.document_length(doc_id) == fresh.document_length(doc_id)
        for field in fields:
            assert churned.field_length(doc_id, field) == fresh.field_length(doc_id, field)


class TestChurnRegression:
    """Add/remove/re-add must leave statistics identical to a fresh build."""

    DOCS = {
        1: {"title": ["american", "histori"], "comments": ["great", "great"]},
        2: {"title": ["american", "polit"]},
        3: {"comments": ["histori", "histori", "boring"]},
        4: {"title": ["databas"], "comments": ["fast"]},
    }
    FIELDS = ("title", "comments", "nope")
    TERMS = ("american", "histori", "great", "polit", "boring", "databas", "fast", "zzz")

    def churn(self):
        index = InvertedIndex()
        for doc_id, fields in self.DOCS.items():
            index.add_document(doc_id, fields)
        # Churn: remove two docs, re-add one of them changed, then restore.
        index.remove_document(1)
        index.remove_document(3)
        index.add_document(1, {"title": ["temporari"]})
        index.add_document(1, self.DOCS[1])
        index.add_document(3, self.DOCS[3])
        return index

    def fresh(self):
        index = InvertedIndex()
        index.add_documents(self.DOCS)
        return index

    def test_churned_statistics_match_fresh_build(self):
        assert_statistics_match(
            self.churn(), self.fresh(), self.FIELDS, self.DOCS, self.TERMS
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.booleans(),  # True = (re)add, False = remove-if-present
            ),
            max_size=12,
        )
    )
    def test_random_churn_matches_fresh_build(self, operations):
        index = InvertedIndex()
        alive = {}
        for doc_id, adding in operations:
            if adding:
                index.add_document(doc_id, self.DOCS[doc_id])
                alive[doc_id] = self.DOCS[doc_id]
            elif doc_id in alive:
                index.remove_document(doc_id)
                del alive[doc_id]
        fresh = InvertedIndex()
        fresh.add_documents(alive)
        assert_statistics_match(index, fresh, self.FIELDS, self.DOCS, self.TERMS)


class TestEpochAndBatch:
    def test_epoch_bumps_on_mutations(self):
        index = InvertedIndex()
        start = index.epoch
        index.add_document(1, {"title": ["a"]})
        after_add = index.epoch
        assert after_add > start
        index.remove_document(1)
        after_remove = index.epoch
        assert after_remove > after_add
        index.clear()
        assert index.epoch > after_remove

    def test_epoch_stable_across_reads(self):
        index = build_sample()
        epoch = index.epoch
        index.average_field_length("title")
        index.length_normalizers("title", 0.6, 2.0)
        index.idf("american")
        list(index.terms())
        assert index.epoch == epoch

    def test_add_documents_batch_equals_sequential(self):
        docs = {
            1: {"title": ["a", "b"]},
            2: {"title": ["b"], "comments": ["c", "c"]},
        }
        batched = InvertedIndex()
        assert batched.add_documents(docs) == 2
        sequential = InvertedIndex()
        for doc_id, fields in docs.items():
            sequential.add_document(doc_id, fields)
        assert_statistics_match(
            batched, sequential, ("title", "comments"), docs, ("a", "b", "c")
        )

    def test_add_documents_single_epoch_bump(self):
        index = InvertedIndex()
        before = index.epoch
        index.add_documents({1: {"t": ["x"]}, 2: {"t": ["y"]}, 3: {"t": ["z"]}})
        assert index.epoch == before + 1
        assert index.add_documents({}) == 0
        assert index.epoch == before + 1  # empty batch: no bump

    def test_touched_since_lists_exactly_the_changes_after_an_epoch(self):
        index = InvertedIndex()
        index.add_documents({1: {"t": ["x"]}, 2: {"t": ["y"]}, 3: {"t": ["z"]}})
        built = index.epoch
        assert sorted(index.touched_since(-1)) == [1, 2, 3]
        assert index.touched_since(built) == []
        index.add_document(2, {"t": ["y", "y"]})  # replaced
        replaced = index.epoch
        index.remove_document(3)
        index.add_document(4, {"t": ["w"]})
        assert sorted(index.touched_since(built)) == [2, 3, 4]
        assert sorted(index.touched_since(replaced)) == [3, 4]
        assert not index.has_document(3)
        # Re-touching keeps one entry per document, however many writes.
        for _ in range(5):
            index.add_document(2, {"t": ["y"]})
        assert index.touched_since(index.epoch - 1) == [2]
        assert len(index._touched) == 4
        cleared_from = index.epoch
        index.clear()
        assert sorted(index.touched_since(cleared_from)) == [1, 2, 4]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("add", "remove", "clear")), st.integers(0, 7)
            ),
            max_size=60,
        )
    )
    def test_touched_since_matches_a_full_change_log(self, operations):
        """Against every past epoch: exactly the documents whose latest
        change came after it, newest first, with a log that stays within
        twice the number of documents ever touched."""
        index = InvertedIndex()
        latest = {}  # doc -> epoch published by its latest change
        for kind, doc_id in operations:
            if kind == "clear":
                changed = list(index.document_ids())
                index.clear()
            elif kind == "remove":
                if not index.has_document(doc_id):
                    continue
                changed = [doc_id]
                index.remove_document(doc_id)
            else:
                changed = [doc_id]
                index.add_document(doc_id, {"t": ["x"] * (1 + doc_id % 3)})
            for changed_id in changed:
                latest.pop(changed_id, None)
                latest[changed_id] = index.epoch
            assert len(index._touch_log) <= 2 * len(index._touched)
        for epoch in range(-1, index.epoch + 1):
            expected = [
                doc_id for doc_id, published in reversed(latest.items())
                if published > epoch
            ]
            assert index.touched_since(epoch) == expected

    def test_touched_since_under_a_concurrent_writer(self):
        """The facade reads the change log without a lock while a writer
        adds, replaces and removes documents (compacting the log as it
        goes).  No read may fail, list a document twice, or miss a change
        published by the epoch it read before asking."""
        index = InvertedIndex()
        index.add_documents({doc_id: {"t": ["x"]} for doc_id in range(40)})
        published = []  # (epoch, doc_id), appended after each write
        done = threading.Event()
        failures = []

        def writer():
            rng = random.Random(11)
            try:
                for step in range(4000):
                    doc_id = rng.randrange(48)
                    if index.has_document(doc_id) and rng.random() < 0.3:
                        index.remove_document(doc_id)
                    else:
                        index.add_document(doc_id, {"t": ["y"] * (1 + step % 3)})
                    published.append((index.epoch, doc_id))
            finally:
                done.set()

        def reader(seed):
            rng = random.Random(seed)
            reads = 0
            try:
                while not done.is_set() or reads < 50:
                    now = index.epoch
                    since = now - rng.randrange(1, 300)
                    touched = index.touched_since(since)
                    reads += 1
                    assert len(touched) == len(set(touched))
                    missing = {
                        doc_id
                        for epoch, doc_id in list(published)
                        if since < epoch <= now
                    }.difference(touched)
                    assert not missing, (since, now, missing)
            except Exception as error:  # reported on the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(seed,))
                for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(index._touch_log) <= 2 * len(index._touched)

    def test_length_normalizers_values(self):
        index = build_sample()
        # title lengths: doc1=2, doc2=2; average 2.0.
        table = index.length_normalizers("title", 0.6, 2.0)
        expected = 1.0 / (1.0 - 0.6 + (0.6 / 2.0) * 2)
        assert table == {1: expected, 2: expected}
        # Docs without the field have no entry.
        assert 3 not in table

    def test_length_normalizers_rebuilt_after_mutation(self):
        index = build_sample()
        average = index.average_field_length("comments")
        first = index.length_normalizers("comments", 0.6, average)
        assert index.length_normalizers("comments", 0.6, average) is first  # cached
        index.add_document(9, {"comments": ["new", "new", "new"]})
        second = index.length_normalizers(
            "comments", 0.6, index.average_field_length("comments")
        )
        assert second is not first
        assert 9 in second

    def test_length_normalizers_one_table_per_field(self):
        """A new average re-stamps the field's one table, never adds one."""
        index = build_sample()
        tables = [
            index.length_normalizers("title", 0.6, average)
            for average in (1.0, 2.0, 3.0, 2.0)
        ]
        assert len(index._norm_tables) == 1
        assert tables[1] == tables[3] and tables[1] is not tables[3]
        assert tables[0] != tables[1]

    def test_length_normalizers_empty_field(self):
        assert InvertedIndex().length_normalizers("title", 0.6, 0.0) == {}
