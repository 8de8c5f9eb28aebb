"""The gather cache outlives writes to documents it does not cover.

``TermSource`` caches each partial under its ordered doc-id tuple with
the index epoch it was gathered at.  After a write the partial is reused
whole when the index touched none of its documents since (a
``revalidated`` hit) and gathered again otherwise; corpus df and corpus
size, which every write may move, are read when the cloud is built.  The
reference is always a cold ``CourseRank`` built over the database as the
writes left it.
"""

import sys
import threading

import pytest

from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.datagen import generate_university

#: words no generated course holds: a comment made of them adds only
#: terms in one document, which the ``min_result_df`` cut never shows
NONSENSE = ("xyzzy", "plugh", "frobnitz", "quux", "zorkmid", "grue")


@pytest.fixture()
def app():
    university = CourseRank(generate_university(scale="tiny", seed=7))
    university.cloudsearch.ensure_built()
    return university


def course_ids(app):
    return sorted(
        app.db.query("SELECT CourseID FROM Courses").column("CourseID")
    )


@pytest.fixture()
def comment(app):
    """``comment(course_id, text)`` through the facade's write path, by a
    student with no comment yet (a second comment by one student on one
    course replaces the first)."""
    students = set(app.db.query("SELECT SuID FROM Students").column("SuID"))
    commenters = set(app.db.query("SELECT SuID FROM Comments").column("SuID"))
    user = app.accounts.register(
        "cloudwriter", Role.STUDENT, person_id=min(students - commenters)
    )
    return lambda course_id, text: app.comment_on_course(
        user, course_id, text, 4.0
    )


def cold_cloud(app, doc_ids):
    cold = CourseRank(app.db)
    cold.cloudsearch.build()
    return cold.cloudsearch.builder.build_for_docs(doc_ids).terms


def counts_after(app, doc_ids):
    """Build the cloud over ``doc_ids``: (its terms, gather-cache deltas)."""
    source = app.cloudsearch.builder.source
    before = source.cache_info()
    terms = app.cloudsearch.builder.build_for_docs(doc_ids).terms
    after = source.cache_info()
    return terms, {key: after[key] - before[key] for key in before}


class TestRevalidation:
    def test_a_comment_outside_the_set_is_a_revalidated_hit(self, app, comment):
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        app.cloudsearch.builder.build_for_docs(inside)
        comment(ids[-1], "zanzibar field trip, would go again")
        terms, delta = counts_after(app, inside)
        assert delta == {"hits": 1, "misses": 0, "revalidated": 1, "size": 0}
        assert terms == cold_cloud(app, inside)
        # Re-stamped with the new epoch: the next build is a plain hit.
        _, delta = counts_after(app, inside)
        assert delta["hits"] == 1 and delta["revalidated"] == 0

    def test_a_comment_inside_the_set_forces_a_gather(self, app, comment):
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        app.cloudsearch.builder.build_for_docs(inside)
        for course_id in inside[:3]:
            comment(course_id, "zanzibar field trip, would go again")
        terms, delta = counts_after(app, inside)
        assert delta["misses"] == 1 and delta["hits"] == 0
        assert terms == cold_cloud(app, inside)
        gathered = app.cloudsearch.builder.source.gather(inside)
        assert {s.term: s.result_df for s in gathered}["zanzibar"] == 3

    def test_a_removed_course_is_gathered_again(self, app):
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        removed = inside[0]
        app.cloudsearch.builder.build_for_docs(inside)
        for table in app.db.table_names():
            for key in app.db.table(table).schema.foreign_keys:
                if key.ref_table == "Courses":
                    app.db.execute(
                        f"DELETE FROM {table} WHERE {key.columns[0]} = {removed}"
                    )
        app.db.execute(f"DELETE FROM Courses WHERE CourseID = {removed}")
        app.cloudsearch.engine.refresh_document(removed)
        terms, delta = counts_after(app, inside)
        assert delta["misses"] == 1 and delta["hits"] == 0
        assert terms == cold_cloud(app, inside)

    @pytest.mark.parametrize("prepare", [False, True])
    def test_a_rebuilt_engine_leaves_nothing_stale(self, app, prepare):
        """``engine.build()`` touches every document; ``prepare()`` on top
        empties the cache outright.  Either way the next cloud is
        gathered from the new text."""
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        app.cloudsearch.builder.build_for_docs(inside)
        app.db.execute(
            f"UPDATE Courses SET Title = 'Zanzibar Zanzibar' "
            f"WHERE CourseID IN ({inside[0]}, {inside[1]})"
        )
        app.cloudsearch.engine.build()
        if prepare:
            app.cloudsearch.builder.prepare()
            assert app.cloudsearch.builder.source.cache_info()["size"] == 0
        terms, delta = counts_after(app, inside)
        assert delta["misses"] == 1 and delta["hits"] == 0
        assert terms == cold_cloud(app, inside)
        gathered = app.cloudsearch.builder.source.gather(inside)
        assert {s.term: s.result_df for s in gathered}["zanzibar"] == 2

    def test_cache_info_reaches_the_observability_bundles(self, app):
        from repro.service import CourseRankService

        app.cloudsearch.search("history")
        gather = app.observability()["caches"]["search_result_cache"]["gather"]
        assert gather["misses"] >= 1
        assert set(gather) == {"hits", "misses", "revalidated", "size"}
        service = CourseRankService(
            generate_university(scale="tiny", seed=7), num_shards=2
        )
        service.search("history")
        shards = service.observability()["service"]["shard_search_caches"]
        assert [shard["gather"]["misses"] for shard in shards] == [1, 1]


def test_readers_racing_a_writer_get_the_serial_answers(app, comment):
    """Six readers build clouds over fixed document sets while a writer
    comments on courses inside and outside them, at a 10 µs switch
    interval, each side under its half of the database lock (as the
    service takes it).  The comments hold only words no other document
    has, so every cloud stays what it was: readers must get the serial
    answers whether they revalidated, re-gathered or caught up."""
    builder = app.cloudsearch.builder
    ids = course_ids(app)
    sets = [tuple(ids[start : start + 10]) for start in range(0, 30, 5)]
    written = [ids[0], ids[12], ids[-1], ids[-2]]  # two inside, two outside
    assert all(word not in builder.source._corpus_df for word in NONSENSE)
    serial = {docs: builder.build_for_docs(docs).terms for docs in sets}
    before = builder.source.cache_info()
    observed = []
    failures = []

    def reader(index):
        try:
            for step in range(12):
                docs = sets[(index + step) % len(sets)]
                with app.db.rwlock.read_locked():
                    observed.append((docs, builder.build_for_docs(docs).terms))
        except Exception as error:  # reported on the main thread
            failures.append(error)

    def writer():
        try:
            for step in range(12):
                words = " ".join(NONSENSE[step % 3 : step % 3 + 3])
                comment(written[step % len(written)], words)
        except Exception as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(index,)) for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(observed) == 6 * 12
    for docs, terms in observed:
        assert terms == serial[docs]
    for docs in sets:
        assert builder.build_for_docs(docs).terms == cold_cloud(app, docs)
    info = builder.source.cache_info()
    assert info["revalidated"] > 0
    # Every gather counted once, however the readers interleaved.
    gathers = len(observed) + len(sets)
    assert (info["hits"] + info["misses"]) - (
        before["hits"] + before["misses"]
    ) == gathers

