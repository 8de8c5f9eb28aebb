"""The gather cache follows writes by patching, not re-gathering.

``TermSource`` caches each partial under its ordered doc-id tuple with
the index epoch it describes, and serves it only at that epoch.  When the
source catches up with a write it holds each touched document's old and
new counters, and patches every cached partial holding the document
(old counts out, new in, times its multiplicity in the tuple) before
re-stamping every entry with the new epoch.  Corpus df and corpus size,
which every write may move, are read when the cloud is built.  The
reference is always a cold ``CourseRank`` built over the database as the
writes left it, and a fresh ``TermSource`` for the partials themselves.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clouds.cloud import cloud_over_shards
from repro.clouds.scoring import SCORINGS, TermSource
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


def uncommented_students(app, count):
    """``count`` students with no comment yet (a second comment by one
    student on one course replaces the first)."""
    students = set(app.db.query("SELECT SuID FROM Students").column("SuID"))
    commenters = set(app.db.query("SELECT SuID FROM Comments").column("SuID"))
    return sorted(students - commenters)[:count]


def writers(app, count, suids=None):
    """Accounts of ``count`` uncommented students, or of ``suids``."""
    if suids is None:
        suids = uncommented_students(app, count)
    return [
        app.accounts.register(f"cloudwriter{index}", Role.STUDENT, person_id=suid)
        for index, suid in enumerate(suids)
    ]


@pytest.fixture()
def comment(app):
    """``comment(course_id, text)`` through the facade's write path."""
    (user,) = writers(app, 1)
    return lambda course_id, text: app.comment_on_course(
        user, course_id, text, 4.0
    )


def remove_course(app, course_id):
    """Delete a course with every row referencing it; returns its row."""
    row = app.db.query(
        "SELECT * FROM Courses WHERE CourseID = ?", (course_id,)
    ).rows[0]
    for table in app.db.table_names():
        for key in app.db.table(table).schema.foreign_keys:
            if key.ref_table == "Courses":
                app.db.execute(
                    f"DELETE FROM {table} WHERE {key.columns[0]} = ?",
                    (course_id,),
                )
    app.db.execute("DELETE FROM Courses WHERE CourseID = ?", (course_id,))
    app.cloudsearch.engine.refresh_document(course_id)
    return row


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


def assert_partials_are_fresh(source):
    """Every cached partial is stamped with the source's epoch and is,
    dict for dict, what a freshly prepared source gathers over its tuple."""
    fresh = TermSource(source.engine)
    fresh.prepare()
    for ordered, (stamp, partial, _patched) in source._gather_cache.items():
        assert stamp == source._epoch
        expected = fresh.partial_gather(ordered)
        assert partial.occurrences == expected.occurrences
        assert partial.result_df == expected.result_df


class TestRevalidation:
    def test_a_comment_outside_the_set_is_a_revalidated_hit(self, app, comment):
        """Re-stamped with the new epoch, not patched, not gathered."""
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        app.cloudsearch.builder.build_for_docs(inside)
        comment(ids[-1], "zanzibar field trip, would go again")
        terms, delta = counts_after(app, inside)
        assert delta == {"hits": 1, "misses": 0, "patched": 0, "size": 0}
        assert terms == cold_cloud(app, inside)
        _, delta = counts_after(app, inside)
        assert delta == {"hits": 1, "misses": 0, "patched": 0, "size": 0}

    def test_a_comment_inside_the_set_is_a_patched_hit(self, app, comment):
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        app.cloudsearch.builder.build_for_docs(inside)
        for course_id in inside[:3]:
            comment(course_id, "zanzibar field trip, would go again")
        terms, delta = counts_after(app, inside)
        assert delta == {"hits": 1, "misses": 0, "patched": 1, "size": 0}
        assert terms == cold_cloud(app, inside)
        gathered = app.cloudsearch.builder.source.gather(inside)
        assert {s.term: s.result_df for s in gathered}["zanzibar"] == 3
        assert_partials_are_fresh(app.cloudsearch.builder.source)

    def test_a_removed_course_patches_its_sets(self, app):
        ids = course_ids(app)
        inside = ids[: len(ids) // 2]
        removed = inside[0]
        builder = app.cloudsearch.builder
        sets = (tuple(inside), tuple(inside[:4]), tuple(ids[len(ids) // 2 :]))
        for docs in sets:
            builder.build_for_docs(docs)
        remove_course(app, removed)
        before = builder.source.cache_info()
        clouds = [builder.build_for_docs(docs).terms for docs in sets]
        after = builder.source.cache_info()
        assert after["patched"] - before["patched"] == 2  # not the third
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == len(sets)
        assert clouds == [cold_cloud(app, docs) for docs in sets]
        assert_partials_are_fresh(builder.source)

    @pytest.mark.parametrize("prepare", [False, True])
    def test_a_rebuilt_engine_leaves_nothing_stale(self, app, prepare):
        """``engine.build()`` touches every document, so the catch-up
        patches every one of them; ``prepare()`` on top empties the cache
        outright, so the next cloud is gathered.  Either way it is the
        new text's cloud."""
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
        if prepare:
            assert delta == {"hits": 0, "misses": 1, "patched": 0, "size": 1}
        else:
            assert delta == {"hits": 1, "misses": 0, "patched": 1, "size": 0}
        assert terms == cold_cloud(app, inside)
        gathered = app.cloudsearch.builder.source.gather(inside)
        assert {s.term: s.result_df for s in gathered}["zanzibar"] == 2
        assert_partials_are_fresh(app.cloudsearch.builder.source)

    def test_cache_info_reaches_the_observability_bundles(self, app):
        from repro.service import CourseRankService

        app.cloudsearch.search("history")
        gather = app.observability()["caches"]["search_answer_cache"]["gather"]
        assert gather["misses"] >= 1
        assert set(gather) == {"hits", "misses", "patched", "size"}
        service = CourseRankService(
            generate_university(scale="tiny", seed=7), num_shards=2
        )
        service.search("history")
        shards = service.observability()["service"]["shard_search_caches"]
        assert [shard["gather"]["misses"] for shard in shards] == [1, 1]

    def test_the_patch_is_counted_in_obs(self, app, comment):
        from repro.obs import OBS

        ids = course_ids(app)
        app.cloudsearch.builder.build_for_docs(ids[:10])
        comment(ids[0], "zanzibar field trip")
        OBS.reset()
        OBS.enable()
        try:
            app.cloudsearch.builder.build_for_docs(ids[:10])
            patched = OBS.metrics.counter("cloud.gather.patched")
        finally:
            OBS.disable()
            OBS.reset()
        assert patched == 1


#: a course id no generated university holds
UNKNOWN = 10_000
#: comment words: common corpus words (their df crosses the cut as
#: comments come and go) and one no course holds
WORDS = ("history", "introduction", "systems", "data", "theory", "xyzzy")

writes = st.lists(
    st.one_of(
        st.tuples(
            st.just("comment"),
            st.integers(0, 47),
            st.integers(0, 1),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
        ),
        st.tuples(st.just("remove"), st.integers(0, 47)),
        st.tuples(st.just("restore")),
        st.tuples(
            st.just("title"),
            st.integers(0, 47),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
        ),
    ),
    min_size=1,
    max_size=6,
)


def test_an_unbuilt_index_builds_on_its_first_cloud(app):
    """A cloud over a fresh ``CourseCloudSearch`` builds the index first,
    so it equals the built one's rather than an empty cloud; a bare
    builder over a never-built engine refuses instead of answering."""
    from repro.clouds.cloud import CloudBuilder
    from repro.errors import SearchError
    from repro.search.engine import SearchEngine
    from repro.search.entity import course_entity

    ids = course_ids(app)
    built = app.cloudsearch.builder.build_for_docs(ids)
    assert built.terms
    fresh = CourseRank(generate_university(scale="tiny", seed=7)).cloudsearch
    assert not fresh.indexed
    assert fresh.builder.build_for_docs(ids).terms == built.terms
    assert fresh.indexed
    bare = CloudBuilder(SearchEngine(fresh.database, course_entity()))
    with pytest.raises(SearchError):
        cloud_over_shards([(bare, ids)])


class Replica:
    """One build the property writes to: the unsharded facade, or the
    service at one shard count (every write goes to the owning shard,
    comments through the service's write path)."""

    def __init__(self, app, suids, num_shards=None):
        from repro.service import CourseRankService

        if num_shards is None:
            self.apps, self.shard_of = [app], lambda course_id: 0
            self.service, self.comment_on_course = None, app.comment_on_course
        else:
            service = CourseRankService(app.db, num_shards=num_shards)
            self.service, self.comment_on_course = (
                service,
                service.comment_on_course,
            )
            self.apps = service.apps
            # unknown ids hold no terms anywhere: shard 0 counts them
            self.shard_of = lambda course_id: service.sharded.course_shard.get(
                course_id, 0
            )
        self.users = [writers(shard, len(suids), suids) for shard in self.apps]

    def app_of(self, course_id):
        return self.apps[self.shard_of(course_id)]

    def write(self, kind, course_id, args, row):
        app = self.app_of(course_id)
        if kind == "restore":
            app.db.table("Courses").insert(list(row))
            app.cloudsearch.engine.refresh_document(course_id)
        elif kind == "comment":
            user = self.users[self.shard_of(course_id)][args[1]]
            self.comment_on_course(user, course_id, " ".join(args[2]), 3.0)
        elif kind == "enroll":
            app.db.execute(
                "INSERT INTO Enrollments VALUES (?, ?, 2008, 'Autumn', 'A')",
                (args[1], course_id),
            )
        elif kind == "remove":
            remove_course(app, course_id)
        elif kind == "title":
            app.db.execute(
                "UPDATE Courses SET Title = ? WHERE CourseID = ?",
                (" ".join(args[1]).title(), course_id),
            )
            app.cloudsearch.engine.refresh_document(course_id)

    def clouds(self, sets, scoring):
        """Each set's cloud through ``cloud_over_shards``, every shard
        holding its share of the set (in the set's order)."""
        builders = [
            app.cloudsearch.builder.with_scoring(scoring) for app in self.apps
        ]
        clouds = []
        for docs in sets:
            shares = [[] for _ in self.apps]
            for doc_id in docs:
                shares[self.shard_of(doc_id)].append(doc_id)
            clouds.append(cloud_over_shards(zip(builders, shares)).terms)
        return clouds


@settings(max_examples=20, deadline=None)
@given(data=st.data(), steps=writes, num_shards=st.integers(1, 5))
def test_patched_partials_equal_fresh_gathers(data, steps, num_shards):
    """Random comment adds and replacements, course removals and
    re-additions, title edits, on the facade and on the service at 1–5
    shards (each write also goes to the owning shard).  The cached sets
    repeat documents and hold ones the index never had.  After every
    write each shard's cached partials ``==`` a fresh gather over its
    tuple, and each cloud, under every registered scoring, a cold
    unsharded build."""
    app = CourseRank(generate_university(scale="tiny", seed=7))
    app.cloudsearch.ensure_built()
    ids = course_ids(app)
    pool = st.sampled_from(ids + [UNKNOWN])
    sets = [tuple(ids)] + [
        tuple(data.draw(st.lists(pool, min_size=1, max_size=16)))
        for _ in range(3)
    ]
    suids = uncommented_students(app, 2)
    # the service splits a copy of the data before the facade registers
    # its writers (each build registers its own)
    sharded = Replica(app, suids, num_shards)
    replicas = [Replica(app, suids), sharded]
    for replica in replicas:
        replica.clouds(sets, "popularity")
    removed = []
    for kind, *args in steps:
        row = None
        if kind == "restore":
            if not removed:
                continue
            row = removed.pop()
            course_id = row[0]
        else:
            present = course_ids(app)
            course_id = present[args[0] % len(present)]
            if kind == "remove":
                row = app.db.query(
                    "SELECT * FROM Courses WHERE CourseID = ?", (course_id,)
                ).rows[0]
                removed.append(row)
        for replica in replicas:
            replica.write(kind, course_id, args, row)
        cold = CourseRank(app.db)
        cold.cloudsearch.build()
        for scoring in sorted(SCORINGS):
            expected = cold.cloudsearch.builder.with_scoring(scoring)
            expected = [expected.build_for_docs(docs).terms for docs in sets]
            for replica in replicas:
                assert replica.clouds(sets, scoring) == expected
        for replica in replicas:
            for shard in replica.apps:
                assert_partials_are_fresh(shard.cloudsearch.builder.source)


def test_readers_racing_a_writer_get_the_serial_answers(app, comment):
    """Six readers build clouds over fixed document sets while a writer
    comments on courses inside and outside them, at a 10 µs switch
    interval, each side under its half of the database lock (as the
    service takes it).  The comments hold only words no other document
    has, so every cloud stays what it was: readers must get the serial
    answers whether they hit, patched, re-gathered or caught up."""
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
    assert info["patched"] > 0
    # Every gather counted once, however the readers interleaved.
    gathers = len(observed) + len(sets)
    assert (info["hits"] + info["misses"]) - (
        before["hits"] + before["misses"]
    ) == gathers
    assert_partials_are_fresh(builder.source)
