"""Thread-safety of the hot paths: locks, caches, and churn.

The cache hammer drives the three shared caches — the database plan
cache, the search result cache, and the extend-vector cache — from many
threads at once, first read-only (every thread must see exactly the
single-threaded answers) and then against concurrent write churn (after
quiescence, every cached answer must equal a from-scratch rebuild: a
lost invalidation would surface here as a stale row count, hit list, or
vector map).
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.extendcache import (
    build_vectors,
    clear_extend_cache,
    extend_vectors,
)
from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.datagen import generate_university
from repro.minidb.concurrency import RWLock

THREADS = 6

SQL_QUERIES = [
    "SELECT COUNT(*) FROM Comments",
    "SELECT CourseID, COUNT(*) FROM Comments GROUP BY CourseID "
    "ORDER BY CourseID LIMIT 5",
    "SELECT AVG(Rating) FROM Comments WHERE Rating IS NOT NULL",
    "SELECT c.Title FROM Courses c JOIN Departments d "
    "ON c.DepID = d.DepID ORDER BY c.CourseID LIMIT 4",
]

SEARCH_QUERIES = ["programming", "data", "history", "theory"]

EXTEND_INFO = SimpleNamespace(
    source_table="Comments",
    source_key="CourseID",
    value_column="Rating",
    map_column=None,
)


def _run_threads(count, target):
    errors = []
    barrier = threading.Barrier(count)

    def wrapped(index):
        try:
            barrier.wait()
            target(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    assert not any(thread.is_alive() for thread in threads)


def _read_once(app):
    """One deterministic pass over all three caches' read paths."""
    results = []
    for sql in SQL_QUERIES:
        results.append(tuple(map(tuple, app.db.query(sql).rows)))
    for query in SEARCH_QUERIES:
        result, cloud = app.cloudsearch.search(query)
        results.append(tuple((hit.doc_id, hit.score) for hit in result.hits))
        results.append(tuple((term.term, term.score) for term in cloud.terms))
    vectors, _ = extend_vectors(app.db, EXTEND_INFO)
    results.append(
        tuple(sorted((key, tuple(sorted(value))) for key, value in vectors.items()))
    )
    return results


@pytest.fixture()
def app():
    application = CourseRank(generate_university(scale="tiny", seed=5))
    application.cloudsearch.build()
    clear_extend_cache(application.db)
    return application


class TestCacheHammer:
    def test_concurrent_reads_equal_single_threaded_replay(self, app):
        expected = _read_once(app)
        observed = [None] * THREADS

        def reader(index):
            for _ in range(5):
                observed[index] = _read_once(app)

        _run_threads(THREADS, reader)
        for result in observed:
            assert result == expected

    def test_churn_loses_no_invalidations(self, app):
        user = app.accounts.register("hammer", Role.STUDENT, person_id=1)
        comments = [
            (1 + (step % 3), f"churn note {step} about telescopes", 3.5)
            for step in range(24)
        ]

        def worker(index):
            if index == 0:
                # Single designated writer: deterministic end state.
                for course_id, text, rating in comments:
                    app.comment_on_course(user, course_id, text, rating)
            else:
                for _ in range(8):
                    _read_once(app)

        _run_threads(THREADS, worker)

        # Quiescent state must equal a from-scratch build with the same
        # writes applied — any stale cache entry diverges here.
        fresh = CourseRank(generate_university(scale="tiny", seed=5))
        fresh.cloudsearch.build()
        fresh_user = fresh.accounts.register("hammer", Role.STUDENT, person_id=1)
        for course_id, text, rating in comments:
            fresh.comment_on_course(fresh_user, course_id, text, rating)
        clear_extend_cache(fresh.db)
        assert _read_once(app) == _read_once(fresh)

    def test_facade_write_waits_for_a_held_read_lock(self, app):
        # Facade writers mutate tables directly, so they must take the
        # database write lock themselves: while any reader holds the
        # read side (a db.query mid-scan), Comments cannot change.
        user = app.accounts.register("held", Role.STUDENT, person_id=1)
        comments = app.db.table("Comments")
        writer = threading.Thread(
            target=app.comment_on_course,
            args=(user, 1, "held back", 4.0),
            daemon=True,
        )
        with app.db.rwlock.read_locked():
            before = comments.data_version
            writer.start()
            writer.join(timeout=0.3)
            assert writer.is_alive()
            assert comments.data_version == before
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert comments.data_version > before

    def test_extend_cache_rebuilds_after_write(self, app):
        vectors, hit = extend_vectors(app.db, EXTEND_INFO)
        assert not hit
        _, hit = extend_vectors(app.db, EXTEND_INFO)
        assert hit
        user = app.accounts.register("inv", Role.STUDENT, person_id=2)
        app.comment_on_course(user, 1, "invalidation probe", 2.5)
        rebuilt, hit = extend_vectors(app.db, EXTEND_INFO)
        assert not hit  # data_version moved -> new key, no stale serve
        assert rebuilt == build_vectors(app.db.table("Comments"), EXTEND_INFO)


class TestSharedRelations:
    """Cached FlexRecs relations — rows, σ indexes, postings, token
    columns — are built lazily by whichever request gets there first and
    then read by every thread of the shard under the *read* lock."""

    STRATEGIES = (
        "related_courses",
        "courses_taken_together",
        "similar_audience_courses",
    )

    def _answers(self, application, course_ids):
        return [
            [
                tuple(sorted(row.items()))
                for row in application.recommendations.run(
                    name, path="direct", course_id=course_id
                ).rows
            ]
            for name in self.STRATEGIES
            for course_id in course_ids
        ]

    def test_threads_on_a_cold_database_equal_the_serial_answers(self):
        # small, not tiny: a build must outlast the switch interval for a
        # second thread to be able to see it half done
        app = CourseRank(generate_university(scale="small", seed=5))
        course_ids = app.db.query(
            "SELECT CourseID FROM Courses ORDER BY CourseID LIMIT 3"
        ).column("CourseID")
        serial = CourseRank(generate_university(scale="small", seed=5))
        expected = self._answers(serial, course_ids)
        assert any(expected)
        observed = [None] * THREADS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(3):
                clear_extend_cache(app.db)  # every round races the cold builds

                def reader(index):
                    with app.db.rwlock.read_locked():
                        observed[index] = self._answers(app, course_ids)

                _run_threads(THREADS, reader)
                for result in observed:
                    assert result == expected
        finally:
            sys.setswitchinterval(interval)


class TestCloudCatchUp:
    def test_readers_racing_to_catch_up_apply_each_write_once(self):
        """After a write every reader finds the forward index one epoch
        behind at once, under a *read* lock.  One must catch up and the
        rest wait: a change applied twice leaves a corpus df that no cold
        build has (or dies deleting a term that is already gone)."""
        from repro.clouds.scoring import TermSource
        from repro.service import CourseRankService

        service = CourseRankService(
            generate_university(scale="tiny", seed=5), num_shards=2
        )
        users = [
            shard_app.accounts.register("racer", Role.STUDENT, person_id=1)
            for shard_app in service.apps
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for step in range(6):
                course_id = 1 + step % 3
                service.comment_on_course(
                    users[service.sharded.shard_of_course(course_id)],
                    course_id,
                    f"nebula {step} seen through telescopes",
                    3.5,
                )
                clouds = [None] * THREADS

                def reader(index):
                    clouds[index] = service.search("telescopes")[1].terms

                _run_threads(THREADS, reader)
                assert clouds[0] and all(c == clouds[0] for c in clouds)
        finally:
            sys.setswitchinterval(interval)
        for shard_app in service.apps:
            live = shard_app.cloudsearch.builder.source
            cold = TermSource(shard_app.cloudsearch.engine)
            cold.prepare()
            assert live._corpus_df == cold._corpus_df
            assert live._doc_terms == cold._doc_terms


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        lock = RWLock()
        in_critical = []
        results = []

        def writer():
            with lock.write_locked():
                in_critical.append("w")
                assert in_critical.count("w") == 1
                results.append(lock.write_held)
                in_critical.remove("w")

        def reader():
            with lock.read_locked():
                assert "w" not in in_critical
                results.append(lock.active_readers >= 1)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results)

    def test_read_reentrant_and_write_implies_read(self):
        lock = RWLock()
        with lock.read_locked():
            with lock.read_locked():
                assert lock.active_readers == 1
        with lock.write_locked():
            with lock.read_locked():
                assert lock.write_held
            with lock.write_locked():
                assert lock.write_held

    def test_upgrade_refused(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_transaction_holds_the_database_write_lock(self):
        from repro.minidb import Database

        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        database.begin()
        assert database.rwlock.write_held
        database.execute("INSERT INTO t VALUES (1)")
        database.commit()
        assert not database.rwlock.write_held
        database.begin()
        database.rollback()
        assert not database.rwlock.write_held


class TestServiceConcurrency:
    def test_parallel_mixed_traffic_is_consistent(self):
        from repro.service import CourseRankService

        service = CourseRankService(
            generate_university(scale="tiny", seed=5), num_shards=3
        )

        def answer(query):
            result, _ = service.search(query)
            hits = [(hit.doc_id, hit.score) for hit in result.hits]
            return hits, result.candidate_count

        expected = {query: answer(query) for query in SEARCH_QUERIES}

        def worker(index):
            for step in range(6):
                query = SEARCH_QUERIES[(index + step) % len(SEARCH_QUERIES)]
                assert answer(query) == expected[query]

        _run_threads(THREADS, worker)


class TestSharedServiceCube:
    """The load generator and the benchmark clients keep one service cube
    across calls, so its cell memo is a lazily built structure shared by
    every worker — and every session's steps come from the shared
    response cache.  Six threads walk one cube and open sessions."""

    DIMENSIONS = ("department", "quarter", "instructor")

    @staticmethod
    def _cell(cell):
        return (
            cell.coordinate,
            cell.shard_doc_ids,
            tuple(
                (t.term, t.score, t.occurrences, t.result_df, t.bucket)
                for t in cell.cloud.terms
            ),
        )

    def _walk(self, cube):
        answers = []
        for dimension in self.DIMENSIONS:
            root = cube.root()
            values = cube.dimension_values(root, dimension)
            children = [cube.slice(root, dimension, v) for v in values[:3]]
            parents = [cube.roll_up(child) for child in children]
            answers.append(
                (
                    self._cell(root),
                    tuple(values),
                    tuple(map(self._cell, children)),
                    tuple(map(self._cell, parents)),
                )
            )
        return answers

    @staticmethod
    def _sessions(service):
        answers = []
        for query in SEARCH_QUERIES:
            session = service.session(query)
            first = (tuple(session.result.doc_ids()), session.cloud.terms)
            refined = None
            if session.cloud.terms:
                step = session.refine(session.cloud.terms[0].term)
                refined = (tuple(step.result.doc_ids()), step.cloud.terms)
                session.back()
            answers.append((first, refined, session.history()))
        return answers

    @staticmethod
    def _service():
        from repro.service import CourseRankService

        return CourseRankService(
            generate_university(scale="tiny", seed=5), num_shards=3
        )

    def _race(self, worker):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(THREADS, worker)
        finally:
            sys.setswitchinterval(interval)

    KINDS = ("search", "session", "cube")

    def _first_reads(self, target, kinds):
        """Every search, session and cube walk, in the order of ``kinds``;
        ``target`` is a service or a facade's ``cloudsearch``."""
        answers = {}
        for kind in kinds:
            if kind == "search":
                answers[kind] = [
                    (tuple(result.doc_ids()), tuple(cloud.terms))
                    for result, cloud in map(target.search, SEARCH_QUERIES)
                ]
            elif kind == "session":
                answers[kind] = self._sessions(target)
            else:
                answers[kind] = self._walk(target.cube())
        return answers

    @pytest.mark.parametrize("num_shards", [None, 3])
    def test_first_readers_build_each_index_once(
        self, monkeypatch, num_shards
    ):
        """Six threads make the first reads of a fresh service (of a fresh
        facade for ``None``), each starting on another of the search,
        session and cube paths: every thread gets the serial answers, and
        every shard's index is built exactly once."""
        from repro.search.engine import SearchEngine
        from repro.service import CourseRankService

        def fresh():
            database = generate_university(scale="tiny", seed=5)
            if num_shards is None:
                return CourseRank(database).cloudsearch
            return CourseRankService(database, num_shards=num_shards)

        expected = self._first_reads(fresh(), self.KINDS)
        built = []
        build = SearchEngine.build

        def counting_build(engine):
            built.append(engine)  # list.append: no update lost to a race
            return build(engine)

        monkeypatch.setattr(SearchEngine, "build", counting_build)
        target = fresh()
        assert not built
        observed = [None] * THREADS

        def reader(index):
            start = index % len(self.KINDS)
            kinds = self.KINDS[start:] + self.KINDS[:start]
            observed[index] = self._first_reads(target, kinds)

        self._race(reader)
        for answers in observed:
            assert answers == expected
        engines = {id(engine) for engine in built}
        assert len(built) == len(engines) == (num_shards or 1)

    def test_readers_sharing_one_cube_get_the_serial_answers(self):
        serial_service = self._service()
        expected = (
            self._walk(serial_service.cube()),
            self._sessions(serial_service),
        )
        service = self._service()
        cube = service.cube()
        observed = [None] * THREADS

        def reader(index):
            for _ in range(3):
                observed[index] = (self._walk(cube), self._sessions(service))

        self._race(reader)
        for answers in observed:
            assert answers == expected
        assert cube.stats["memo_hits"] > 0

    def test_a_writer_racing_the_shared_cube_leaves_it_fresh(self):
        service = self._service()
        users = [
            app.accounts.register("cubewriter", Role.STUDENT, person_id=1)
            for app in service.apps
        ]
        comments = [
            (1 + step % 5, f"telescopes and nebula notes {step}", 4.0)
            for step in range(12)
        ]
        cube = service.cube()
        before = self._walk(cube)

        def worker(index):
            if index == 0:
                for course_id, text, rating in comments:
                    service.comment_on_course(
                        users[service.sharded.shard_of_course(course_id)],
                        course_id,
                        text,
                        rating,
                    )
            else:
                for _ in range(4):
                    self._walk(cube)
                    self._sessions(service)

        self._race(worker)

        fresh = self._service()
        fresh_users = [
            app.accounts.register("cubewriter", Role.STUDENT, person_id=1)
            for app in fresh.apps
        ]
        for course_id, text, rating in comments:
            fresh.comment_on_course(
                fresh_users[fresh.sharded.shard_of_course(course_id)],
                course_id,
                text,
                rating,
            )
        expected = self._walk(fresh.cube())
        assert expected != before  # the writes show in the walk
        assert self._walk(cube) == expected
        assert self._walk(service.cube()) == expected
        assert self._sessions(service) == self._sessions(fresh)


class TestSharedGraphEngine:
    """The service creates its union graph engine on the first graph
    request, and that engine's first refresh builds every shard's layers:
    six threads making their first graph requests on a cold service must
    share one engine and build each shard's layers once."""

    STUDENTS = (1, 2, 3)
    COURSES = (2, 4)

    @staticmethod
    def _service():
        from repro.service import CourseRankService

        return CourseRankService(
            generate_university(scale="tiny", seed=5), num_shards=3
        )

    def _answers(self, service):
        ranked = [
            service.recommend("graph_rank_courses", student_id=s, top_k=5)
            for s in self.STUDENTS
        ]
        similar = [
            service.recommend("similar_by_folkrank", course_id=c, top_k=5)
            for c in self.COURSES
        ]
        return [
            answer.as_tuples(*answer.columns) for answer in ranked + similar
        ]

    def test_first_graph_requests_share_one_cold_build(self):
        expected = self._answers(self._service())
        assert all(expected)
        service = self._service()
        engine = service.graphrank
        observed = [None] * THREADS
        engines = set()

        def reader(index):
            engines.add(id(service.graphrank))
            observed[index] = self._answers(service)
            engines.add(id(service.graphrank))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(THREADS, reader)
        finally:
            sys.setswitchinterval(interval)
        for answers in observed:
            assert answers == expected
        assert engines == {id(engine)} and service.graphrank is engine
        assert engine.layers_rebuilt == 3 * service.num_shards


class TestSharedSqlite3Mirror:
    """A facade builds its database's sqlite3 mirror on the first
    ``path="sqlite3"`` run: six threads making that first run at once must
    share one mirror and return the serial answers."""

    COURSES = (1, 2, 3)

    def _answers(self, application):
        return [
            application.recommendations.run(
                "related_courses", path="sqlite3", course_id=course_id
            ).as_tuples("CourseID", "score")
            for course_id in self.COURSES
        ]

    def test_first_runs_share_one_mirror(self, monkeypatch):
        from repro.backends import Sqlite3Backend

        serial = CourseRank(generate_university(scale="tiny", seed=5))
        expected = self._answers(serial)
        assert all(expected)
        app = CourseRank(generate_university(scale="tiny", seed=5))
        built = []
        init = Sqlite3Backend.__init__

        def counting(self, *args):
            # a build that outlasts many switch intervals: every thread
            # reaches the mirror while the first one is still building it
            time.sleep(0.05)
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Sqlite3Backend, "__init__", counting)
        observed = [None] * THREADS

        def reader(index):
            with app.db.rwlock.read_locked():
                observed[index] = self._answers(app)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(THREADS, reader)
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        assert observed == [expected] * THREADS
