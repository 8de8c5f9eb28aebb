"""The one staleness rule: ``VersionedMemo`` and ``Database.versions``.

Unit checks of the memo itself, the lazily created per-database memos
under a thread race, and one property over every cache converted to the
rule: on a small CourseRank database after random writes, index churn
and DROP + CREATE of a table, each memo's answer equals a cold rebuild.
"""

import dataclasses
import sys
import threading

from hypothesis import given
from hypothesis import strategies as st

from repro.caching import VersionedMemo
from repro.clouds.cube import COURSE_DIMENSIONS, membership_for
from repro.core import strategies as flexrecs
from repro.core.compiler import compile_workflow
from repro.core.extendcache import (
    build_vectors,
    clear_extend_cache,
    extend_vectors,
)
from repro.core import Workflow
from repro.core.operators import Select, Source, extend
from repro.datagen import generate_university
from repro.errors import MiniDBError
from repro.minidb import Database
from repro.minidb.planner import plan_select
from repro.minidb.sql.parser import parse_statement
from repro.search.entity import EntityDefinition, FieldSpec, course_entity
from repro.service import CourseRankService


def _db():
    database = Database()
    database.execute_script(
        "CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER);"
        "CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER);"
        "INSERT INTO a VALUES (1, 10);"
    )
    return database


class TestVersions:
    def test_epoch_then_each_table(self):
        db = _db()
        epoch = db.schema_epoch
        a, b = db.table("a").data_version, db.table("b").data_version
        assert db.versions(["a", "B"]) == (epoch, a, b)
        assert db.versions() == (epoch, a, b)
        assert db.versions(()) == (epoch,)
        db.execute("INSERT INTO b VALUES (1, 1)")
        assert db.versions(["a"]) == (epoch, a)
        assert db.versions(["b"]) == (epoch, b + 1)

    def test_a_dropped_table_reads_none_under_a_new_epoch(self):
        db = _db()
        before = db.versions(["b"])
        db.execute("DROP TABLE b")
        assert db.versions(["b"]) == (before[0] + 1, None)


class TestVersionedMemo:
    def test_served_while_the_stamp_holds(self):
        db = _db()
        memo = db.memo("m", 4)
        memo.put("k", ("a",), "value")
        db.execute("INSERT INTO b VALUES (1, 1)")  # not a dependency
        assert memo.get("k") == "value"
        assert (memo.hits, memo.misses, memo.stale) == (1, 0, 0)

    def test_a_stale_entry_is_dropped_and_counts_as_a_miss(self):
        db = _db()
        memo = db.memo("m", 4)
        memo.put("k", ("a",), "value")
        db.execute("UPDATE a SET v = 11")
        assert memo.get("k") is None
        assert (memo.hits, memo.misses, memo.stale) == (0, 1, 1)
        assert len(memo) == 0
        assert memo.get("k") is None  # gone: a plain miss now
        assert (memo.misses, memo.stale) == (2, 1)

    def test_get_or_build_stamps_before_building(self):
        db = _db()
        memo = db.memo("m", 4)

        def build():
            db.execute("UPDATE a SET v = 12")  # a write racing the build
            return "built"

        assert memo.get_or_build("k", ("a",), build) == ("built", False)
        assert memo.get_or_build("k", ("a",), lambda: "again") == (
            "again", False,
        )
        assert memo.get_or_build("k", ("a",), lambda: "third") == (
            "again", True,
        )

    def test_custom_stamp_and_maxsize(self):
        clock = [0]
        memo = VersionedMemo(2, lambda deps: clock[0] + deps)
        for key in "abc":
            memo.put(key, 0, key)
        assert sorted(memo.keys()) == ["b", "c"]
        clock[0] = 1
        assert memo.get("c") is None

    def test_memos_are_per_database_and_per_name(self):
        db, other = _db(), _db()
        assert db.memo("x", 4) is db.memo("x", 4)
        assert db.memo("x", 4) is not db.memo("y", 4)
        assert db.memo("x", 4) is not other.memo("x", 4)

    def test_lazy_creation_races_to_one_memo_and_loses_no_put(self):
        """Six threads ask a fresh database for the same memo at once:
        all get one instance, and every thread's put survives."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(30):
                db = _db()
                barrier = threading.Barrier(6)
                seen = [None] * 6

                def worker(index):
                    barrier.wait()
                    memo = db.memo("race", 8)
                    memo.put(index, ("a",), index)
                    seen[index] = memo

                threads = [
                    threading.Thread(target=worker, args=(index,))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert all(memo is seen[0] for memo in seen)
                assert sorted(seen[0].keys()) == list(range(6))
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# every converted site == a cold rebuild, under churn
# ---------------------------------------------------------------------------

#: tables the property may DROP + CREATE (nothing references them)
RECREATABLE = ("Comments", "Enrollments", "Offerings", "Prerequisites")

#: a field whose key column is whichever column Prerequisites lists
#: first — a DROP + CREATE that reorders the columns changes its wrapper
PREREQUISITES = EntityDefinition(
    "prerequisites", (FieldSpec("requires", "SELECT * FROM Prerequisites"),)
)

SELECTS = (
    ("SELECT SuID, Rating FROM Comments WHERE CourseID = ? "
     "ORDER BY SuID", True),
    ("SELECT Title FROM Courses WHERE CourseID IN "
     "(SELECT CourseID FROM Enrollments WHERE Grade = 'A') "
     "ORDER BY CourseID", False),
    ("SELECT * FROM Prerequisites ORDER BY CourseID, PrereqID", False),
)

RECOMMENDS = ("courses_taken_together", "related_courses")

#: compiles to SQL that lists Prerequisites' columns in schema order
REQUIRED = Workflow(Select(Source("Prerequisites"), "PrereqID > 0"))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("comment"), st.integers(0, 29),
                  st.integers(0, 40), st.sampled_from([1.0, 3.5, 5.0])),
        st.tuples(st.just("rerate"), st.integers(0, 40),
                  st.sampled_from([2.0, 4.0])),
        st.tuples(st.just("enroll"), st.integers(0, 29),
                  st.integers(0, 40)),
        st.tuples(st.just("unenroll"), st.integers(0, 40)),
        st.tuples(st.just("term"), st.integers(0, 40),
                  st.sampled_from(["Aut", "Win", "Spr"])),
        st.tuples(st.just("index"), st.sampled_from(RECREATABLE)),
        st.tuples(st.just("unindex"), st.sampled_from(RECREATABLE)),
        st.tuples(st.just("recreate"), st.sampled_from(RECREATABLE),
                  st.randoms(use_true_random=False)),
    ),
    min_size=1,
    max_size=5,
)


def _apply(db, op, students, courses):
    kind = op[0]
    if kind == "comment":
        db.execute(
            "INSERT INTO Comments (SuID, CourseID, Year, Term, Text, "
            "Rating, CommentDate) VALUES (?, ?, 2008, 'Aut', "
            "'lively seminar', ?, DATE '2008-10-01')",
            (students[op[1]], courses[op[2] % len(courses)], op[3]),
        )
    elif kind == "rerate":
        db.execute(
            "UPDATE Comments SET Rating = ? WHERE CourseID = ?",
            (op[2], courses[op[1] % len(courses)]),
        )
    elif kind == "enroll":
        db.execute(
            "INSERT INTO Enrollments (SuID, CourseID, Year, Term, Grade) "
            "VALUES (?, ?, 2008, 'Aut', 'A')",
            (students[op[1]], courses[op[2] % len(courses)]),
        )
    elif kind == "unenroll":
        db.execute(
            "DELETE FROM Enrollments WHERE CourseID = ?",
            (courses[op[1] % len(courses)],),
        )
    elif kind == "term":
        db.execute(
            "UPDATE Offerings SET Term = ? WHERE CourseID = ?",
            (op[2], courses[op[1] % len(courses)]),
        )
    elif kind == "index":
        column = db.table(op[1]).schema.columns[-1].name
        db.execute(f"CREATE INDEX idx_prop_{op[1]} ON {op[1]} ({column})")
    elif kind == "unindex":
        db.execute(f"DROP INDEX idx_prop_{op[1]}")
    else:
        _recreate(db, op[1], op[2])


def _recreate(db, name, rng):
    """DROP + CREATE ``name`` with its columns shuffled, same rows and
    indexes back."""
    table = db.table(name)
    schema = table.schema
    indexes = [(info.name, info.columns, info.kind) for info in db.indexes_on(name)]
    rows = [dict(zip(schema.column_names, row)) for row in table.rows()]
    columns = list(schema.columns)
    rng.shuffle(columns)
    db.execute(f"DROP TABLE {name}")
    recreated = db.create_table(
        dataclasses.replace(schema, columns=tuple(columns))
    )
    for row in rows:
        recreated.insert([row[column.name] for column in columns])
    for index_name, index_columns, kind in indexes:
        db.create_index(index_name, name, index_columns, kind)


def _rows(recommendation):
    return [tuple(sorted(row.items())) for row in recommendation.rows]


def _cold_membership(db, spec):
    grouped = {}
    for doc_id, value in db.query(spec.sql).rows:
        if doc_id is not None and value is not None:
            grouped.setdefault(doc_id, set()).add(value)
    return {doc_id: tuple(sorted(values)) for doc_id, values in grouped.items()}


def _cold_key_queries(db, entity):
    return [
        f"SELECT * FROM ({spec.sql}) AS __entity WHERE "
        f"{plan_select(db, parse_statement(spec.sql)).column_names[0]} = ?"
        for spec in entity.fields
    ]


def _check_every_memo(service, db, course_id, workflow, info):
    # extend vectors and evaluated relations (the direct executor)
    vectors, _hit = extend_vectors(db, info)
    assert vectors == build_vectors(db.table(info.source_table), info)
    warm_run = workflow.run(db)
    # a service recommend (its memo), per strategy
    warm = {
        name: service.recommend(name, course_id=course_id)
        for name in RECOMMENDS
    }
    # cube memberships
    for spec in COURSE_DIMENSIONS:
        assert membership_for(db, spec) == _cold_membership(db, spec)
    # planned SELECTs (one of them snapshots an IN subquery)
    for sql, keyed in SELECTS:
        params = (course_id,) if keyed else None
        warm_rows = db.query(sql, params).rows
        plan = plan_select(db, parse_statement(sql))
        plan.bind_parameters(params or ())
        assert warm_rows == plan.run()[1], sql
    # compiled SQL
    for compiled in (workflow, REQUIRED):
        assert compiled.compiled_for(db).sql == compile_workflow(compiled, db).sql
    # entity wrappers
    for entity in (course_entity(), PREREQUISITES):
        assert entity._key_queries(db) == _cold_key_queries(db, entity)
        cold_texts = entity.collect_texts(db)
        for key in (course_id, course_id + 1):
            assert entity.collect_texts_for(db, key) == cold_texts.get(key)
    # the cold twins of what the extend memo answered
    clear_extend_cache(db)
    assert _rows(warm_run) == _rows(workflow.run(db))
    facade = service.apps[0].recommendations
    for name in RECOMMENDS:
        assert _rows(warm[name]) == _rows(facade.run(name, course_id=course_id))


@given(operations, st.integers(0, 10_000))
def test_every_memo_answers_like_a_cold_rebuild(ops, pick):
    service = CourseRankService(
        generate_university(scale="tiny", seed=5), num_shards=2
    )
    db = service.sharded.shards[0]
    courses = [
        course_id
        for course_id in db.query(
            "SELECT CourseID FROM Courses ORDER BY CourseID"
        ).column("CourseID")
        if service.sharded.shard_of_course(course_id) == 0
    ]
    students = db.query("SELECT SuID FROM Students ORDER BY SuID").column("SuID")
    course_id = courses[pick % len(courses)]
    workflow = flexrecs.courses_taken_together(course_id)
    info = extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    ).info
    _check_every_memo(service, db, course_id, workflow, info)  # warm up
    for op in ops:
        try:
            _apply(db, op, students, courses)
        except MiniDBError:
            continue  # refused: a duplicate key, an index that is not there
        _check_every_memo(service, db, course_id, workflow, info)
