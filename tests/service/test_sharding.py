"""The shard split: bulk appends of the source's rows, equal to per-row inserts.

``ShardedUniversity`` builds each shard table with one
``Table.append_from`` over the source's own row tuples.  The reference
here is the split as per-row ``insert`` calls over the former explicit
routing table; the two must agree in every row, rowid, version counter,
key map and index, for every shard count.
"""

import datetime

import pytest

from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.courserank.schema import create_schema
from repro.datagen import generate_university
from repro.minidb.catalog import Database
from repro.service.sharding import REPLICATED, ShardedUniversity, shard_for_department

#: the course-scoped tables the split partitions by their course's shard
PARTITIONED_BY_COURSE = (
    "Teaches",
    "Offerings",
    "Prerequisites",
    "CourseTextbooks",
    "Enrollments",
    "Plans",
    "Comments",
    "CommentVotes",
    "FacultyNotes",
    "OfficialGrades",
)


@pytest.fixture(scope="module")
def source():
    return generate_university(scale="tiny", seed=7)


def per_row_split(source, num_shards):
    """The split as per-row inserts of copied rows, routed explicitly."""
    shards = []
    for _ in range(num_shards):
        shard = Database(enforce_foreign_keys=False)
        create_schema(shard)
        shards.append(shard)
    courses = source.table("Courses")
    dep, cid = (courses.schema.column_position(c) for c in ("DepID", "CourseID"))
    course_shard = {}
    for row in courses.rows():
        course_shard[row[cid]] = shard_for_department(row[dep], num_shards)
    partitioned = {name.lower() for name in PARTITIONED_BY_COURSE + ("Courses",)}
    for name in source.table_names():
        table = source.table(name)
        for row in table.rows():
            if name.lower() in partitioned:
                position = table.schema.column_position("CourseID")
                index = course_shard.get(row[position])
                targets = [] if index is None else [shards[index]]
            else:
                targets = shards
            for shard in targets:
                shard.table(name).insert(list(row))
    return shards, course_shard


def table_state(table):
    """Rows, rowids, counters, key maps and every index's lookups."""
    indexes = {}
    for name, hook in table._indexes.items():
        keys = {hook._key(row) for row in table.rows()}
        indexes[name] = {key: list(hook.index.find(key)) for key in keys}
    return (
        list(table.rows_with_ids()),
        table.next_rowid,
        table.data_version,
        {pk: table.lookup_pk(pk) for pk in table._pk_map},
        table._unique_maps,
        indexes,
    )


@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
def test_bulk_split_equals_per_row_inserts(source, num_shards):
    sharded = ShardedUniversity(source, num_shards)
    reference, course_shard = per_row_split(source, num_shards)
    assert sharded.course_shard == course_shard
    for shard, expected in zip(sharded.shards, reference):
        assert shard.table_names() == expected.table_names()
        for name in shard.table_names():
            assert table_state(shard.table(name)) == table_state(expected.table(name))


def test_course_tables_stay_partitioned(source):
    sharded = ShardedUniversity(source, 3)
    for name in PARTITIONED_BY_COURSE + ("Courses",):
        position = source.table(name).schema.column_position("CourseID")
        kept = [
            row for row in source.table(name).rows()
            if row[position] in sharded.course_shard
        ]
        for index, shard in enumerate(sharded.shards):
            rows = list(shard.table(name).rows())
            assert all(sharded.course_shard[row[position]] == index for row in rows)
        assert sum(len(shard.table(name)) for shard in sharded.shards) == len(kept)
    for name in REPLICATED:
        for shard in sharded.shards:
            assert list(shard.table(name).rows()) == list(source.table(name).rows())


def test_shard_writes_leave_the_source_alone():
    source = generate_university(scale="tiny", seed=7)
    sharded = ShardedUniversity(source, 2)
    suid, course_id = next(iter(source.table("Comments").rows()))[:2]
    source_row = source.table("Comments").lookup_pk((suid, course_id))
    versions = {
        name: source.table(name).data_version for name in source.table_names()
    }
    shard = sharded.shards[sharded.shard_of_course(course_id)]
    assert shard.table("Comments").lookup_pk((suid, course_id)) is source_row

    app = CourseRank(shard)
    user = app.accounts.register("writer", Role.STUDENT, person_id=suid)
    day = datetime.date(2009, 1, 5)
    app.comment_on_course(user, course_id, "rewritten on the shard", 1.0, day=day)
    other = next(
        cid for cid, index in sharded.course_shard.items()
        if shard is sharded.shards[index]
        and source.table("Comments").lookup_pk((suid, cid)) is None
    )
    app.comment_on_course(user, other, "a new comment", 5.0, day=day)
    shard.execute("UPDATE Courses SET Title = 'Renamed' WHERE CourseID = ?", (course_id,))

    assert shard.table("Comments").lookup_pk((suid, course_id))[4] == "rewritten on the shard"
    assert source.table("Comments").lookup_pk((suid, course_id)) is source_row
    assert source_row[4] != "rewritten on the shard"
    assert source.table("Comments").lookup_pk((suid, other)) is None
    assert source.table("Courses").lookup_pk((course_id,))[2] != "Renamed"
    assert {
        name: source.table(name).data_version for name in source.table_names()
    } == versions
