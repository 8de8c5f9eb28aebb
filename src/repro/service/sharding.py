"""Horizontal sharding of the synthetic university by department hash.

A shard is a complete, self-contained CourseRank database holding a
subset of the *courses* (and every row that hangs off them) plus a full
replica of the reference tables.  Routing is by the owning course's
department: all of a department's courses — and their comments,
offerings, enrollments, plans, grades — land on one shard, so every
course-scoped operation (course page, comment, per-course recommend) is
single-shard, while search and clouds scatter-gather across all shards.

The split is a *projection* of an already-generated unsharded database:
each shard table takes its rows in one bulk append, in the source's
insertion order, sharing the source's immutable row tuples (no row is
re-validated or copied), so each shard's tables, search entity texts,
and index contents are exactly what a fresh build over that course
subset would produce.  Shard databases disable foreign-key enforcement
because cross-shard references (e.g. a prerequisite course on another
shard) are dangling by design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.courserank.schema import create_schema
from repro.minidb.catalog import Database

#: reference + low-traffic tables: replicated to every shard.  The forum
#: tables are replicated (the paper: the forum saw little traffic), so
#: Q&A reads work on any shard.  Every other table that has a CourseID
#: column is partitioned by its course's shard (``Courses`` itself by its
#: department); a table without one is replicated too.
REPLICATED = (
    "Departments",
    "Instructors",
    "Textbooks",
    "Students",
    "Users",
    "Requirements",
    "Questions",
    "Answers",
    "QuestionRoutes",
    "PointsLedger",
)

_KNUTH_32 = 2654435761  # Fibonacci-hash multiplier
_MASK_32 = 0xFFFFFFFF


def shard_for_department(dep_id: int, num_shards: int) -> int:
    """Deterministic department → shard routing (stable across runs).

    A multiplicative hash rather than plain modulo, so consecutive
    department ids spread over shards instead of striping.
    """
    return ((dep_id * _KNUTH_32) & _MASK_32) % num_shards


class ShardedUniversity:
    """The sharded build of one unsharded CourseRank database."""

    def __init__(self, source: Database, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards
        self.shards: List[Database] = []
        for _ in range(num_shards):
            shard = Database(enforce_foreign_keys=False)
            create_schema(shard)
            self.shards.append(shard)
        #: course id -> shard index (routing table for single-shard ops)
        self.course_shard: Dict[int, int] = {}
        self._split(source)

    # -- routing -----------------------------------------------------------

    def shard_of_course(self, course_id: int) -> int:
        try:
            return self.course_shard[course_id]
        except KeyError:
            raise KeyError(f"unknown course {course_id!r}") from None

    def shard_of_department(self, dep_id: int) -> int:
        return shard_for_department(dep_id, self.num_shards)

    # -- the split ---------------------------------------------------------

    def _split(self, source: Database) -> None:
        # Route courses by department hash and record the map.
        courses = source.table("Courses")
        dep_position = courses.schema.column_position("DepID")
        id_position = courses.schema.column_position("CourseID")
        for row in courses.rows():
            self.course_shard[row[id_position]] = self.shard_of_department(
                row[dep_position]
            )

        # Then each table, Courses included, in one append per shard that
        # keeps the source's row order (entity text assembly and the
        # differential tests depend on row order being reproducible).
        replicated = {name.lower() for name in REPLICATED}
        for name in source.table_names():
            table = source.table(name)
            columns = {column.name.lower() for column in table.schema.columns}
            if name.lower() in replicated or "courseid" not in columns:
                buckets = [list(table.rows())] * self.num_shards
            else:
                position = table.schema.column_position("CourseID")
                buckets = [[] for _ in self.shards]
                for row in table.rows():
                    shard_index = self.course_shard.get(row[position])
                    if shard_index is not None:  # else its course is gone
                        buckets[shard_index].append(row)
            for shard, rows in zip(self.shards, buckets):
                shard.table(name).append_from(table, rows)

    # -- introspection -----------------------------------------------------

    def course_counts(self) -> List[int]:
        """Courses per shard (balance check)."""
        return [len(shard.table("Courses")) for shard in self.shards]
