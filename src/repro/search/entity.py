"""Search entities spanning multiple relations.

Section 3.1 of the paper asks: *"How do we effectively define and search
over search entities that span multiple relations rather than over
tuples?"*  The answer implemented here: an :class:`EntityDefinition` names
a key (the entity id) and a list of :class:`FieldSpec`, each of which is a
SQL query returning ``(entity_key, text)`` pairs plus a ranking weight.

A course entity, for example, draws its ``title`` and ``description``
fields from Courses, a ``comments`` field from the Comments relation, and
an ``instructor`` field from the Instructors/Teaches join — all folded
into one searchable document per course, with title matches weighted above
comment matches (the paper's "Java in the title vs Java in a comment"
question).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SearchError
from repro.minidb.catalog import Database


@dataclass(frozen=True)
class FieldSpec:
    """One field of a search entity.

    ``sql`` must select exactly two columns: the entity key and a text
    value.  Multiple rows per key are concatenated (a course has many
    comments).  ``weight`` scales this field's contribution to the score.
    """

    name: str
    sql: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SearchError("field name must be non-empty")
        if self.weight <= 0:
            raise SearchError(f"field {self.name!r} weight must be positive")


@dataclass(frozen=True)
class EntityDefinition:
    """A named entity type with its constituent fields."""

    name: str
    fields: Tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise SearchError(f"entity {self.name!r} needs at least one field")
        seen = set()
        for spec in self.fields:
            if spec.name in seen:
                raise SearchError(
                    f"entity {self.name!r} has duplicate field {spec.name!r}"
                )
            seen.add(spec.name)

    @property
    def field_weights(self) -> Dict[str, float]:
        return {spec.name: spec.weight for spec in self.fields}

    def collect_texts(self, database: Database) -> Dict[Any, Dict[str, List[str]]]:
        """Run every field query; returns entity_key → field → text chunks."""
        collected: Dict[Any, Dict[str, List[str]]] = {}
        for spec in self.fields:
            result = database.query(spec.sql)
            if len(result.columns) != 2:
                raise SearchError(
                    f"field {spec.name!r} SQL must return (key, text), got "
                    f"{len(result.columns)} columns"
                )
            for key, text in result.rows:
                if key is None or text is None:
                    continue
                if not isinstance(text, str):
                    text = str(text)
                collected.setdefault(key, {}).setdefault(spec.name, []).append(text)
        return collected

    def collect_texts_for(
        self, database: Database, key: Any
    ) -> Optional[Dict[str, List[str]]]:
        """Field → text chunks for a single entity (incremental refresh).

        Wraps each field query in a key filter so refreshing one course
        after a new comment doesn't re-read the whole corpus: minidb pushes
        the filter into the field query and onto the key's index, so each
        wrapper reads the entity's rows, in the order the full collection
        lists them.  Returns None when no field yields text (the entity
        vanished).
        """
        collected: Dict[str, List[str]] = {}
        for spec, wrapped in zip(self.fields, self._key_queries(database)):
            for row_key, text in database.query(wrapped, (key,)).rows:
                if row_key is None or text is None:
                    continue
                if not isinstance(text, str):
                    text = str(text)
                collected.setdefault(spec.name, []).append(text)
        return collected or None

    def _key_queries(self, database: Database) -> List[str]:
        """One ``… WHERE <key column> = ?`` wrapper per field.

        The text is constant per field, so every write after the first
        reuses minidb's parsed statement and cached plan; only naming the
        key column needs the field query planned, and that is remembered
        in the database's ``"entity.key_queries"`` memo until its schema
        changes (an empty ``deps``: the stamp is the schema epoch alone).
        """
        queries, _hit = database.memo("entity.key_queries", 16).get_or_build(
            self,
            (),
            lambda: [
                f"SELECT * FROM ({spec.sql}) AS __entity "
                f"WHERE {_first_column(database, spec)} = ?"
                for spec in self.fields
            ],
        )
        return queries


def _first_column(database: Database, spec: FieldSpec) -> str:
    """The key column name of a field query (its first output column)."""
    from repro.minidb.planner import plan_select
    from repro.minidb.sql.parser import parse_statement

    statement = parse_statement(spec.sql)
    return plan_select(database, statement).column_names[0]


def instructor_entity(
    name_weight: float = 4.0,
    course_weight: float = 2.0,
    comment_weight: float = 1.0,
) -> EntityDefinition:
    """An instructor entity: name, the courses they teach, and what
    students say about those courses.

    "We could easily expand searching with clouds to other entities,
    such as books and instructors" (Section 3.1) — this is the
    instructor expansion.
    """
    return EntityDefinition(
        name="instructor",
        fields=(
            FieldSpec(
                "name",
                "SELECT InstructorID, Name FROM Instructors",
                weight=name_weight,
            ),
            FieldSpec(
                "courses",
                "SELECT t.InstructorID, c.Title FROM Teaches t "
                "JOIN Courses c ON t.CourseID = c.CourseID",
                weight=course_weight,
            ),
            FieldSpec(
                "comments",
                "SELECT t.InstructorID, cm.Text FROM Teaches t "
                "JOIN Comments cm ON t.CourseID = cm.CourseID",
                weight=comment_weight,
            ),
        ),
    )


def textbook_entity(
    title_weight: float = 4.0,
    author_weight: float = 2.0,
    course_weight: float = 1.5,
) -> EntityDefinition:
    """A textbook entity: title, author, and the courses assigning it
    (the "books" expansion of Section 3.1)."""
    return EntityDefinition(
        name="textbook",
        fields=(
            FieldSpec(
                "title",
                "SELECT TextbookID, Title FROM Textbooks",
                weight=title_weight,
            ),
            FieldSpec(
                "author",
                "SELECT TextbookID, Author FROM Textbooks",
                weight=author_weight,
            ),
            FieldSpec(
                "courses",
                "SELECT ct.TextbookID, c.Title FROM CourseTextbooks ct "
                "JOIN Courses c ON ct.CourseID = c.CourseID",
                weight=course_weight,
            ),
        ),
    )


def course_entity(
    title_weight: float = 4.0,
    description_weight: float = 2.0,
    comment_weight: float = 1.0,
    instructor_weight: float = 2.0,
    department_weight: float = 1.5,
) -> EntityDefinition:
    """The canonical CourseRank course entity over the application schema.

    Field weights encode the paper's ranking question: a query term in the
    title counts for more than the same term inside a student comment.
    """
    return EntityDefinition(
        name="course",
        fields=(
            FieldSpec(
                "title",
                "SELECT CourseID, Title FROM Courses",
                weight=title_weight,
            ),
            FieldSpec(
                "description",
                "SELECT CourseID, Description FROM Courses",
                weight=description_weight,
            ),
            FieldSpec(
                "comments",
                "SELECT CourseID, Text FROM Comments",
                weight=comment_weight,
            ),
            FieldSpec(
                "instructor",
                "SELECT t.CourseID, i.Name FROM Teaches t "
                "JOIN Instructors i ON t.InstructorID = i.InstructorID",
                weight=instructor_weight,
            ),
            FieldSpec(
                "department",
                "SELECT c.CourseID, d.Name FROM Courses c "
                "JOIN Departments d ON c.DepID = d.DepID",
                weight=department_weight,
            ),
        ),
    )
