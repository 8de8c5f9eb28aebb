"""FlexRecs workflow operators.

A recommendation strategy is a tree of operators (the paper's Figure 5):

* :class:`Source` / :class:`SqlSource` — base relations;
* :class:`Select` — σ with a SQL predicate string;
* :class:`Project` — π (optionally DISTINCT);
* :class:`Join` — equi-join of two sub-workflows;
* :class:`Extend` — ε: attaches a set- or vector-valued attribute derived
  from another relation ("view the set of ratings for each student as
  another attribute of the student irrespective of the database schema");
* :class:`Recommend` — the special operator: ranks the *target* tuples by
  comparing them to the *reference* tuples with a library comparator,
  aggregating pair scores (max/avg/sum/min/count) into a score column;
* :class:`TopK` — order by a column and keep the first k.

Operators are immutable descriptions; execution is performed either by
:mod:`repro.core.executor` (direct) or :mod:`repro.core.compiler` (SQL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkflowValidationError
from repro.core.library import Comparator
from repro.minidb.catalog import Database

AGGREGATES = ("max", "avg", "sum", "min", "count")


@dataclass(frozen=True)
class ExtendInfo:
    """Metadata describing one extend-attached attribute.

    ``attribute`` is visible on tuples of the extended relation.  Values
    come from ``source_table`` rows whose ``source_key`` equals the
    tuple's ``key_column``.  With ``map_column`` the attribute is a vector
    ``{map: value}``; without it, a set of ``value_column`` values.
    """

    attribute: str
    source_table: str
    source_key: str
    key_column: str
    value_column: str
    map_column: Optional[str] = None

    @property
    def is_vector(self) -> bool:
        return self.map_column is not None


class Operator:
    """Base class for workflow nodes."""

    def children(self) -> Tuple["Operator", ...]:
        return ()

    def extend_infos(self, database: Database) -> List[ExtendInfo]:
        """Extend metadata still attached to this operator's output."""
        infos: List[ExtendInfo] = []
        for child in self.children():
            infos.extend(child.extend_infos(database))
        return infos

    # -- small tree helpers ------------------------------------------------

    def render_tree(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.render_tree(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class Source(Operator):
    """A base table of the database."""

    table: str

    def output_columns(self, database: Database) -> List[str]:
        return list(database.table(self.table).schema.column_names)

    def describe(self) -> str:
        return f"Source({self.table})"


@dataclass(frozen=True)
class SqlSource(Operator):
    """An arbitrary SELECT used as a workflow input (escape hatch)."""

    sql: str

    def output_columns(self, database: Database) -> List[str]:
        from repro.minidb.planner import plan_select
        from repro.minidb.sql.parser import parse_statement
        from repro.minidb.sql.ast import SelectStatement

        statement = parse_statement(self.sql)
        if not isinstance(statement, SelectStatement):
            raise WorkflowValidationError("SqlSource requires a SELECT statement")
        return plan_select(database, statement).column_names

    def describe(self) -> str:
        return f"SqlSource({self.sql!r})"


@dataclass(frozen=True)
class MaterializedSource(Operator):
    """A table reference with an explicit schema.

    Used by the staged compiler for temp tables that do not exist yet at
    compile time (each recommend stage materializes into one).
    """

    table: str
    schema_pairs: Tuple[Tuple[str, Any], ...]  # (column name, DataType)

    def output_columns(self, database: Database) -> List[str]:
        return [name for name, _dtype in self.schema_pairs]

    def describe(self) -> str:
        return f"MaterializedSource({self.table})"


@dataclass(frozen=True)
class Select(Operator):
    """σ: keep tuples satisfying a SQL predicate over the child columns."""

    child: Operator
    condition: str

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def output_columns(self, database: Database) -> List[str]:
        return self.child.output_columns(database)

    def describe(self) -> str:
        return f"Select({self.condition})"


@dataclass(frozen=True)
class Project(Operator):
    """π: keep only the named columns (extend attrs survive alongside)."""

    child: Operator
    columns: Tuple[str, ...]
    distinct: bool = False

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def output_columns(self, database: Database) -> List[str]:
        available = {
            column.lower(): column
            for column in self.child.output_columns(database)
        }
        resolved = []
        for column in self.columns:
            if column.lower() not in available:
                raise WorkflowValidationError(
                    f"Project references unknown column {column!r}; "
                    f"child has {sorted(available.values())}"
                )
            resolved.append(available[column.lower()])
        return resolved

    def extend_infos(self, database: Database) -> List[ExtendInfo]:
        kept = {column.lower() for column in self.columns}
        return [
            info
            for info in self.child.extend_infos(database)
            if info.key_column.lower() in kept
        ]

    def describe(self) -> str:
        star = "DISTINCT " if self.distinct else ""
        return f"Project({star}{', '.join(self.columns)})"


@dataclass(frozen=True)
class Join(Operator):
    """Equi-join of two sub-workflows on one column from each side."""

    left: Operator
    right: Operator
    left_on: str
    right_on: str

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def output_columns(self, database: Database) -> List[str]:
        left_columns = self.left.output_columns(database)
        right_columns = self.right.output_columns(database)
        collisions = {c.lower() for c in left_columns} & {
            c.lower() for c in right_columns
        }
        if collisions:
            raise WorkflowValidationError(
                f"Join output would have duplicate columns {sorted(collisions)}; "
                "Project the inputs first"
            )
        return left_columns + right_columns

    def describe(self) -> str:
        return f"Join({self.left_on} = {self.right_on})"


@dataclass(frozen=True)
class Extend(Operator):
    """ε: attach a derived set/vector attribute to each tuple."""

    child: Operator
    info: ExtendInfo

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def output_columns(self, database: Database) -> List[str]:
        columns = self.child.output_columns(database)
        if self.info.attribute.lower() in {c.lower() for c in columns}:
            raise WorkflowValidationError(
                f"Extend attribute {self.info.attribute!r} collides with a column"
            )
        return columns

    def extend_infos(self, database: Database) -> List[ExtendInfo]:
        return self.child.extend_infos(database) + [self.info]

    def describe(self) -> str:
        shape = "vector" if self.info.is_vector else "set"
        return (
            f"Extend({self.info.attribute} := {shape} from "
            f"{self.info.source_table})"
        )


def extend(
    child: Operator,
    attribute: str,
    source_table: str,
    source_key: str,
    key_column: str,
    value_column: str,
    map_column: Optional[str] = None,
) -> Extend:
    """Convenience constructor for :class:`Extend`."""
    return Extend(
        child,
        ExtendInfo(
            attribute=attribute,
            source_table=source_table,
            source_key=source_key,
            key_column=key_column,
            value_column=value_column,
            map_column=map_column,
        ),
    )


@dataclass(frozen=True)
class Recommend(Operator):
    """The recommend operator (the paper's triangle).

    Ranks ``target`` tuples by comparing each to the ``reference`` tuples
    with ``comparator``; pair scores are folded with ``aggregate`` into a
    ``score_column``.  Targets with no defined pair score are dropped.
    ``target_key`` must be a unique key of the target relation (used for
    grouping in the compiled SQL and for deterministic tie-breaking).
    ``exclude_self`` optionally names a (target column, reference column)
    pair whose equality disqualifies a pair — e.g. don't count a student
    as similar to themselves.
    """

    target: Operator
    reference: Operator
    comparator: Comparator
    target_key: str
    aggregate: str = "max"
    score_column: str = "score"
    top_k: Optional[int] = None
    exclude_self: Optional[Tuple[str, str]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.target, self.reference)

    def output_columns(self, database: Database) -> List[str]:
        columns = self.target.output_columns(database)
        lowered = {c.lower() for c in columns}
        if self.aggregate not in AGGREGATES:
            raise WorkflowValidationError(
                f"unknown aggregate {self.aggregate!r}; choose from {AGGREGATES}"
            )
        if self.score_column.lower() in lowered:
            raise WorkflowValidationError(
                f"score column {self.score_column!r} collides with a target column"
            )
        if self.target_key.lower() not in lowered:
            raise WorkflowValidationError(
                f"target key {self.target_key!r} is not a target column"
            )
        if self.top_k is not None and self.top_k < 1:
            raise WorkflowValidationError("top_k must be at least 1")
        return columns + [self.score_column]

    def extend_infos(self, database: Database) -> List[ExtendInfo]:
        # Only the target side's extends survive into the output tuples.
        return self.target.extend_infos(database)

    def describe(self) -> str:
        parts = [
            f"Recommend[{self.comparator.describe()}",
            f"agg={self.aggregate}",
        ]
        if self.top_k is not None:
            parts.append(f"top_k={self.top_k}")
        return " ".join(parts) + "]"


@dataclass(frozen=True)
class TopK(Operator):
    """Order by a column (descending by default) and keep the first k."""

    child: Operator
    k: int
    by_column: str
    descending: bool = True

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def output_columns(self, database: Database) -> List[str]:
        columns = self.child.output_columns(database)
        if self.by_column.lower() not in {c.lower() for c in columns}:
            raise WorkflowValidationError(
                f"TopK column {self.by_column!r} is not a child column"
            )
        if self.k < 1:
            raise WorkflowValidationError("TopK k must be at least 1")
        return columns

    def describe(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"TopK({self.k} by {self.by_column} {direction})"


@dataclass(frozen=True)
class GraphRecommend(Operator):
    """Leaf operator: FolkRank differential ranking over Courses.

    Produces the ``Courses`` relation extended with ``score_column``,
    ranked by the preference-biased, baseline-subtracted graph walk (see
    :mod:`repro.graphrank`).  ``preference`` is a tuple of
    ``(kind, key)`` seeds (``"user"``, ``"course"``, or ``"term"``);
    with ``exclude_seed`` any seeded course is dropped from the answer.
    The graph is built from live tables at execution time, so this
    operator has no SQL compilation — workflows using it are direct-only.
    """

    preference: Tuple[Tuple[str, Any], ...]
    top_k: int = 10
    score_column: str = "score"
    exclude_seed: bool = True
    #: ``repro.graphrank.ranker.MAX_ITERS``, spelled out: importing the
    #: ranker imports numpy, which a process that never ranks should not load
    max_iters: int = 250

    def children(self) -> Tuple[Operator, ...]:
        return ()

    def output_columns(self, database: Database) -> List[str]:
        columns = list(database.table("Courses").schema.column_names)
        if self.score_column.lower() in {c.lower() for c in columns}:
            raise WorkflowValidationError(
                f"score column {self.score_column!r} collides with a Courses column"
            )
        if self.top_k < 1:
            raise WorkflowValidationError("top_k must be at least 1")
        if not self.preference:
            raise WorkflowValidationError(
                "GraphRecommend needs at least one preference seed"
            )
        return columns + [self.score_column]

    def describe(self) -> str:
        seeds = ", ".join(f"{kind}:{key}" for kind, key in self.preference)
        return f"GraphRecommend[{seeds} top_k={self.top_k}]"


def tables_read(node: Operator) -> Optional[Tuple[str, ...]]:
    """Sorted lower-cased names of the base tables ``node``'s subtree reads.

    ``None`` means "cannot be told, assume every table": SQL text
    (:class:`SqlSource`), a staged temp table, non-relational state
    (:class:`GraphRecommend`) or an operator this module does not define.
    """
    if isinstance(node, Source):
        return (node.table.lower(),)
    if not isinstance(node, (Select, Project, Join, Extend, Recommend, TopK)):
        return None
    tables = {node.info.source_table.lower()} if isinstance(node, Extend) else set()
    for child in node.children():
        read = tables_read(child)
        if read is None:
            return None
        tables.update(read)
    return tuple(sorted(tables))
