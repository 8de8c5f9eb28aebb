"""Workflow objects: validation and the two execution paths.

A :class:`Workflow` wraps an operator tree.  ``validate()`` type-checks
the tree against a database's catalog (column existence, comparator
attribute availability, aggregate names).  ``run(db)`` executes directly
— what the site serves from; ``run_sql(db)`` compiles to SQL and hands
the text to ``db.query`` — the paper's deployment model, held
rank-identical to ``run`` by the differential suites.  The same compiled
form, rendered in the sqlite dialect, runs on a conventional DBMS through
:meth:`repro.backends.Sqlite3Backend.run`.  All return a
:class:`Recommendation` holding dict-rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CompilationError, WorkflowValidationError
from repro.core.library import Comparator
from repro.core.operators import (
    Extend,
    Join,
    Operator,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
    tables_read,
)
from repro.minidb.catalog import Database


@dataclass
class RecommendStats:
    """Observability record for one recommend-operator execution.

    Counts describe the *pair* space: ``candidates`` is how many
    (target, reference) pairs survived pruning and were considered,
    ``pruned`` how many the key-overlap (or, for text Jaccard, shared
    token) postings map skipped outright, and ``scored`` how many
    candidates produced a non-NULL pair score.
    ``cache_hits``/``cache_misses`` count :mod:`~repro.core.extendcache`
    lookups (extend maps and whole relations) made while materializing
    this operator's inputs; ``relation_hits`` is the share of the hits
    that returned a whole evaluated subtree, and ``keyed_selects`` how
    many σ below this operator read a relation index instead of scanning.
    """

    comparator: str
    aggregate: str
    targets: int = 0
    references: int = 0
    candidates: int = 0
    pruned: int = 0
    scored: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    relation_hits: int = 0
    keyed_selects: int = 0
    elapsed_ms: float = 0.0


@dataclass
class Recommendation:
    """Materialized workflow output."""

    columns: List[str]
    rows: List[Dict[str, Any]]
    #: per-recommend-operator execution stats (direct path only; the
    #: compiled-SQL path leaves this empty)
    stats: List[RecommendStats] = field(default_factory=list)
    #: False when a graph ranking behind the rows stopped at ``max_iters``
    #: instead of at ``epsilon`` (every other strategy leaves it True)
    converged: bool = True

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[Any]:
        lowered = name.lower()
        key = next(
            (column for column in self.columns if column.lower() == lowered), None
        )
        if key is None:
            raise WorkflowValidationError(f"no column {name!r} in recommendation")
        return [row[key] for row in self.rows]

    def as_tuples(self, *names: str) -> List[tuple]:
        return [tuple(row[name] for name in names) for row in self.rows]


def _catalog_stamp(database: Database) -> Tuple[int, int]:
    """What compiled SQL depends on: the schema and the registered UDFs."""
    return database.schema_epoch, database.functions.version


@dataclass(frozen=True)
class Workflow:
    """A named, validated recommendation strategy.

    A value: two workflows with equal operator trees and names are equal
    and hash equal, so per-database memos keyed by a workflow (the
    compiled SQL of :meth:`compiled_for`) hit across requests that each
    build their own.
    """

    root: Operator
    name: str = "workflow"
    #: workflows whose operators read non-relational state (e.g. the
    #: graph ranker) cannot compile to SQL; the service layer routes
    #: them to the direct executor regardless of the configured path.
    direct_only: bool = False

    # -- validation --------------------------------------------------------

    def validate(self, database: Database) -> List[str]:
        """Validate the tree; returns the output columns.

        Raises :class:`WorkflowValidationError` on structural problems:
        unknown columns, comparator attributes that neither the columns
        nor the extend metadata provide, bad aggregates, cycles cannot
        occur (operators are immutable trees).
        """
        columns = self.root.output_columns(database)
        self._validate_node(self.root, database)
        return columns

    def _validate_node(self, node: Operator, database: Database) -> None:
        for child in node.children():
            self._validate_node(child, database)
        node.output_columns(database)  # raises on unknown columns
        if isinstance(node, Recommend):
            self._validate_recommend(node, database)

    def _validate_recommend(self, node: Recommend, database: Database) -> None:
        comparator = node.comparator
        target_columns = {
            c.lower() for c in node.target.output_columns(database)
        }
        reference_columns = {
            c.lower() for c in node.reference.output_columns(database)
        }
        target_attrs = target_columns | {
            info.attribute.lower()
            for info in node.target.extend_infos(database)
        }
        reference_attrs = reference_columns | {
            info.attribute.lower()
            for info in node.reference.extend_infos(database)
        }
        if comparator.kind in ("scalar", "udf"):
            needed_target = comparator.target_attribute.lower()
            needed_reference = comparator.reference_attribute.lower()
            if needed_target not in target_columns:
                raise WorkflowValidationError(
                    f"comparator needs target column "
                    f"{comparator.target_attribute!r}"
                )
            if needed_reference not in reference_columns:
                raise WorkflowValidationError(
                    f"comparator needs reference column "
                    f"{comparator.reference_attribute!r}"
                )
        elif comparator.kind in ("vector", "set"):
            if comparator.target_attribute.lower() not in target_attrs:
                raise WorkflowValidationError(
                    f"comparator needs target attribute "
                    f"{comparator.target_attribute!r} (add an Extend)"
                )
            if comparator.reference_attribute.lower() not in reference_attrs:
                raise WorkflowValidationError(
                    f"comparator needs reference attribute "
                    f"{comparator.reference_attribute!r} (add an Extend)"
                )
        elif comparator.kind == "lookup":
            if comparator.target_attribute.lower() not in target_columns:
                raise WorkflowValidationError(
                    f"lookup comparator needs target column "
                    f"{comparator.target_attribute!r}"
                )
            if comparator.reference_attribute.lower() not in reference_attrs:
                raise WorkflowValidationError(
                    f"lookup comparator needs reference vector attribute "
                    f"{comparator.reference_attribute!r} (add an Extend)"
                )
        else:
            raise WorkflowValidationError(
                f"unknown comparator kind {comparator.kind!r}"
            )
        if node.exclude_self is not None:
            target_column, reference_column = node.exclude_self
            if target_column.lower() not in target_columns:
                raise WorkflowValidationError(
                    f"exclude_self target column {target_column!r} unknown"
                )
            if reference_column.lower() not in reference_columns:
                raise WorkflowValidationError(
                    f"exclude_self reference column {reference_column!r} unknown"
                )

    def tables_read(self) -> Optional[Tuple[str, ...]]:
        """The base tables an answer depends on; ``None`` means all.

        See :func:`repro.core.operators.tables_read`.
        """
        return tables_read(self.root)

    # -- execution -----------------------------------------------------------

    def run(self, database: Database) -> Recommendation:
        """Direct in-memory evaluation (the production path)."""
        from repro.core.executor import execute_workflow

        self.validate(database)
        return execute_workflow(self, database)

    def compiled_for(
        self, database: Database, dialect: Optional[Any] = None
    ) -> Any:
        """Validate + compile once per (database, schema, functions,
        dialect) state.

        The compiler emits deterministic SQL (its alias counter restarts
        per compilation), so the memoized text also keys straight into the
        database's statement and plan caches: a repeated ``run_sql`` skips
        validation, compilation, parsing, and planning entirely.  The
        memo is the database's ``"workflow.compiled"``, keyed by this
        workflow and the dialect (so a workflow alternating between minidb
        and the sqlite3 mirror stays warm on both) and stamped with the
        schema epoch and the function registry's version — *after*
        compiling, because a first compile may register comparator UDFs
        and bump the latter.
        """
        from repro.backends.dialects import MINIDB_DIALECT, get_dialect
        from repro.core.compiler import compile_workflow

        if self.direct_only:
            raise CompilationError(
                f"workflow {self.name!r} is direct-only and has no SQL form"
            )
        resolved = MINIDB_DIALECT if dialect is None else get_dialect(dialect)
        memo = database.memo("workflow.compiled", 128, stamp=_catalog_stamp)
        key = (self, resolved.name)
        compiled = memo.get(key)
        if compiled is None:
            self.validate(database)
            compiled = compile_workflow(self, database, dialect=resolved)
            memo.put(key, database, compiled)
        return compiled

    def run_sql(self, database: Database) -> Recommendation:
        """Compile to SQL and execute it through the minidb SQL engine."""
        result = database.query(self.compiled_for(database).sql)
        return Recommendation(
            columns=list(result.columns), rows=result.to_dicts()
        )

    def to_sql(
        self, database: Database, dialect: Optional[Any] = None
    ) -> str:
        """The SQL this workflow compiles to (for inspection/EXPLAIN)."""
        return self.compiled_for(database, dialect).sql

    def explain(self) -> str:
        """Render the operator tree."""
        return self.root.render_tree()
