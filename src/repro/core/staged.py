"""Staged compilation: a workflow as a *sequence of SQL calls*.

The paper: "The engine executes a workflow by 'compiling' it into a
sequence of SQL calls, which are executed by a conventional DBMS."
:mod:`repro.core.compiler` produces one nested statement; this module
produces the literal sequence: every **recommend** operator becomes a
stage materialized into a temporary table (``CREATE TABLE`` +
``INSERT INTO ... SELECT``), and downstream operators read the staged
table.  The P2 benchmark compares the two forms.

Staging requires column *types* for the temp-table DDL;
:func:`operator_schema` derives them from the catalog through the
operator tree (SqlSource types are probed by sampling).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CompilationError
from repro.core.compiler import _Compiler
from repro.core.operators import (
    Extend,
    Join,
    MaterializedSource,
    Operator,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
)
from repro.core.workflow import Recommendation, Workflow
from repro.minidb.catalog import Database
from repro.minidb.types import DataType, infer_type

Schema = List[Tuple[str, DataType]]


def operator_schema(node: Operator, database: Database) -> Schema:
    """Column (name, type) pairs of an operator's output."""
    if isinstance(node, Source):
        table = database.table(node.table)
        return [(column.name, column.dtype) for column in table.schema.columns]
    if isinstance(node, MaterializedSource):
        return list(node.schema_pairs)
    if isinstance(node, SqlSource):
        return _probe_sql_schema(node, database)
    if isinstance(node, (Select, TopK, Extend)):
        return operator_schema(node.children()[0], database)
    if isinstance(node, Project):
        child = {
            name.lower(): dtype
            for name, dtype in operator_schema(node.child, database)
        }
        return [
            (name, child[name.lower()])
            for name in node.output_columns(database)
        ]
    if isinstance(node, Join):
        return operator_schema(node.left, database) + operator_schema(
            node.right, database
        )
    if isinstance(node, Recommend):
        score_type = (
            DataType.INTEGER if node.aggregate == "count" else DataType.FLOAT
        )
        return operator_schema(node.target, database) + [
            (node.score_column, score_type)
        ]
    raise CompilationError(f"cannot derive a schema for {type(node).__name__}")


def _probe_sql_schema(node: SqlSource, database: Database) -> Schema:
    """Infer a SqlSource's column types by sampling a few rows.

    Columns that are NULL in every sampled row fall back to TEXT.
    """
    result = database.query(f"SELECT * FROM ({node.sql}) AS __probe LIMIT 5")
    schema: Schema = []
    for position, name in enumerate(result.columns):
        dtype: Optional[DataType] = None
        for row in result.rows:
            dtype = infer_type(row[position])
            if dtype is not None:
                break
        schema.append((name, dtype or DataType.TEXT))
    return schema


@dataclass
class StagedWorkflow:
    """The compilation artifact: DDL/DML stages plus the final SELECT."""

    stages: List[str]  # CREATE TABLE / INSERT INTO ... SELECT, in order
    final_select: str
    temp_tables: List[str]

    @property
    def statement_count(self) -> int:
        return len(self.stages) + 1

    def run(self, database: Database) -> Recommendation:
        """Execute the sequence; temp tables are dropped afterwards."""
        try:
            for statement in self.stages:
                database.execute(statement)
            result = database.query(self.final_select)
            rows = [dict(zip(result.columns, row)) for row in result.rows]
            return Recommendation(columns=list(result.columns), rows=rows)
        finally:
            for table_name in reversed(self.temp_tables):
                database.drop_table(table_name, if_exists=True)

    def script(self) -> str:
        """The whole sequence as a SQL script (for inspection)."""
        return ";\n".join(self.stages + [self.final_select]) + ";"


def compile_workflow_staged(
    workflow: Workflow, database: Database
) -> StagedWorkflow:
    """Compile a validated workflow into the staged (temp-table) form."""
    workflow.validate(database)
    compiler = _StagedCompiler(database)
    rewritten = compiler.stage_tree(workflow.root)
    final_select = compiler.inner.compile(rewritten)
    return StagedWorkflow(
        stages=compiler.stages,
        final_select=final_select,
        temp_tables=compiler.temp_tables,
    )


def run_staged(workflow: Workflow, database: Database) -> Recommendation:
    """Convenience: compile to the staged form and execute it."""
    return compile_workflow_staged(workflow, database).run(database)


class _StagedCompiler:
    def __init__(self, database: Database) -> None:
        self.database = database
        self.inner = _Compiler(database)
        self.stages: List[str] = []
        self.temp_tables: List[str] = []
        self._counter = 0

    def stage_tree(self, node: Operator) -> Operator:
        """Rewrite the tree: each Recommend becomes a staged temp table."""
        rewritten = self._rewrite_children(node)
        if isinstance(rewritten, Recommend):
            return self._materialize(rewritten)
        return rewritten

    def _rewrite_children(self, node: Operator) -> Operator:
        if isinstance(node, (Source, SqlSource, MaterializedSource)):
            return node
        if isinstance(node, (Select, Project, TopK, Extend)):
            return dataclasses.replace(node, child=self.stage_tree(node.child))
        if isinstance(node, Join):
            return dataclasses.replace(
                node,
                left=self.stage_tree(node.left),
                right=self.stage_tree(node.right),
            )
        if isinstance(node, Recommend):
            return dataclasses.replace(
                node,
                target=self.stage_tree(node.target),
                reference=self.stage_tree(node.reference),
            )
        raise CompilationError(f"cannot stage {type(node).__name__}")

    def _materialize(self, node: Recommend) -> Operator:
        """Emit CREATE TABLE + INSERT ... SELECT; return a source over it."""
        self._counter += 1
        table_name = f"__frx_stage_{self._counter}"
        schema = operator_schema(node, self.database)
        column_ddl = ", ".join(f"{name} {dtype.value}" for name, dtype in schema)
        select_sql = self.inner.compile(node)
        self.stages.append(f"CREATE TABLE {table_name} ({column_ddl})")
        self.stages.append(f"INSERT INTO {table_name} {select_sql}")
        self.temp_tables.append(table_name)
        # Downstream operators read the staged table; extend metadata on
        # the target side (e.g. rating vectors on similar students) is
        # re-attached so a stacked recommend still finds it.
        replacement: Operator = MaterializedSource(table_name, tuple(schema))
        for info in node.extend_infos(self.database):
            replacement = Extend(replacement, info)
        return replacement
