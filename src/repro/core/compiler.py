"""Compilation of FlexRecs workflows into SQL.

The paper: *"The engine executes a workflow by 'compiling' it into a
sequence of SQL calls, which are executed by a conventional DBMS.  When
possible, library functions are compiled into the SQL statements
themselves; in other cases we can rely on external functions that are
called by the SQL statements."*

This module implements exactly that against :mod:`repro.minidb`:

* relational operators become nested sub-selects;
* ``scalar`` comparators inline as SQL arithmetic/CASE expressions;
* ``vector`` comparators (inverse Euclidean, Pearson, cosine) compile to
  a *co-rated join* — the extend operator's virtual attribute never
  materializes; instead the comparator's math is pushed into SQL
  aggregates over the underlying ratings relation;
* ``set`` comparators compile to an intersection join plus per-key size
  subqueries;
* ``lookup`` comparators compile to a probe join (Figure 5(b) upper);
* ``udf`` comparators register the similarity function with the engine
  and call it from the generated SQL.

The output of ``compile_workflow`` is a single SELECT statement.  The
rank order is made deterministic by a secondary sort on the target key,
matching the direct executor's tie-breaking.

Requirements the compiler (and the direct path) share:

* ``Recommend.target_key`` must be unique within the target relation;
* extend sources must be unique per (source_key, map_column) — CourseRank
  keeps one rating per (student, course).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.backends.dialects import MINIDB_DIALECT, SqlDialect, get_dialect
from repro.errors import CompilationError
from repro.core.library import Comparator
from repro.core.operators import (
    Extend,
    ExtendInfo,
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
from repro.core.workflow import Workflow
from repro.minidb.catalog import Database


@dataclass
class CompiledWorkflow:
    """The compilation artifact: SQL text plus the UDFs it calls.

    ``udfs`` pairs each UDF name with its Python callable: the compiler
    registers them on the catalog engine itself, and the sqlite3 mirror
    registers them with its own connection before executing.
    """

    sql: str
    columns: List[str]
    udfs: Tuple[Tuple[str, Callable[..., Any]], ...] = ()


def compile_workflow(
    workflow: Workflow,
    database: Database,
    dialect: Optional[Any] = None,
) -> CompiledWorkflow:
    """Compile a validated workflow to one SQL SELECT for ``database``.

    ``dialect`` (a :class:`SqlDialect`, ``"minidb"`` or ``"sqlite"``)
    selects the target engine's SQL spelling; the default renders for
    the minidb engine itself.  The catalog ``database`` stays the
    semantic authority either way — extend metadata, column resolution,
    and UDF registration all consult it.
    """
    resolved = MINIDB_DIALECT if dialect is None else get_dialect(dialect)
    compiler = _Compiler(database, resolved)
    sql = compiler.compile(workflow.root)
    columns = compiler._columns(workflow.root)
    return CompiledWorkflow(
        sql=sql, columns=columns, udfs=tuple(compiler.udfs.items())
    )


class _Compiler:
    def __init__(
        self, database: Database, dialect: SqlDialect = MINIDB_DIALECT
    ) -> None:
        self.database = database
        self.dialect = dialect
        self._alias_counter = 0
        #: UDF name -> callable, in first-call order
        self.udfs: Dict[str, Callable[..., Any]] = {}
        self._columns_cache: Dict[Operator, List[str]] = {}

    def _columns(self, node: Operator) -> List[str]:
        """Memoized ``node.output_columns``.

        Column resolution recurses over the whole subtree, and a single
        compilation asks for the same node's columns several times (each
        parent re-asks for its children); memoizing makes compilation
        linear in tree size.  The cache lives only for this compilation,
        so mutation of the catalog cannot go stale.  Operators are frozen
        dataclasses, so the key is the node itself: an ``id()`` key would
        outlive a throwaway node (the staged compiler builds some with
        ``dataclasses.replace``) and be served to whichever node is
        allocated at its address next.
        """
        cached = self._columns_cache.get(node)
        if cached is None:
            cached = node.output_columns(self.database)
            self._columns_cache[node] = cached
        return cached

    def _fresh(self, prefix: str) -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    # -- dispatch -----------------------------------------------------------

    def compile(self, node: Operator) -> str:
        if isinstance(node, Source):
            return self._compile_source(node)
        if isinstance(node, MaterializedSource):
            columns = ", ".join(name for name, _dtype in node.schema_pairs)
            return f"SELECT {columns} FROM {node.table}"
        if isinstance(node, SqlSource):
            return node.sql
        if isinstance(node, Select):
            return self._compile_select(node)
        if isinstance(node, Project):
            return self._compile_project(node)
        if isinstance(node, Join):
            return self._compile_join(node)
        if isinstance(node, Extend):
            # Extend is virtual: downstream Recommend nodes compile it
            # into their joins; standalone it is the identity.
            return self.compile(node.child)
        if isinstance(node, TopK):
            return self._compile_topk(node)
        if isinstance(node, Recommend):
            return self._compile_recommend(node)
        raise CompilationError(f"cannot compile operator {type(node).__name__}")

    # -- relational operators ----------------------------------------------

    def _compile_source(self, node: Source) -> str:
        columns = ", ".join(self._columns(node))
        return f"SELECT {columns} FROM {node.table}"

    def _compile_select(self, node: Select) -> str:
        alias = self._fresh("sel")
        columns = ", ".join(self._columns(node))
        child = self.compile(node.child)
        return (
            f"SELECT {columns} FROM ({child}) AS {alias} "
            f"WHERE {node.condition}"
        )

    def _compile_project(self, node: Project) -> str:
        alias = self._fresh("prj")
        columns = ", ".join(self._columns(node))
        keyword = "SELECT DISTINCT" if node.distinct else "SELECT"
        child = self.compile(node.child)
        return f"{keyword} {columns} FROM ({child}) AS {alias}"

    def _compile_join(self, node: Join) -> str:
        left_alias = self._fresh("jl")
        right_alias = self._fresh("jr")
        left_columns = [
            f"{left_alias}.{column}"
            for column in self._columns(node.left)
        ]
        right_columns = [
            f"{right_alias}.{column}"
            for column in self._columns(node.right)
        ]
        columns = ", ".join(left_columns + right_columns)
        left_sql = self.compile(node.left)
        right_sql = self.compile(node.right)
        return (
            f"SELECT {columns} FROM ({left_sql}) AS {left_alias} "
            f"JOIN ({right_sql}) AS {right_alias} "
            f"ON {left_alias}.{node.left_on} = {right_alias}.{node.right_on}"
        )

    def _compile_topk(self, node: TopK) -> str:
        alias = self._fresh("top")
        columns = ", ".join(self._columns(node))
        direction = "DESC" if node.descending else "ASC"
        child = self.compile(node.child)
        return (
            f"SELECT {columns} FROM ({child}) AS {alias} "
            f"ORDER BY {node.by_column} {direction} LIMIT {node.k}"
        )

    # -- recommend -------------------------------------------------------

    def _compile_recommend(self, node: Recommend) -> str:
        comparator = node.comparator
        if comparator.kind in ("scalar", "udf"):
            return self._compile_pairwise_scalar(node)
        if comparator.kind == "vector":
            return self._compile_vector(node)
        if comparator.kind == "set":
            return self._compile_set(node)
        if comparator.kind == "lookup":
            return self._compile_lookup(node)
        raise CompilationError(
            f"comparator kind {comparator.kind!r} is not compilable"
        )

    def _recommend_shell(
        self,
        node: Recommend,
        target_alias: str,
        from_clause: str,
        score_expr: str,
    ) -> str:
        """The shared outer query: project target + aggregate + order."""
        target_columns = self._columns(node.target)
        select_list = ", ".join(
            [f"{target_alias}.{column}" for column in target_columns]
            + [f"{self._agg_sql(node.aggregate, score_expr)} AS {node.score_column}"]
        )
        having = self._having_sql(node.aggregate, score_expr)
        limit = f" LIMIT {node.top_k}" if node.top_k is not None else ""
        return (
            f"SELECT {select_list} FROM {from_clause} "
            f"GROUP BY {target_alias}.{node.target_key} "
            f"HAVING {having} "
            f"ORDER BY {node.score_column} DESC, "
            f"{target_alias}.{node.target_key} ASC{limit}"
        )

    @staticmethod
    def _agg_sql(aggregate: str, expression: str) -> str:
        return f"{aggregate.upper()}({expression})"

    @staticmethod
    def _having_sql(aggregate: str, expression: str) -> str:
        if aggregate == "count":
            return f"COUNT({expression}) > 0"
        return f"{aggregate.upper()}({expression}) IS NOT NULL"

    @staticmethod
    def _exclude_condition(
        target_ref: str, reference_ref: str
    ) -> str:
        # Matches the direct path: skip only when both non-NULL and equal.
        return (
            f"({target_ref} <> {reference_ref} "
            f"OR {target_ref} IS NULL OR {reference_ref} IS NULL)"
        )

    def _compile_pairwise_scalar(self, node: Recommend) -> str:
        comparator = node.comparator
        target_alias = self._fresh("t")
        reference_alias = self._fresh("r")
        target_sql = self.compile(node.target)
        reference_sql = self.compile(node.reference)
        if comparator.kind == "udf":
            self._register_udf(comparator)
            score_expr = (
                f"{comparator.udf_name.upper()}("
                f"{target_alias}.{comparator.target_attribute}, "
                f"{reference_alias}.{comparator.reference_attribute})"
            )
        else:
            score_expr = comparator.inline_sql(
                f"{target_alias}.{comparator.target_attribute}",
                f"{reference_alias}.{comparator.reference_attribute}",
                dialect=self.dialect,
            )
        if node.exclude_self is not None:
            condition = self._exclude_condition(
                f"{target_alias}.{node.exclude_self[0]}",
                f"{reference_alias}.{node.exclude_self[1]}",
            )
            from_clause = (
                f"({target_sql}) AS {target_alias} "
                f"JOIN ({reference_sql}) AS {reference_alias} ON {condition}"
            )
        else:
            from_clause = (
                f"({target_sql}) AS {target_alias} "
                f"CROSS JOIN ({reference_sql}) AS {reference_alias}"
            )
        return self._recommend_shell(node, target_alias, from_clause, score_expr)

    def _register_udf(self, comparator: Comparator) -> None:
        name = comparator.udf_name
        # Always registered on the catalog engine (idempotent for the
        # same callable); the sqlite3 mirror registers from ``udfs``.
        self.database.functions.register_scalar(name, comparator.udf)
        self.udfs.setdefault(name, comparator.udf)

    # -- extend-backed compilations ----------------------------------------------

    def _find_extend(
        self, side: Operator, attribute: str, side_name: str
    ) -> ExtendInfo:
        for info in side.extend_infos(self.database):
            if info.attribute.lower() == attribute.lower():
                return info
        raise CompilationError(
            f"no extend metadata for {side_name} attribute {attribute!r}"
        )

    def _values_subquery(
        self,
        side_sql: str,
        info: ExtendInfo,
        key_out: str,
        map_out: Optional[str],
        value_out: str,
        distinct: bool,
    ) -> str:
        """SELECT key, [map,] value rows backing an extend attribute."""
        row_alias = self._fresh("x")
        source_alias = self._fresh("s")
        parts = [f"{row_alias}.{info.key_column} AS {key_out}"]
        where = [f"{source_alias}.{info.value_column} IS NOT NULL"]
        if map_out is not None:
            if info.map_column is None:
                raise CompilationError(
                    f"attribute {info.attribute!r} is a set, not a vector"
                )
            parts.append(f"{source_alias}.{info.map_column} AS {map_out}")
            where.append(f"{source_alias}.{info.map_column} IS NOT NULL")
        parts.append(f"{source_alias}.{info.value_column} AS {value_out}")
        keyword = "SELECT DISTINCT" if distinct else "SELECT"
        return (
            f"{keyword} {', '.join(parts)} "
            f"FROM ({side_sql}) AS {row_alias} "
            f"JOIN {info.source_table} AS {source_alias} "
            f"ON {source_alias}.{info.source_key} = {row_alias}.{info.key_column} "
            f"WHERE {' AND '.join(where)}"
        )

    def _compile_vector(self, node: Recommend) -> str:
        comparator = node.comparator
        target_info = self._find_extend(
            node.target, comparator.target_attribute, "target"
        )
        reference_info = self._find_extend(
            node.reference, comparator.reference_attribute, "reference"
        )
        target_sql = self.compile(node.target)
        reference_sql = self.compile(node.reference)
        target_alias = self._fresh("t")
        tv_alias = self._fresh("tv")
        rv_alias = self._fresh("rv")
        pair_alias = self._fresh("pair")
        tv_sql = self._values_subquery(
            target_sql, target_info, "__tkey", "__m", "__v", distinct=False
        )
        rv_sql = self._values_subquery(
            reference_sql, reference_info, "__rkey", "__m2", "__v2", distinct=False
        )
        join_condition = f"{tv_alias}.__m = {rv_alias}.__m2"
        if node.exclude_self is not None:
            exc_t, exc_r = node.exclude_self
            if (
                exc_t.lower() != target_info.key_column.lower()
                or exc_r.lower() != reference_info.key_column.lower()
            ):
                raise CompilationError(
                    "vector comparators support exclude_self only on the "
                    "extend key columns"
                )
            join_condition += f" AND {tv_alias}.__tkey <> {rv_alias}.__rkey"
        sim = comparator.pair_sql(
            f"{tv_alias}.__v", f"{rv_alias}.__v2", dialect=self.dialect
        )
        pair_sql = (
            f"SELECT {tv_alias}.__tkey AS __tkey, {rv_alias}.__rkey AS __rkey, "
            f"{sim} AS sim "
            f"FROM ({tv_sql}) AS {tv_alias} "
            f"JOIN ({rv_sql}) AS {rv_alias} ON {join_condition} "
            f"GROUP BY {tv_alias}.__tkey, {rv_alias}.__rkey"
        )
        from_clause = (
            f"({target_sql}) AS {target_alias} "
            f"JOIN ({pair_sql}) AS {pair_alias} "
            f"ON {pair_alias}.__tkey = {target_alias}.{target_info.key_column}"
        )
        return self._recommend_shell(
            node, target_alias, from_clause, f"{pair_alias}.sim"
        )

    def _compile_set(self, node: Recommend) -> str:
        comparator = node.comparator
        target_info = self._find_extend(
            node.target, comparator.target_attribute, "target"
        )
        reference_info = self._find_extend(
            node.reference, comparator.reference_attribute, "reference"
        )
        target_sql = self.compile(node.target)
        reference_sql = self.compile(node.reference)
        target_alias = self._fresh("t")
        tv_alias = self._fresh("tv")
        rv_alias = self._fresh("rv")
        inter_alias = self._fresh("inter")
        tsize_alias = self._fresh("tn")
        rsize_alias = self._fresh("rn")
        pair_alias = self._fresh("pair")

        def values(info: ExtendInfo, side_sql: str, key_out: str) -> str:
            return self._values_subquery(
                side_sql, info, key_out, None, "__v" if key_out == "__tkey" else "__v2",
                distinct=True,
            )

        tv_sql = values(target_info, target_sql, "__tkey")
        rv_sql = values(reference_info, reference_sql, "__rkey")
        join_condition = f"{tv_alias}.__v = {rv_alias}.__v2"
        if node.exclude_self is not None:
            exc_t, exc_r = node.exclude_self
            if (
                exc_t.lower() != target_info.key_column.lower()
                or exc_r.lower() != reference_info.key_column.lower()
            ):
                raise CompilationError(
                    "set comparators support exclude_self only on the "
                    "extend key columns"
                )
            join_condition += f" AND {tv_alias}.__tkey <> {rv_alias}.__rkey"
        intersection_sql = (
            f"SELECT {tv_alias}.__tkey AS __tkey, {rv_alias}.__rkey AS __rkey, "
            f"COUNT(*) AS __c "
            f"FROM ({tv_sql}) AS {tv_alias} "
            f"JOIN ({rv_sql}) AS {rv_alias} ON {join_condition} "
            f"GROUP BY {tv_alias}.__tkey, {rv_alias}.__rkey"
        )
        tsize_sql = (
            f"SELECT __tkey AS __tk, COUNT(*) AS __n "
            f"FROM ({values(target_info, target_sql, '__tkey')}) "
            f"AS {self._fresh('ts')} GROUP BY __tkey"
        )
        rsize_sql = (
            f"SELECT __rkey AS __rk, COUNT(*) AS __n2 "
            f"FROM ({values(reference_info, reference_sql, '__rkey')}) "
            f"AS {self._fresh('rs')} GROUP BY __rkey"
        )
        formula = comparator.set_sql(
            f"{inter_alias}.__c",
            f"{tsize_alias}.__n",
            f"{rsize_alias}.__n2",
            dialect=self.dialect,
        )
        pair_sql = (
            f"SELECT {inter_alias}.__tkey AS __tkey, "
            f"{inter_alias}.__rkey AS __rkey, {formula} AS sim "
            f"FROM ({intersection_sql}) AS {inter_alias} "
            f"JOIN ({tsize_sql}) AS {tsize_alias} "
            f"ON {tsize_alias}.__tk = {inter_alias}.__tkey "
            f"JOIN ({rsize_sql}) AS {rsize_alias} "
            f"ON {rsize_alias}.__rk = {inter_alias}.__rkey"
        )
        from_clause = (
            f"({target_sql}) AS {target_alias} "
            f"JOIN ({pair_sql}) AS {pair_alias} "
            f"ON {pair_alias}.__tkey = {target_alias}.{target_info.key_column}"
        )
        return self._recommend_shell(
            node, target_alias, from_clause, f"{pair_alias}.sim"
        )

    def _compile_lookup(self, node: Recommend) -> str:
        comparator = node.comparator
        reference_info = self._find_extend(
            node.reference, comparator.reference_attribute, "reference"
        )
        target_sql = self.compile(node.target)
        reference_sql = self.compile(node.reference)
        target_alias = self._fresh("t")
        source_alias = self._fresh("s")
        reference_alias = self._fresh("r")
        if reference_info.map_column is None:
            raise CompilationError(
                f"lookup comparator needs a vector attribute, "
                f"{reference_info.attribute!r} is a set"
            )
        conditions = [
            f"{source_alias}.{reference_info.source_key} = "
            f"{reference_alias}.{reference_info.key_column}"
        ]
        if node.exclude_self is not None:
            conditions.append(
                self._exclude_condition(
                    f"{target_alias}.{node.exclude_self[0]}",
                    f"{reference_alias}.{node.exclude_self[1]}",
                )
            )
        from_clause = (
            f"({target_sql}) AS {target_alias} "
            f"JOIN {reference_info.source_table} AS {source_alias} "
            f"ON {source_alias}.{reference_info.map_column} = "
            f"{target_alias}.{comparator.target_attribute} "
            f"AND {source_alias}.{reference_info.value_column} IS NOT NULL "
            f"JOIN ({reference_sql}) AS {reference_alias} "
            f"ON {' AND '.join(conditions)}"
        )
        score_expr = self.dialect.cast_float(
            f"{source_alias}.{reference_info.value_column}"
        )
        return self._recommend_shell(node, target_alias, from_clause, score_expr)
