"""The Database catalog: tables, indexes, functions, transactions.

:class:`Database` is the single entry point applications use:

>>> db = Database()
>>> db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
>>> db.execute("INSERT INTO t VALUES (1, 'intro')")
1
>>> db.query("SELECT name FROM t WHERE id = 1").scalar()
'intro'

Foreign keys are enforced on INSERT (referenced row must exist) and on
DELETE (RESTRICT: a referenced row cannot be removed) unless
``enforce_foreign_keys`` is switched off for bulk loading.

Transactions are whole-database snapshots — ``begin`` / ``commit`` /
``rollback`` — adequate for a single-process engine and sufficient to give
CourseRank atomic multi-table updates (e.g. enroll + plan + points).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.caching import VersionedMemo
from repro.errors import (
    IntegrityError,
    MiniDBError,
    SchemaError,
    TransactionError,
    UnknownTableError,
)
from repro.minidb.concurrency import RWLock
from repro.minidb.functions import FunctionRegistry
from repro.minidb.indexes import create_index
from repro.minidb.plancache import PreparedStatement, plan_stamp
from repro.minidb.schema import Column, ForeignKey, TableSchema
from repro.minidb.table import Row, Table


class IndexInfo:
    """Catalog record for one secondary index."""

    def __init__(self, name: str, table: str, columns: Tuple[str, ...], kind: str) -> None:
        self.name = name
        self.table = table
        self.columns = columns
        self.kind = kind
        self.index = create_index(kind)


class Database:
    """An in-memory relational database with a SQL interface."""

    def __init__(self, enforce_foreign_keys: bool = True) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, IndexInfo] = {}
        self._views: Dict[str, Any] = {}  # name -> SelectStatement
        self.functions = FunctionRegistry()
        self.enforce_foreign_keys = enforce_foreign_keys
        self._snapshot: Optional[Dict[str, Tuple[Dict[int, Row], int]]] = None
        # Executor is created lazily to avoid an import cycle.
        self._executor = None
        # Bumped on every DDL change (and rollback); cached plans whose
        # epoch no longer matches are transparently re-planned.
        self.schema_epoch = 0
        self._plan_cache = VersionedMemo(256, partial(plan_stamp, self))
        # Objects handed out by name (see shared() and memo()).
        self._shared: Dict[str, Any] = {}
        self._shared_lock = threading.Lock()
        # Readers-writer lock giving each statement a consistent view:
        # SELECTs share it, DML/DDL take it exclusively, and an open
        # transaction holds the write side from begin to commit/rollback
        # (transactions are therefore thread-affine).
        self.rwlock = RWLock()

    # -- table management ----------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        if key in self._views:
            raise SchemaError(f"a view named {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            referenced = self._tables.get(fk.ref_table.lower())
            if referenced is None:
                raise SchemaError(
                    f"foreign key references unknown table {fk.ref_table!r}"
                )
            ref_pk = tuple(name.lower() for name in referenced.schema.primary_key)
            if tuple(name.lower() for name in fk.ref_columns) != ref_pk:
                raise SchemaError(
                    f"foreign key must reference the primary key of "
                    f"{fk.ref_table!r} ({referenced.schema.primary_key})"
                )
        table = _CatalogTable(schema, self)
        self._tables[key] = table
        self.schema_epoch += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise UnknownTableError(f"no such table {name!r}")
        # Refuse to orphan foreign keys that point here.
        for other in self._tables.values():
            if other.name.lower() == key:
                continue
            for fk in other.schema.foreign_keys:
                if fk.ref_table.lower() == key:
                    raise SchemaError(
                        f"cannot drop {name!r}: referenced by {other.name!r}"
                    )
        for view_name, statement in self._views.items():
            if self._statement_references(statement, key):
                raise SchemaError(
                    f"cannot drop {name!r}: referenced by view {view_name!r}"
                )
        for index_name in [
            info.name for info in self._indexes.values() if info.table.lower() == key
        ]:
            del self._indexes[index_name.lower()]
        del self._tables[key]
        self.schema_epoch += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(f"no such table {name!r}") from None

    def versions(
        self, tables: Optional[Sequence[str]] = None
    ) -> Tuple[Any, ...]:
        """``(schema_epoch, data_version of each of tables...)``; every
        table when ``tables`` is None.

        Anything computed from those tables is valid exactly while this
        tuple is unchanged: DML moves a data version, DDL the epoch (so a
        DROP + CREATE that restarts a table's counters never aliases).  A
        table that no longer exists reads ``None`` — the epoch moved.
        """
        if tables is None:
            found = self._tables.values()
        else:
            found = [self._tables.get(name.lower()) for name in tables]
        return (
            self.schema_epoch,
            *(
                None if table is None else table.data_version
                for table in found
            ),
        )

    def memo(
        self,
        name: str,
        maxsize: int,
        stamp: Optional[Callable[[Any], Any]] = None,
    ) -> VersionedMemo:
        """This database's memo called ``name``, created on first use.

        ``stamp`` defaults to :meth:`versions`, so an entry put with the
        tables it read as ``deps`` retires on the first write to any of
        them.  Memos live and die with their database.
        """
        return self.shared(
            name,
            lambda: VersionedMemo(
                maxsize, self.versions if stamp is None else stamp
            ),
        )

    def shared(self, name: str, create: Callable[[], Any]) -> Any:
        """This database's object called ``name``, ``create()``-d on first
        use (once, however many threads ask).

        The database alone holds it, so it lives and dies with the
        database: an object that keeps its database (an engine) does not
        keep it alive, as it would from a registry keyed by databases.
        """
        value = self._shared.get(name)
        if value is None:
            with self._shared_lock:
                value = self._shared.get(name)
                if value is None:
                    value = self._shared[name] = create()
        return value

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return [table.name for table in self._tables.values()]

    # -- view management ---------------------------------------------------

    def create_view(self, name: str, statement: Any) -> None:
        """Register a named, unmaterialized SELECT.

        The query is planned immediately so creation fails fast on
        unknown tables or columns.
        """
        key = name.lower()
        if key in self._tables:
            raise SchemaError(f"a table named {name!r} already exists")
        if key in self._views:
            raise SchemaError(f"view {name!r} already exists")
        from repro.minidb.planner import plan_select

        plan_select(self, statement)  # validates
        self._views[key] = statement
        self.schema_epoch += 1

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return
            raise SchemaError(f"no such view {name!r}")
        del self._views[key]
        self.schema_epoch += 1

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str) -> Any:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise SchemaError(f"no such view {name!r}") from None

    def view_names(self) -> List[str]:
        return list(self._views)

    @staticmethod
    def _statement_references(statement: Any, table_key: str) -> bool:
        """Does a SELECT reference ``table_key`` in any FROM position?"""
        from repro.minidb.sql.ast import (
            SelectStatement,
            SubqueryRef,
            TableRef,
        )

        def walk(select: SelectStatement) -> bool:
            items = []
            if select.from_item is not None:
                items.append(select.from_item)
                items.extend(join.table for join in select.joins)
            for item in items:
                if isinstance(item, TableRef):
                    if item.name.lower() == table_key:
                        return True
                elif isinstance(item, SubqueryRef):
                    if walk(item.query):
                        return True
            return False

        return walk(statement)

    # -- index management ----------------------------------------------------

    def create_index(
        self, name: str, table_name: str, columns: Sequence[str], kind: str = "hash"
    ) -> IndexInfo:
        key = name.lower()
        if key in self._indexes:
            raise SchemaError(f"index {name!r} already exists")
        if kind not in ("hash", "sorted"):
            raise SchemaError(f"unknown index kind {kind!r}")
        table = self.table(table_name)
        for column in columns:
            table.schema.column_position(column)  # raises if unknown
        info = IndexInfo(name, table.name, tuple(columns), kind)
        table.attach_index(key, info.index, columns)
        self._indexes[key] = info
        self.schema_epoch += 1
        return info

    def drop_index(self, name: str) -> None:
        key = name.lower()
        info = self._indexes.pop(key, None)
        if info is None:
            raise SchemaError(f"no such index {name!r}")
        self.table(info.table).detach_index(key)
        self.schema_epoch += 1

    def indexes_on(self, table_name: str) -> List[IndexInfo]:
        key = table_name.lower()
        return [info for info in self._indexes.values() if info.table.lower() == key]

    # -- foreign keys ---------------------------------------------------------

    def check_insert_fk(self, table: Table, row: Row) -> None:
        if not self.enforce_foreign_keys:
            return
        for fk in table.schema.foreign_keys:
            key = tuple(
                row[table.schema.column_position(column)] for column in fk.columns
            )
            if any(part is None for part in key):
                continue  # NULL FK values are permitted (MATCH SIMPLE)
            referenced = self.table(fk.ref_table)
            if not referenced.contains_pk(key):
                raise IntegrityError(
                    f"foreign key violation: {table.name}{fk.columns} = {key!r} "
                    f"has no match in {fk.ref_table}"
                )

    def check_delete_fk(self, table: Table, row: Row) -> None:
        if not self.enforce_foreign_keys:
            return
        pk_positions = tuple(
            table.schema.column_position(name) for name in table.schema.primary_key
        )
        if not pk_positions:
            return
        pk_value = tuple(row[position] for position in pk_positions)
        for other in self._tables.values():
            for fk in other.schema.foreign_keys:
                if fk.ref_table.lower() != table.name.lower():
                    continue
                positions = tuple(
                    other.schema.column_position(column) for column in fk.columns
                )
                for candidate in other.rows():
                    if tuple(candidate[p] for p in positions) == pk_value:
                        raise IntegrityError(
                            f"cannot delete from {table.name}: row {pk_value!r} "
                            f"is referenced by {other.name}"
                        )

    # -- SQL interface -----------------------------------------------------

    def _get_executor(self):
        if self._executor is None:
            from repro.minidb.executor import Executor

            self._executor = Executor(self)
        return self._executor

    def execute(self, sql: str, params: Optional[Sequence[Any]] = None) -> Any:
        """Execute one statement.

        Returns a :class:`~repro.minidb.executor.ResultSet` for queries, an
        affected-row count for DML, and ``None`` for DDL.  ``params`` binds
        ``?`` placeholders left-to-right.
        """
        return self._get_executor().execute_sql(sql, params=params)

    def query(self, sql: str, params: Optional[Sequence[Any]] = None):
        """Execute a SELECT/UNION and return its ResultSet."""
        result = self.execute(sql, params=params)
        from repro.minidb.executor import ResultSet

        if not isinstance(result, ResultSet):
            raise MiniDBError("query() requires a SELECT statement")
        return result

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse (and for SELECTs, plan) once; execute many times.

        The handle binds ``?`` parameters per execution and routes through
        this database's plan cache, so repeated executions skip the lexer,
        parser, and planner entirely.
        """
        return PreparedStatement(self, sql)

    def clear_plan_cache(self) -> None:
        """Drop all cached query plans (testing / memory-pressure hook)."""
        self._plan_cache.clear()

    def execute_script(self, sql: str) -> List[Any]:
        """Execute a ``;``-separated script, returning per-statement results."""
        from repro.minidb.sql.parser import parse_script

        return [
            self._get_executor().execute_statement(statement)
            for statement in parse_script(sql)
        ]

    def explain(self, sql: str) -> str:
        """Render the physical plan chosen for a SELECT statement."""
        return self._get_executor().explain(sql)

    def analyze(self, sql: str, params: Optional[Sequence[Any]] = None):
        """EXPLAIN ANALYZE: run a SELECT and return an
        :class:`~repro.minidb.executor.AnalyzeReport` — the result set
        plus the plan annotated with per-node rows-in/rows-out and wall
        time (with the [cached] marker)."""
        return self._get_executor().analyze(sql, params=params)

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        # The whole transaction runs under the write lock (statements
        # inside re-enter it), so concurrent readers never observe a
        # half-applied multi-table update and rollback can restore the
        # snapshot without racing a scan.
        self.rwlock.acquire_write()
        if self._snapshot is not None:
            self.rwlock.release_write()
            raise TransactionError("transaction already in progress")
        self._snapshot = {
            name: (table.snapshot(), table.next_rowid)
            for name, table in self._tables.items()
        }
        self._view_snapshot = dict(self._views)

    def commit(self) -> None:
        if self._snapshot is None:
            raise TransactionError("no transaction in progress")
        self._snapshot = None
        self.rwlock.release_write()

    def rollback(self) -> None:
        if self._snapshot is None:
            raise TransactionError("no transaction in progress")
        for name, (rows, next_rowid) in self._snapshot.items():
            if name in self._tables:
                self._tables[name].restore(rows, next_rowid)
        # Tables created inside the transaction are dropped wholesale.
        for name in list(self._tables):
            if name not in self._snapshot:
                for index_name in [
                    info.name
                    for info in self._indexes.values()
                    if info.table.lower() == name
                ]:
                    del self._indexes[index_name.lower()]
                del self._tables[name]
        self._views = dict(getattr(self, "_view_snapshot", self._views))
        self._snapshot = None
        # Rollback may have undone DDL; invalidate all cached plans.
        self.schema_epoch += 1
        self.rwlock.release_write()

    def transaction(self) -> "_TransactionContext":
        """Context manager: commit on success, rollback on exception."""
        return _TransactionContext(self)

    # -- statistics -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Row counts per table (used by the evaluation reports)."""
        return {table.name: len(table) for table in self._tables.values()}


class _CatalogTable(Table):
    """A Table wired to its catalog for foreign-key enforcement."""

    def __init__(self, schema: TableSchema, database: Database) -> None:
        super().__init__(schema)
        self._database = database

    def _store(self, row: Row) -> int:
        self._database.check_insert_fk(self, row)
        return super()._store(row)

    def _checks_each_row(self) -> bool:
        return self._database.enforce_foreign_keys and bool(
            self.schema.foreign_keys
        )

    def delete_rowid(self, rowid: int) -> None:
        self._database.check_delete_fk(self, self.get(rowid))
        super().delete_rowid(rowid)

    def _replace(self, rowid: int, row: Row) -> None:
        self._database.check_insert_fk(self, row)
        old_row = self.get(rowid)
        if self._pk_of(old_row) != self._pk_of(row):
            # Changing a referenced key would orphan referencing rows.
            self._database.check_delete_fk(self, old_row)
        super()._replace(rowid, row)

    def next_id(self) -> int:
        # Under the read lock, as a ``SELECT MAX`` would be: a concurrent
        # writer must not resize the primary-key map mid-read.
        with self._database.rwlock.read_locked():
            return super().next_id()


class _TransactionContext:
    def __init__(self, database: Database) -> None:
        self._database = database

    def __enter__(self) -> Database:
        self._database.begin()
        return self._database

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc_type is None:
            self._database.commit()
        else:
            self._database.rollback()
        return False
