"""The stdlib ``sqlite3`` backend: compiled FlexRecs on a conventional DBMS.

:class:`Sqlite3Backend` executes the compiler's ``?`` placeholders as
they are (sqlite3's paramstyle is ``qmark``), binds parameters through
the dialect (``date`` → ISO text, ``bool`` → int), and mirrors the
minidb catalog into its connection with a **version-keyed snapshot
load**: each table's ``(identity, data_version)`` fingerprint is
remembered, so :meth:`~Sqlite3Backend.sync` recreates only tables whose
rows (or schema) actually changed since the last call — repeated
workflow runs with no intervening DML copy nothing.  Comparator UDFs
are registered through ``create_function``, and a Python ``SQRT``
stands in on sqlite builds without the math functions.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.backends.base import Backend, BackendResult
from repro.backends.dialects import SQLITE_DIALECT
from repro.errors import BackendError

__all__ = ["Sqlite3Backend"]


class Sqlite3Backend(Backend):
    """Execute compiled workflows on an in-memory (or on-disk) sqlite3."""

    name = "sqlite3"

    def __init__(
        self, catalog: Optional[Any] = None, path: str = ":memory:"
    ) -> None:
        import sqlite3

        super().__init__(SQLITE_DIALECT, catalog)
        # check_same_thread=False: the service layer executes recommends
        # from worker threads; the lock below serializes access.
        self.connection = sqlite3.connect(path, check_same_thread=False)
        # table name -> (Table identity, data_version) at last sync
        self._synced: Dict[str, Tuple[int, int]] = {}
        # One statement at a time per connection (sqlite3 is
        # threadsafety=1).  Reentrant because sync() issues statements
        # through execute().
        self._lock = threading.RLock()
        self._udfs: Dict[str, Callable[..., Any]] = {}
        self._ensure_sqrt()

    # -- driver protocol -----------------------------------------------------

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> BackendResult:
        bound = [self.dialect.bind(value) for value in params]
        with self._lock:
            cursor = self.connection.cursor()
            try:
                cursor.execute(sql, bound)
                if cursor.description is not None:
                    columns = [entry[0] for entry in cursor.description]
                    rows = [tuple(row) for row in cursor.fetchall()]
                    return BackendResult(columns=columns, rows=rows)
                return BackendResult(rowcount=cursor.rowcount)
            finally:
                cursor.close()

    def close(self) -> None:
        self.connection.close()

    # -- snapshot load -------------------------------------------------------

    def _create_table_sql(self, schema: Any) -> str:
        parts = []
        for column in schema.columns:
            spec = f"{column.name} {self.dialect.type_name(column.dtype)}"
            if not column.nullable:
                spec += " NOT NULL"
            parts.append(spec)
        if schema.primary_key:
            parts.append(f"PRIMARY KEY ({', '.join(schema.primary_key)})")
        for unique in schema.unique_keys:
            parts.append(f"UNIQUE ({', '.join(unique)})")
        return f"CREATE TABLE {schema.name} ({', '.join(parts)})"

    def _load_table(self, table: Any) -> None:
        # Called under sync()'s lock.
        schema = table.schema
        self.execute(f"DROP TABLE IF EXISTS {schema.name}")
        self.execute(self._create_table_sql(schema))
        placeholders = ", ".join("?" for _ in schema.columns)
        names = ", ".join(schema.column_names)
        insert = f"INSERT INTO {schema.name} ({names}) VALUES ({placeholders})"
        bind = self.dialect.bind
        rows = [[bind(value) for value in row] for row in table.rows()]
        if rows:
            self.connection.executemany(insert, rows)

    def sync(self) -> None:
        """Mirror the catalog, recreating only stale tables."""
        if self.catalog is None:
            raise BackendError(
                f"backend {self.name!r} has no catalog to sync from"
            )
        with self._lock:
            live: Dict[str, Tuple[int, int]] = {}
            for table_name in self.catalog.table_names():
                table = self.catalog.table(table_name)
                key = table.name.lower()
                live[key] = (id(table), table.data_version)
                if self._synced.get(key) != live[key]:
                    self._load_table(table)
            for key in list(self._synced):
                if key not in live:
                    self.execute(f"DROP TABLE IF EXISTS {key}")
            self._synced = live
            self.connection.commit()

    # -- functions -----------------------------------------------------------

    def _ensure_sqrt(self) -> None:
        # sqlite builds without SQLITE_ENABLE_MATH_FUNCTIONS lack sqrt;
        # compiled vector measures need it, so fall back to Python.
        import sqlite3

        try:
            have_builtin = self.execute("SELECT sqrt(4.0)").rows[0][0] == 2.0
        except sqlite3.Error:
            have_builtin = False
        if not have_builtin:
            self.connection.create_function(
                "sqrt",
                1,
                lambda value: None if value is None else math.sqrt(value),
                deterministic=True,
            )

    def register_udf(
        self, name: str, function: Callable[..., Any], arity: int = 2
    ) -> None:
        with self._lock:
            key = name.lower()
            if self._udfs.get(key) is function:
                return
            self.connection.create_function(
                name, arity, function, deterministic=True
            )
            self._udfs[key] = function
