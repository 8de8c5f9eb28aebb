"""The stdlib ``sqlite3`` mirror: compiled FlexRecs on a conventional DBMS.

:class:`Sqlite3Backend` copies a minidb catalog into an in-memory
sqlite3 connection and runs workflows there, rendered in the sqlite
dialect.  The compiler's ``?`` placeholders pass through as they are
(sqlite3's paramstyle is ``qmark``), and parameters bind through the
dialect (``date`` → ISO text, ``bool`` → int).  The copy is a
**version-keyed snapshot load**: each table's ``(identity,
data_version)`` fingerprint is remembered, so :meth:`~Sqlite3Backend.sync`
recreates only tables whose rows (or schema) actually changed since the
last call — repeated workflow runs with no intervening DML copy nothing.
Comparator UDFs are registered through ``create_function``, and a Python
``SQRT`` stands in on sqlite builds without the math functions.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.backends.dialects import SQLITE_DIALECT
from repro.errors import BackendError
from repro.minidb.executor import ResultSet

__all__ = ["Sqlite3Backend"]


class Sqlite3Backend:
    """An in-memory sqlite3 mirror of a minidb catalog."""

    def __init__(self, catalog: Optional[Any] = None) -> None:
        import sqlite3

        #: the minidb Database whose schema and data the mirror copies and
        #: whose catalog workflows validate against (None: a bare
        #: connection that runs statements but no workflows)
        self.catalog = catalog
        # check_same_thread=False: the service layer executes recommends
        # from worker threads; the lock below serializes access.
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        # table name -> (Table identity, data_version) at last sync
        self._synced: Dict[str, Tuple[int, int]] = {}
        # One statement at a time per connection (sqlite3 is
        # threadsafety=1).  Reentrant because run() and sync() issue
        # statements through execute().
        self._lock = threading.RLock()
        self._udfs: Dict[str, Callable[..., Any]] = {}
        self._ensure_sqrt()

    def run(self, workflow: Any) -> Any:
        """Render ``workflow`` in the sqlite dialect, bring the mirror up
        to date, and execute it here."""
        from repro.core.workflow import Recommendation

        if self.catalog is None:
            raise BackendError(
                "the sqlite3 mirror has no catalog database to validate "
                "and render workflows against"
            )
        compiled = workflow.compiled_for(self.catalog, SQLITE_DIALECT)
        with self._lock:
            for name, function in compiled.udfs:
                self._register_udf(name, function)
            self.sync()
            result = self.execute(compiled.sql)
        return Recommendation(
            columns=list(result.columns), rows=result.to_dicts()
        )

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one statement; one that returns no rows gives an empty
        result."""
        bound = [SQLITE_DIALECT.bind(value) for value in params]
        with self._lock:
            cursor = self.connection.execute(sql, bound)
            try:
                columns = [entry[0] for entry in cursor.description or ()]
                return ResultSet(columns, cursor.fetchall())
            finally:
                cursor.close()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "Sqlite3Backend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- snapshot load -------------------------------------------------------

    def _create_table_sql(self, schema: Any) -> str:
        parts = []
        for column in schema.columns:
            spec = f"{column.name} {SQLITE_DIALECT.type_name(column.dtype)}"
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
        bind = SQLITE_DIALECT.bind
        rows = [[bind(value) for value in row] for row in table.rows()]
        if rows:
            self.connection.executemany(insert, rows)

    def sync(self) -> None:
        """Mirror the catalog, recreating only stale tables."""
        if self.catalog is None:
            raise BackendError(
                "the sqlite3 mirror has no catalog to sync from"
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

    def _register_udf(self, name: str, function: Callable[..., Any]) -> None:
        # Called under run()'s lock; idempotent for the same callable.
        key = name.lower()
        if self._udfs.get(key) is not function:
            self.connection.create_function(
                name, 2, function, deterministic=True
            )
            self._udfs[key] = function
