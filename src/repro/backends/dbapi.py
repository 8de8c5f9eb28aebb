"""Generic DB-API 2.0 driver plus the concrete stdlib sqlite3 backend.

:class:`DbApiBackend` adapts any PEP 249 connection: it converts the
compiler's ``qmark`` placeholders to the driver's declared paramstyle
(string-literal aware), binds parameters through the dialect
(``date`` → ISO text, ``bool`` → int for untyped engines), and mirrors
the minidb catalog into the target engine with a **version-keyed
snapshot load**: each table's ``(identity, data_version)`` fingerprint
is remembered, so :meth:`sync` recreates only tables whose rows (or
schema) actually changed since the last call — repeated workflow runs
with no intervening DML copy nothing.

:class:`Sqlite3Backend` is the proof that the registry accepts a real
conventional DBMS: an in-memory (or on-disk) sqlite3 connection with
scalar UDFs registered via ``create_function`` and a fallback Python
``SQRT`` for sqlite builds without the math functions.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import Backend, BackendResult
from repro.backends.dialects import SQLITE_DIALECT, SqlDialect
from repro.errors import BackendCapabilityError, BackendError

__all__ = ["DbApiBackend", "Sqlite3Backend", "convert_placeholders"]


def convert_placeholders(sql: str, paramstyle: str) -> str:
    """Rewrite ``?`` placeholders for the driver's declared paramstyle.

    Placeholders inside single-quoted string literals (with ``''``
    escapes) are left untouched.  Supports ``qmark`` (identity),
    ``format`` (``%s``), and ``numeric`` (``:1``, ``:2``, ...).
    """
    if paramstyle == "qmark":
        return sql
    if paramstyle not in ("format", "numeric"):
        raise BackendCapabilityError(
            f"unsupported DB-API paramstyle {paramstyle!r} "
            "(supported: qmark, format, numeric)"
        )
    out: List[str] = []
    index = 0
    position = 0
    length = len(sql)
    while position < length:
        char = sql[position]
        if char == "'":
            # Copy the string literal wholesale, honoring '' escapes.
            end = position + 1
            while end < length:
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        end += 2
                        continue
                    end += 1
                    break
                end += 1
            out.append(sql[position:end])
            position = end
            continue
        if char == "?":
            index += 1
            out.append("%s" if paramstyle == "format" else f":{index}")
        else:
            out.append(char)
        position += 1
    return "".join(out)


class DbApiBackend(Backend):
    """Execute compiled workflows on any DB-API 2.0 connection."""

    name = "dbapi"

    def __init__(
        self,
        connection: Any,
        dialect: SqlDialect = SQLITE_DIALECT,
        catalog: Optional[Any] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(dialect, catalog)
        if name is not None:
            self.name = name
        self.connection = connection
        # table name -> (Table identity, data_version) at last sync
        self._synced: Dict[str, Tuple[int, int]] = {}
        # One statement at a time per connection: DB-API drivers are not
        # uniformly thread-safe (sqlite3 is threadsafety=1), and the
        # sharded service layer runs recommends from worker threads.
        # Reentrant because sync() issues statements through execute().
        self._lock = threading.RLock()

    # -- driver protocol -----------------------------------------------------

    def _prepare(
        self, sql: str, params: Sequence[Any]
    ) -> Tuple[str, List[Any]]:
        paramstyle = self.dialect.capabilities.paramstyle
        return (
            convert_placeholders(sql, paramstyle),
            [self.dialect.bind(value) for value in params],
        )

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> BackendResult:
        text, bound = self._prepare(sql, params)
        with self._lock:
            cursor = self.connection.cursor()
            try:
                cursor.execute(text, bound)
                if cursor.description is not None:
                    columns = [entry[0] for entry in cursor.description]
                    rows = [tuple(row) for row in cursor.fetchall()]
                    return BackendResult(columns=columns, rows=rows)
                return BackendResult(rowcount=cursor.rowcount)
            finally:
                cursor.close()

    def executemany(
        self, sql: str, rows: Sequence[Sequence[Any]]
    ) -> None:
        paramstyle = self.dialect.capabilities.paramstyle
        text = convert_placeholders(sql, paramstyle)
        bound = [
            [self.dialect.bind(value) for value in row] for row in rows
        ]
        with self._lock:
            cursor = self.connection.cursor()
            try:
                cursor.executemany(text, bound)
            finally:
                cursor.close()

    def close(self) -> None:
        try:
            self.connection.close()
        except Exception:  # pragma: no cover - driver-dependent teardown
            pass

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
        schema = table.schema
        self.execute(f"DROP TABLE IF EXISTS {schema.name}")
        self.execute(self._create_table_sql(schema))
        placeholders = ", ".join("?" for _ in schema.columns)
        names = ", ".join(schema.column_names)
        insert = f"INSERT INTO {schema.name} ({names}) VALUES ({placeholders})"
        rows = list(table.rows())
        if rows:
            self.executemany(insert, rows)

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
            commit = getattr(self.connection, "commit", None)
            if commit is not None:
                commit()


class Sqlite3Backend(DbApiBackend):
    """The stdlib ``sqlite3`` driver: a real conventional DBMS."""

    name = "sqlite3"

    def __init__(
        self,
        catalog: Optional[Any] = None,
        path: str = ":memory:",
        dialect: SqlDialect = SQLITE_DIALECT,
    ) -> None:
        import sqlite3

        # check_same_thread=False: the service layer executes recommends
        # from worker threads; DbApiBackend's lock serializes access.
        connection = sqlite3.connect(path, check_same_thread=False)
        super().__init__(connection, dialect, catalog, name=self.name)
        self._udfs: Dict[str, Callable[..., Any]] = {}
        self._ensure_sqrt()

    def _ensure_sqrt(self) -> None:
        # sqlite builds without SQLITE_ENABLE_MATH_FUNCTIONS lack sqrt;
        # compiled vector measures need it, so fall back to Python.
        cursor = self.connection.cursor()
        try:
            cursor.execute("SELECT sqrt(4.0)")
            have_builtin = cursor.fetchone()[0] == 2.0
        except Exception:
            have_builtin = False
        finally:
            cursor.close()
        if not have_builtin:
            self._create_function(
                "sqrt",
                1,
                lambda value: None if value is None else math.sqrt(value),
            )

    def _create_function(
        self, name: str, arity: int, function: Callable[..., Any]
    ) -> None:
        try:
            self.connection.create_function(
                name, arity, function, deterministic=True
            )
        except TypeError:  # pragma: no cover - very old sqlite3 modules
            self.connection.create_function(name, arity, function)

    def register_udf(
        self, name: str, function: Callable[..., Any], arity: int = 2
    ) -> None:
        with self._lock:
            key = name.lower()
            if self._udfs.get(key) is function:
                return
            self._create_function(name, arity, function)
            self._udfs[key] = function

    def table_names(self) -> List[str]:
        cursor = self.connection.cursor()
        try:
            cursor.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
            return sorted(row[0] for row in cursor.fetchall())
        finally:
            cursor.close()
