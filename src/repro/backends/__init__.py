"""Compiled FlexRecs SQL on a conventional DBMS.

The paper claims recommendation workflows compile to declarative SQL
"executed by a conventional DBMS".  This package makes that literal:

- :mod:`repro.backends.dialects` — the two :class:`SqlDialect`
  renderers (minidb's own spelling and sqlite's),
- :mod:`repro.backends.dbapi` — :class:`Sqlite3Backend`, a stdlib
  ``sqlite3`` mirror of a minidb catalog that runs compiled workflows.

On minidb itself compiled SQL needs no driver:
:meth:`~repro.core.workflow.Workflow.run_sql` hands the text to
``Database.query``.  See DESIGN.md §15 for the architecture.
"""

from repro.backends.dbapi import Sqlite3Backend
from repro.backends.dialects import (
    MINIDB_DIALECT,
    SQLITE_DIALECT,
    SqlDialect,
    get_dialect,
)

__all__ = [
    "MINIDB_DIALECT",
    "SqlDialect",
    "Sqlite3Backend",
    "SQLITE_DIALECT",
    "get_dialect",
]
