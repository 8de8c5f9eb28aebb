"""Execution backends: run compiled FlexRecs SQL on minidb or sqlite3.

The paper claims recommendation workflows compile to declarative SQL
"executed by a conventional DBMS".  This package makes that literal on
two engines:

- :mod:`repro.backends.dialects` — the two :class:`SqlDialect`
  renderers under a declarative :class:`Capabilities` mask,
- :mod:`repro.backends.base` — the :class:`Backend` protocol
  (connect / execute / introspect / load-from-minidb-snapshot),
- :mod:`repro.backends.native` — the in-process minidb driver,
- :mod:`repro.backends.dbapi` — the stdlib ``sqlite3`` driver.

The engine set is closed: :data:`BACKENDS` maps each name to its
driver, and :func:`create_backend` (or ``REPRO_BACKEND``) selects one by
name.  See DESIGN.md §15 for the architecture.
"""

import os
from typing import Any, Optional

from repro.backends.base import Backend, BackendResult
from repro.backends.dbapi import Sqlite3Backend
from repro.backends.dialects import (
    MINIDB_DIALECT,
    SQLITE_DIALECT,
    Capabilities,
    SqlDialect,
    get_dialect,
)
from repro.backends.native import MinidbBackend
from repro.errors import BackendError

__all__ = [
    "Backend",
    "BackendResult",
    "BACKENDS",
    "Capabilities",
    "MinidbBackend",
    "MINIDB_DIALECT",
    "SqlDialect",
    "Sqlite3Backend",
    "SQLITE_DIALECT",
    "create_backend",
    "get_dialect",
    "named_backend",
]

#: every execution backend, by the name ``REPRO_BACKEND``, a service's
#: ``backend=`` and a run's ``path=`` use
BACKENDS = {"minidb": MinidbBackend, "sqlite3": Sqlite3Backend}


def create_backend(name: str, catalog: Optional[Any] = None) -> Backend:
    """Instantiate the backend called ``name``, bound to ``catalog``."""
    try:
        driver = BACKENDS[name.lower()]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
    return driver(catalog)


def named_backend() -> Optional[str]:
    """The backend ``REPRO_BACKEND`` names, or None when unset or empty."""
    return os.environ.get("REPRO_BACKEND", "").strip().lower() or None
