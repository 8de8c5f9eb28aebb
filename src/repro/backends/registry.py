"""The backend registry: name -> driver factory, open to any DB-API.

Mirrors the dialect-registry pattern: drivers self-describe by name,
``create_backend`` instantiates one bound to a catalog database, and
applications (or the ``REPRO_BACKEND`` environment toggle) select by
name without importing driver modules.  Third-party DB-API drivers
register with :meth:`BackendRegistry.register_dbapi` — a connection
factory plus a dialect is all a new engine needs.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.backends.base import Backend
from repro.backends.dbapi import DbApiBackend, Sqlite3Backend
from repro.backends.dialects import SqlDialect, get_dialect
from repro.backends.native import MinidbBackend
from repro.errors import BackendError

__all__ = [
    "BackendRegistry",
    "REGISTRY",
    "create_backend",
    "default_backend_name",
    "named_backend",
]

#: factory signature: (catalog) -> Backend
BackendFactory = Callable[[Optional[Any]], Backend]


class BackendRegistry:
    """Named factories for execution backends."""

    def __init__(self) -> None:
        self._factories: Dict[str, BackendFactory] = {}

    def register(
        self, name: str, factory: BackendFactory
    ) -> BackendFactory:
        """Register (or replace) a backend factory under ``name``."""
        self._factories[name.lower()] = factory
        return factory

    def register_dbapi(
        self,
        name: str,
        connect: Callable[[], Any],
        dialect: Any,
    ) -> None:
        """Register any DB-API 2.0 driver by connection factory.

        ``dialect`` is a :class:`SqlDialect` instance or registered
        dialect name; the factory wraps each fresh connection in a
        :class:`DbApiBackend` carrying that dialect's capability mask.
        """
        resolved: SqlDialect = get_dialect(dialect)

        def factory(catalog: Optional[Any]) -> Backend:
            return DbApiBackend(
                connect(), resolved, catalog=catalog, name=name.lower()
            )

        self.register(name, factory)

    def create(self, name: str, catalog: Optional[Any] = None) -> Backend:
        try:
            factory = self._factories[name.lower()]
        except KeyError:
            raise BackendError(
                f"unknown backend {name!r}; registered: {self.names()}"
            ) from None
        return factory(catalog)

    def names(self) -> List[str]:
        return sorted(self._factories)

    def is_registered(self, name: str) -> bool:
        return name.lower() in self._factories


#: process-wide default registry with the two built-in drivers
REGISTRY = BackendRegistry()
REGISTRY.register("minidb", lambda catalog: MinidbBackend(catalog))
REGISTRY.register("sqlite3", lambda catalog: Sqlite3Backend(catalog))


def create_backend(name: str, catalog: Optional[Any] = None) -> Backend:
    """Instantiate a registered backend bound to ``catalog``."""
    return REGISTRY.create(name, catalog)


def named_backend() -> Optional[str]:
    """The backend ``REPRO_BACKEND`` names, or None when unset or empty."""
    return os.environ.get("REPRO_BACKEND", "").strip().lower() or None


def default_backend_name() -> str:
    """The backend the service facade's compiled-SQL path routes through.

    ``REPRO_BACKEND`` selects it (the CI matrix sets ``sqlite3`` on one
    leg); unset or empty means the in-process minidb engine.
    """
    return named_backend() or "minidb"
