"""The in-process minidb backend — executes directly on the catalog.

This is the identity driver: the catalog *is* the engine, so ``sync``
is a no-op and UDF registration goes straight to the catalog's
:class:`~repro.minidb.functions.FunctionRegistry` (which is itself a
same-object-idempotent registry, so repeated workflow runs do not churn
its version counter).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.backends.base import Backend, BackendResult
from repro.backends.dialects import MINIDB_DIALECT

__all__ = ["MinidbBackend"]


class MinidbBackend(Backend):
    """Execute compiled workflows on the minidb engine itself."""

    name = "minidb"

    def __init__(self, catalog: Optional[Any] = None) -> None:
        if catalog is None:
            from repro.minidb.catalog import Database

            catalog = Database()
        super().__init__(MINIDB_DIALECT, catalog)

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> BackendResult:
        result = self.catalog.execute(sql, params=list(params) or None)
        from repro.minidb.executor import ResultSet

        if isinstance(result, ResultSet):
            return BackendResult(
                columns=list(result.columns),
                rows=[tuple(row) for row in result.rows],
            )
        if isinstance(result, int):
            return BackendResult(rowcount=result)
        return BackendResult()

    def register_udf(
        self, name: str, function: Callable[..., Any], arity: int = 2
    ) -> None:
        self.catalog.functions.register_scalar(name, function)
