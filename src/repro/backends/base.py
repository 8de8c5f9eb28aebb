"""The backend protocol: connect, execute, introspect, load snapshots.

A :class:`Backend` is one place a compiled FlexRecs workflow can run:
:class:`~repro.backends.native.MinidbBackend` or
:class:`~repro.backends.dbapi.Sqlite3Backend`.  Each pairs a *driver* (something that executes SQL text) with a
:class:`~repro.backends.dialects.SqlDialect` (how to render that text),
and optionally tracks a minidb :class:`~repro.minidb.catalog.Database`
as its **catalog** — the semantic source of truth that workflows are
validated against and whose data the backend mirrors.

``execute_workflow`` is the shared orchestration: render the workflow
for this backend's dialect (memoized per dialect on the workflow),
register any comparator UDFs the compilation needs, bring the mirror up
to date (:meth:`sync`, version-keyed so unchanged tables are never
recopied), execute, and wrap the rows as a
:class:`~repro.core.workflow.Recommendation`.  The whole pipeline is
observable through ``repro.obs``: a ``backend.run`` span plus
``backend.render_ms`` / ``backend.sync_ms`` / ``backend.execute_ms``
histograms, a ``backend.rows`` histogram, and per-backend query
counters (``backend.<name>.queries``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import BackendError
from repro.backends.dialects import SqlDialect
from repro.obs import COUNT_EDGES, OBS

__all__ = ["BackendResult", "Backend"]


@dataclass
class BackendResult:
    """Uniform result shape across drivers.

    ``columns``/``rows`` are set for row-returning statements; DML
    reports ``rowcount`` (βˆ’1 when the driver cannot tell).
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = -1


class Backend:
    """Abstract execution backend bound to an optional minidb catalog.

    Drivers implement ``execute(sql, params) -> BackendResult`` (``?``
    placeholders) and, to run workflows whose comparators compile to
    UDFs, ``register_udf(name, function, arity)``.
    """

    #: key in :data:`repro.backends.BACKENDS`; concrete drivers override
    name: str = "abstract"

    def __init__(
        self, dialect: SqlDialect, catalog: Optional[Any] = None
    ) -> None:
        self.dialect = dialect
        #: the minidb Database whose schema/data this backend executes
        #: against (None for standalone statement execution)
        self.catalog = catalog

    # -- driver protocol -----------------------------------------------------

    def sync(self) -> None:
        """Bring the backend's data mirror up to date with the catalog.

        Version-keyed: implementations must be a no-op when nothing
        changed since the last call.  Backends that execute directly
        against the catalog (minidb) keep the default no-op.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release driver resources (connections, temp storage)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- workflow execution ---------------------------------------------------

    def execute_workflow(self, workflow: Any) -> Any:
        """Render a FlexRecs workflow for this dialect and execute it."""
        from repro.core.workflow import Recommendation

        if self.catalog is None:
            raise BackendError(
                f"backend {self.name!r} has no catalog database to "
                "validate and render workflows against"
            )
        started = time.perf_counter()
        compiled = workflow.compiled_for(self.catalog, self.dialect)
        render_ms = (time.perf_counter() - started) * 1000.0
        for udf_name, function in compiled.udf_impls:
            self.register_udf(udf_name, function, arity=2)
        sync_started = time.perf_counter()
        self.sync()
        sync_ms = (time.perf_counter() - sync_started) * 1000.0
        execute_started = time.perf_counter()
        result = self.execute(compiled.sql, compiled.params)
        execute_ms = (time.perf_counter() - execute_started) * 1000.0
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        if OBS.enabled:
            OBS.tracer.record(
                "backend.run",
                render_ms + sync_ms + execute_ms,
                attrs={
                    "backend": self.name,
                    "dialect": self.dialect.name,
                    "workflow": workflow.name,
                    "rows": len(rows),
                },
            )
            OBS.metrics.inc(f"backend.{self.name}.queries")
            OBS.metrics.observe("backend.render_ms", render_ms)
            OBS.metrics.observe("backend.sync_ms", sync_ms)
            OBS.metrics.observe("backend.execute_ms", execute_ms)
            OBS.metrics.observe(
                "backend.rows", len(rows), edges=COUNT_EDGES
            )
        return Recommendation(columns=list(result.columns), rows=rows)
