"""Batch-vectorized executor for minidb (``planner.VECTORIZE`` path).

Public surface: the :class:`ColumnBatch` container and per-table column
store (:mod:`.batch`), the vectorized expression compiler
(:mod:`.kernels`), and the operators plus dual-path router
(:mod:`.ops`).  ``build_vector_plan(plan)`` returns a
:class:`VectorPlan` twin when the plan scans whole tables and its root
is coverable, else ``None`` and the plan stays on the row path (always
so for a plan that reads a table through an index or its primary key).
"""

from repro.minidb.vector.batch import (
    BATCH_SIZE,
    ColumnBatch,
    iter_batches,
    store_info,
    table_columns,
    table_store,
)
from repro.minidb.vector.kernels import (
    KernelUnsupported,
    compile_kernel,
)
from repro.minidb.vector.ops import (
    VectorPlan,
    build_vector_plan,
)

__all__ = [
    "BATCH_SIZE",
    "ColumnBatch",
    "KernelUnsupported",
    "VectorPlan",
    "build_vector_plan",
    "compile_kernel",
    "iter_batches",
    "store_info",
    "table_columns",
    "table_store",
]
