"""Columnar batch container and the per-table column store.

A :class:`ColumnBatch` is the unit of data flow in the vectorized
executor: a mapping from env keys (the same qualified/bare names the row
pipeline binds into per-row dicts) to plain Python lists, plus a row
count.  NULL is represented in-band as ``None`` — the same encoding the
row path uses — and :meth:`ColumnBatch.null_mask` derives an explicit
boolean mask on demand for kernels that want one.

Column *pruning* is zero-copy: projecting a batch to a subset of keys
shares the underlying lists, and a bare column alias shares the exact
list object of its qualified name.

The module-level :data:`BATCH_SIZE` is deliberately a plain attribute so
tests can shrink it to exercise batch-boundary behaviour
(``vector_batch.BATCH_SIZE = 4``).

The **column store** caches a columnar projection of a
:class:`~repro.minidb.table.Table` — one list per schema column, in scan
order, matching ``table.rows()`` exactly.  Entries are keyed by table
identity in a :class:`weakref.WeakKeyDictionary` and validated against
the table's ``data_version`` counter on every access, so any mutation
(which bumps the version) transparently rebuilds the projection and
dropped tables never pin memory.  Only whole-table scans read it: a plan
with index access runs on the row tree (see :mod:`.ops`).
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: rows per batch; small enough to keep gather lists cache-friendly,
#: large enough to amortize per-batch dispatch.  Tests shrink this to
#: probe boundary behaviour (N-1 / N / N+1 around the batch edge).
BATCH_SIZE = 1024


class ColumnBatch:
    """A batch of rows stored column-wise: ``{env_key: [values...]}``."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, List[Any]], length: int) -> None:
        self.columns = columns
        self.length = length

    def null_mask(self, key: str) -> List[bool]:
        """Explicit null mask for one column (NULL is in-band ``None``)."""
        return [value is None for value in self.columns[key]]

    def project(self, keys: Sequence[str]) -> "ColumnBatch":
        """Zero-copy pruning: the projected batch shares column lists."""
        return ColumnBatch({key: self.columns[key] for key in keys}, self.length)

    def gather(self, sel: Sequence[int]) -> "ColumnBatch":
        """Materialize the rows a selection vector picked."""
        gathered = {
            key: [column[index] for index in sel]
            for key, column in self.columns.items()
        }
        return ColumnBatch(gathered, len(sel))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ColumnBatch {self.length} rows x {len(self.columns)} cols>"


# ---------------------------------------------------------------------------
# the column store
# ---------------------------------------------------------------------------


class _TableStore:
    """One cached columnar projection of a table."""

    __slots__ = ("version", "columns")

    def __init__(self, version: int, columns: List[List[Any]]) -> None:
        self.version = version
        self.columns = columns

    @property
    def length(self) -> int:
        return len(self.columns[0]) if self.columns else 0


#: table -> _TableStore
_STORE: "weakref.WeakKeyDictionary[Any, _TableStore]" = (
    weakref.WeakKeyDictionary()
)

# WeakKeyDictionary mutates internal state even on reads (dead-ref
# callbacks), so concurrent scans share this lock.  The build runs under
# it too: a duplicate concurrent build would waste work, and — with reads
# sharing the database rwlock — both builders would project the *same*
# version, so serializing them costs one build and guarantees every
# reader hands back an internally consistent store.
_STORE_LOCK = threading.Lock()


def table_store(table: Any) -> _TableStore:
    """The cached columnar store of ``table``, rebuilt on mutation."""
    with _STORE_LOCK:
        entry = _STORE.get(table)
        version = table.data_version
        if entry is not None and entry.version == version:
            return entry
        width = len(table.schema.columns)
        columns: List[List[Any]] = [[] for _ in range(width)]
        appends = [column.append for column in columns]
        for row in table.rows():
            for append, value in zip(appends, row):
                append(value)
        entry = _TableStore(version, columns)
        _STORE[table] = entry
        return entry


def table_columns(table: Any) -> List[List[Any]]:
    """The cached columnar projection of ``table``, rebuilt on mutation."""
    return table_store(table).columns


def store_info() -> Dict[str, int]:
    """Introspection hook for tests: cached tables and total cells."""
    with _STORE_LOCK:
        tables = len(_STORE)
        cells = sum(
            sum(len(column) for column in entry.columns)
            for entry in _STORE.values()
        )
    return {"tables": tables, "cells": cells}


def iter_batches(
    columns: Dict[str, List[Any]], length: int, batch_size: Optional[int] = None
) -> Iterator[ColumnBatch]:
    """Slice full-length columns into :data:`BATCH_SIZE` chunks."""
    size = batch_size if batch_size is not None else BATCH_SIZE
    if length == 0:
        return
    if length <= size:
        yield ColumnBatch(dict(columns), length)
        return
    for start in range(0, length, size):
        stop = min(start + size, length)
        yield ColumnBatch(
            {key: column[start:stop] for key, column in columns.items()},
            stop - start,
        )
