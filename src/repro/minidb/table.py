"""Row storage for a single table.

Rows are stored as immutable tuples in insertion order, so two tables of
one schema may share them.  A primary-key hash map enforces uniqueness and
gives O(1) point lookup; secondary indexes (see :mod:`repro.minidb.indexes`)
are maintained incrementally on every mutation.

Deletes use tombstone-free compaction semantics: a delete physically removes
the row, and row identifiers (``rowid``) are stable handles that are never
reused within a table's lifetime.

Scan order is rowid order: inserts append ascending rowids, deletes remove
in place, and an update replaces its row where it stands (as sqlite3 does).
Index lookups emit rowids in ascending order too, so a scan through an
index returns exactly the rows, in exactly the order, of a full scan plus
the same filter — the invariant that lets the planner move a predicate
into a derived table and onto an index without changing an answer.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IntegrityError, SchemaError
from repro.minidb.schema import TableSchema
from repro.minidb.types import DataType, coerce

Row = Tuple[Any, ...]


def _key_getter(positions: Sequence[int]) -> Callable[[Row], Optional[Tuple[Any, ...]]]:
    """``row -> tuple(row[p] for p in positions)``, built once per key: a
    one-column key is still a 1-tuple, and no columns make no key (None)."""
    if not positions:
        return lambda row: None
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


class Table:
    """In-memory heap of rows conforming to a :class:`TableSchema`."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 0
        self._pk_positions = tuple(
            schema.column_position(name) for name in schema.primary_key
        )
        self._pk_of = _key_getter(self._pk_positions)
        self._unique_keys = tuple(
            _key_getter([schema.column_position(name) for name in key])
            for key in schema.unique_keys
        )
        self._pk_map: Dict[Tuple[Any, ...], int] = {}
        self._unique_maps: List[Dict[Tuple[Any, ...], int]] = [
            {} for _ in self._unique_keys
        ]
        # Secondary indexes registered by the catalog: name -> (index, positions)
        self._indexes: Dict[str, "_IndexHook"] = {}
        # Monotonic version counters.  ``data_version`` moves on every
        # mutation; ``indexed_version`` only on index attach/detach — the
        # plan cache validates against it, and a plan reads rows (and
        # resolves its index keys) per execution, so DML never re-plans.
        self._data_version = 0
        self._indexed_version = 0

    def _bump_versions(self) -> None:
        self._data_version += 1

    @property
    def data_version(self) -> int:
        # Coherency counter for every derived cache of this table's rows:
        # plan-cache snapshots and FlexRecs extend vectors validate
        # against it.
        return self._data_version

    @property
    def indexed_version(self) -> int:
        return self._indexed_version

    def fast_forward_versions(
        self, data_version: int, indexed_version: int
    ) -> None:
        """Advance the counters to at least the given values.

        Used by :mod:`repro.minidb.persist` when reloading a saved
        database: the bulk load bumps the counters from zero, but a
        restored database must not reuse version numbers the saved one
        already spent — a plan cached against the old instance's state
        could otherwise validate against the reloaded one.  Counters only
        move forward; a manifest older than the live state is a no-op.
        """
        self._data_version = max(self._data_version, data_version)
        self._indexed_version = max(self._indexed_version, indexed_version)

    # -- basic properties --------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate rows in insertion order."""
        return iter(self._rows.values())

    def rows_with_ids(self) -> Iterator[Tuple[int, Row]]:
        return iter(self._rows.items())

    def get(self, rowid: int) -> Row:
        return self._rows[rowid]

    # -- validation ---------------------------------------------------------

    def _normalize(self, values: Sequence[Any]) -> Row:
        columns = self.schema.columns
        if len(values) != len(columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(columns)} values, "
                f"got {len(values)}"
            )
        normalized = []
        for value, column in zip(values, columns):
            coerced = coerce(value, column.dtype)
            if coerced is None and (
                not column.nullable or self.schema.is_pk_column(column.name)
            ):
                raise IntegrityError(
                    f"column {self.name}.{column.name} may not be NULL"
                )
            normalized.append(coerced)
        return tuple(normalized)

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one row (positional values), returning its rowid."""
        return self._store(self._normalize(values))

    def append_from(self, source: "Table", rows: Iterable[Row]) -> None:
        """Append ``rows``, which are rows of ``source``, in order.

        ``source`` must have this table's schema (else ``SchemaError``).
        It normalized each row when it took it, and an equal schema would
        normalize it to itself, so the tuples are shared as they are.  The
        rows are key-checked, then entered in the row and key maps in bulk
        (``dict.update``), then in the indexes, and ``data_version`` moves
        once by their count: the state :meth:`insert` per row leaves.  On a
        key collision, with a stored row or within ``rows``, nothing is
        entered and the rows are replayed through :meth:`_store`, which
        raises at the offending row with its predecessors stored, as
        per-row inserts would.  Rows that need a check of their own (see
        :meth:`_checks_each_row`) are stored one by one.
        """
        if source.schema != self.schema:
            raise SchemaError(
                f"cannot append rows of {source.name!r} to {self.name!r}: "
                "their schemas differ"
            )
        rows = list(rows)
        if self._checks_each_row() or not self._append_bulk(rows):
            for row in rows:
                self._store(row)

    def _checks_each_row(self) -> bool:
        """Whether a stored row must pass a check beyond its keys (a
        catalog table's foreign keys); a plain table has none."""
        return False

    def _append_bulk(self, rows: List[Row]) -> bool:
        """Store ``rows`` at once; False, storing nothing, on a key
        collision."""
        start = self._next_rowid
        # One int object per rowid, shared by the row map, the key maps
        # and the indexes (iterating a range twice would mint two).
        rowids = list(range(start, start + len(rows)))
        pk_entries: Dict[Tuple[Any, ...], int] = {}
        if self._pk_positions:
            pk_entries = dict(zip(map(self._pk_of, rows), rowids))
            if len(pk_entries) != len(rows) or not (
                self._pk_map.keys().isdisjoint(pk_entries)
            ):
                return False
        unique_entries = []
        for key_of, unique_map in zip(self._unique_keys, self._unique_maps):
            keyed = [
                (key, rowid)
                for key, rowid in zip(map(key_of, rows), rowids)
                if None not in key
            ]
            entries = dict(keyed)
            if len(entries) != len(keyed) or not (
                unique_map.keys().isdisjoint(entries)
            ):
                return False
            unique_entries.append(entries)
        self._rows.update(zip(rowids, rows))
        self._next_rowid = start + len(rows)
        self._pk_map.update(pk_entries)
        for unique_map, entries in zip(self._unique_maps, unique_entries):
            unique_map.update(entries)
        for hook in self._indexes.values():
            for rowid, row in zip(rowids, rows):
                hook.insert(rowid, row)
        self._data_version += len(rows)
        return True

    def _store(self, row: Row) -> int:
        """Key-check and append a normalized row, returning its rowid."""
        pk = self._pk_of(row)
        if pk is not None and pk in self._pk_map:
            raise IntegrityError(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        for key_of, unique_map in zip(self._unique_keys, self._unique_maps):
            key = key_of(row)
            if None not in key and key in unique_map:
                raise IntegrityError(
                    f"unique constraint violated in {self.name!r}: {key!r}"
                )
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        self._register(rowid, row, pk)
        self._bump_versions()
        return rowid

    def _register(self, rowid: int, row: Row, pk: Optional[Tuple[Any, ...]]) -> None:
        """Enter a stored row (primary key ``pk``) in the key maps and indexes."""
        if pk is not None:
            self._pk_map[pk] = rowid
        for key_of, unique_map in zip(self._unique_keys, self._unique_maps):
            key = key_of(row)
            if None not in key:
                unique_map[key] = rowid
        for hook in self._indexes.values():
            hook.insert(rowid, row)

    def insert_dict(self, record: Dict[str, Any]) -> int:
        """Insert a row given a column-name → value mapping.

        Missing columns default to NULL; unknown names raise SchemaError.
        """
        values: List[Any] = [None] * len(self.schema.columns)
        for column_name, value in record.items():
            values[self.schema.column_position(column_name)] = value
        return self.insert(values)

    def delete_rowid(self, rowid: int) -> None:
        self._remove_row(rowid)

    def _remove_row(self, rowid: int) -> None:
        """Physically remove a row, bypassing referential checks."""
        row = self._rows.pop(rowid)
        pk = self._pk_of(row)
        if pk is not None:
            self._pk_map.pop(pk, None)
        for key_of, unique_map in zip(self._unique_keys, self._unique_maps):
            key = key_of(row)
            if None not in key:
                unique_map.pop(key, None)
        for hook in self._indexes.values():
            hook.delete(rowid, row)
        self._bump_versions()

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete rows matching ``predicate``; return the count removed."""
        doomed = [rowid for rowid, row in self._rows.items() if predicate(row)]
        for rowid in doomed:
            self.delete_rowid(rowid)
        return len(doomed)

    def update_rowid(self, rowid: int, new_values: Sequence[Any]) -> None:
        """Replace the row at ``rowid`` with new (full) values, in place:
        the row keeps its rowid and its position in scan order."""
        self._replace(rowid, self._normalize(new_values))

    def _replace(self, rowid: int, row: Row) -> None:
        """Key-check and store a normalized row over the one at ``rowid``."""
        old = self._rows[rowid]
        pk = self._pk_of(row)
        old_pk = self._pk_of(old)
        if pk != old_pk and pk in self._pk_map:
            raise IntegrityError(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        unique_moves = []
        for key_of, unique_map in zip(self._unique_keys, self._unique_maps):
            key = key_of(row)
            old_key = key_of(old)
            if key == old_key:
                continue
            if None not in key and key in unique_map:
                raise IntegrityError(
                    f"unique constraint violated in {self.name!r}: {key!r}"
                )
            unique_moves.append((unique_map, old_key, key))
        self._rows[rowid] = row
        if pk != old_pk:
            del self._pk_map[old_pk]
            self._pk_map[pk] = rowid
        for unique_map, old_key, key in unique_moves:
            if None not in old_key:
                unique_map.pop(old_key, None)
            if None not in key:
                unique_map[key] = rowid
        for hook in self._indexes.values():
            hook.update(rowid, old, row)
        self._bump_versions()

    def update_pk(self, key: Sequence[Any], new_values: Sequence[Any]) -> bool:
        """Replace the row whose primary key is ``key`` (a point update,
        no scan); False when no row has that key."""
        if not self._pk_positions:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rowid = self._pk_map.get(tuple(key))
        if rowid is None:
            return False
        self.update_rowid(rowid, new_values)
        return True

    def update_where(
        self,
        predicate: Callable[[Row], bool],
        transform: Callable[[Row], Sequence[Any]],
    ) -> int:
        """Update all rows matching ``predicate`` via ``transform``."""
        touched = [
            (rowid, row) for rowid, row in list(self._rows.items()) if predicate(row)
        ]
        for rowid, row in touched:
            self.update_rowid(rowid, transform(row))
        return len(touched)

    def clear(self) -> None:
        self._rows.clear()
        self._pk_map.clear()
        for unique_map in self._unique_maps:
            unique_map.clear()
        for hook in self._indexes.values():
            hook.clear()
        self._bump_versions()

    # -- lookup ---------------------------------------------------------------

    def lookup_pk(self, key: Sequence[Any]) -> Optional[Row]:
        """Point lookup by primary key; None when absent."""
        if not self._pk_positions:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rowid = self._pk_map.get(tuple(key))
        return None if rowid is None else self._rows[rowid]

    def contains_pk(self, key: Sequence[Any]) -> bool:
        return bool(self._pk_positions) and tuple(key) in self._pk_map

    def next_id(self) -> int:
        """One past the largest primary-key value, 1 on an empty table:
        ``SELECT MAX(<key>) + 1`` as one pass over the primary-key map
        (linear in the table, no row read).  The key must be a single
        INTEGER column."""
        positions = self._pk_positions
        if len(positions) != 1 or (
            self.schema.columns[positions[0]].dtype is not DataType.INTEGER
        ):
            raise SchemaError(
                f"table {self.name!r} has no single-column INTEGER primary key"
            )
        return max(self._pk_map, default=(0,))[0] + 1

    def scan_equal(self, column: str, value: Any) -> Iterator[Row]:
        """All rows whose ``column`` equals ``value`` (uses index if present)."""
        position = self.schema.column_position(column)
        for hook in self._indexes.values():
            if hook.positions == (position,):
                for rowid in hook.index.find((value,)):
                    yield self._rows[rowid]
                return
        for row in self._rows.values():
            if row[position] == value:
                yield row

    # -- index plumbing (catalog-managed) -------------------------------------

    def attach_index(self, name: str, index: "Any", columns: Sequence[str]) -> None:
        positions = tuple(self.schema.column_position(c) for c in columns)
        hook = _IndexHook(index, positions)
        for rowid, row in self._rows.items():
            hook.insert(rowid, row)
        self._indexes[name] = hook
        self._indexed_version += 1

    def detach_index(self, name: str) -> None:
        self._indexes.pop(name, None)
        self._indexed_version += 1

    # -- snapshots (transactions) ----------------------------------------------

    def snapshot(self) -> Dict[int, Row]:
        """A shallow copy of the row map (rows are immutable tuples)."""
        return dict(self._rows)

    def restore(self, snap: Dict[int, Row], next_rowid: int) -> None:
        """Restore a prior snapshot, rebuilding key maps and indexes."""
        self._rows = dict(snap)
        self._next_rowid = next_rowid
        self._pk_map = {}
        self._unique_maps = [{} for _ in self._unique_keys]
        for hook in self._indexes.values():
            hook.clear()
        for rowid, row in self._rows.items():
            self._register(rowid, row, self._pk_of(row))
        self._bump_versions()

    @property
    def next_rowid(self) -> int:
        return self._next_rowid


class _IndexHook:
    """Binds a secondary index to the column positions it covers."""

    def __init__(self, index: Any, positions: Tuple[int, ...]) -> None:
        self.index = index
        self.positions = positions
        self._key = _key_getter(positions)

    def insert(self, rowid: int, row: Row) -> None:
        self.index.insert(self._key(row), rowid)

    def delete(self, rowid: int, row: Row) -> None:
        self.index.delete(self._key(row), rowid)

    def update(self, rowid: int, old: Row, row: Row) -> None:
        old_key = self._key(old)
        key = self._key(row)
        if key != old_key:
            self.index.delete(old_key, rowid)
            self.index.insert(key, rowid)

    def clear(self) -> None:
        self.index.clear()
