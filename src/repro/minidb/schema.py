"""Table schemas: columns, keys, and constraint declarations.

A :class:`TableSchema` is immutable once constructed and is shared by the
storage layer, the SQL planner, and the FlexRecs compiler (which needs to
know column names/types to type-check workflows before emitting SQL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownColumnError
from repro.minidb.types import DataType

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_identifier(name: str, kind: str) -> None:
    if not name:
        raise SchemaError(f"{kind} name must be non-empty")
    if name[0].isdigit():
        raise SchemaError(f"{kind} name {name!r} must not start with a digit")
    if not set(name) <= _IDENT_OK:
        raise SchemaError(f"{kind} name {name!r} contains invalid characters")


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and a NOT NULL flag."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        _check_identifier(self.name, "column")


@dataclass(frozen=True)
class ForeignKey:
    """Declares that ``columns`` reference ``ref_table``'s ``ref_columns``."""

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns} -> {self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key must name at least one column")


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of columns plus key constraints.

    ``primary_key`` may span multiple columns (Comments in the paper has a
    four-column key).  ``unique_keys`` are additional uniqueness constraints.
    """

    name: str
    columns: Tuple[Column, ...]
    primary_key: Tuple[str, ...] = ()
    unique_keys: Tuple[Tuple[str, ...], ...] = ()
    foreign_keys: Tuple[ForeignKey, ...] = ()
    _index: Dict[str, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        _check_identifier(self.name, "table")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        index: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in index:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            index[key] = position
        object.__setattr__(self, "_index", index)
        for key_columns in (self.primary_key,) + self.unique_keys:
            for column_name in key_columns:
                if column_name.lower() not in index:
                    raise SchemaError(
                        f"key column {column_name!r} not in table {self.name!r}"
                    )
        for fk in self.foreign_keys:
            for column_name in fk.columns:
                if column_name.lower() not in index:
                    raise SchemaError(
                        f"foreign-key column {column_name!r} not in table {self.name!r}"
                    )
        # Primary-key columns are implicitly NOT NULL; enforce at insert time
        # via has_pk_column checks in the Table layer.

    # -- lookup ----------------------------------------------------------

    def column_position(self, name: str) -> int:
        """Position of ``name`` (case-insensitive) or raise UnknownColumnError."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_position(name)]

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def is_pk_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(lowered == key.lower() for key in self.primary_key)

    # -- derivation ------------------------------------------------------

    def renamed(self, new_name: str) -> "TableSchema":
        """The same schema under a different table name (used by aliases)."""
        return TableSchema(
            name=new_name,
            columns=self.columns,
            primary_key=self.primary_key,
            unique_keys=self.unique_keys,
            foreign_keys=self.foreign_keys,
        )


def make_schema(
    name: str,
    columns: Sequence[Tuple[str, DataType]],
    primary_key: Iterable[str] = (),
    unique_keys: Iterable[Iterable[str]] = (),
    foreign_keys: Iterable[ForeignKey] = (),
    not_null: Iterable[str] = (),
) -> TableSchema:
    """Convenience constructor used throughout the application schemas.

    ``not_null`` lists column names that must be declared non-nullable in
    addition to primary-key columns (which are always non-nullable).
    """
    not_null_set = {column_name.lower() for column_name in not_null}
    pk = tuple(primary_key)
    pk_set = {column_name.lower() for column_name in pk}
    built = tuple(
        Column(
            column_name,
            dtype,
            nullable=column_name.lower() not in (not_null_set | pk_set),
        )
        for column_name, dtype in columns
    )
    return TableSchema(
        name=name,
        columns=built,
        primary_key=pk,
        unique_keys=tuple(tuple(key) for key in unique_keys),
        foreign_keys=tuple(foreign_keys),
    )
